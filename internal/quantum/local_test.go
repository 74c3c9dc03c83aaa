package quantum

import (
	"math"
	"math/rand"
	"testing"

	"qnp/internal/linalg"
)

// The measurement projectors: MeasureW's collapse must equal conjugation
// by these bit for bit.
var (
	proj0 = linalg.FromRows([][]complex128{{1, 0}, {0, 0}})
	proj1 = linalg.FromRows([][]complex128{{0, 0}, {0, 1}})
)

// localCase is one operator, or one Kraus channel, the local conjugation
// kernel must reproduce bit for bit against the dense reference.
type localCase struct {
	name    string
	channel func(p float64) Kraus // nil for a single operator
	op      *linalg.Matrix
}

// localCases lists every gate, projector and Kraus channel in the package,
// dense operators whose rows have more than two nonzero terms (so the
// summation order shows in the bits), and operators of the wrong shape
// that the kernel must reject.
func localCases() []localCase {
	return []localCase{
		{name: "I2", op: I2}, {name: "X", op: X}, {name: "Y", op: Y}, {name: "Z", op: Z},
		{name: "H", op: H}, {name: "S", op: S}, {name: "SDagger", op: SDagger}, {name: "T", op: T},
		{name: "Rx", op: Rx(0.7)}, {name: "Ry", op: Ry(-1.3)}, {name: "Rz", op: Rz(2.1)},
		{name: "proj0", op: proj0}, {name: "proj1", op: proj1},
		{name: "CNOT", op: CNOT}, {name: "CZ", op: CZ}, {name: "SWAP", op: SWAP},
		{name: "dense2", op: randOp(rand.New(rand.NewSource(1)), 2)},
		{name: "dense4", op: randOp(rand.New(rand.NewSource(2)), 4)},
		{name: "3×3", op: linalg.Identity(3)}, {name: "2×4", op: linalg.New(2, 4)},
		{name: "8×8", op: linalg.Identity(8)},
		{name: "Depolarizing1", channel: Depolarizing1}, {name: "Depolarizing2", channel: Depolarizing2},
		{name: "AmplitudeDamping", channel: AmplitudeDamping},
		{name: "PhaseFlip", channel: PhaseFlip}, {name: "BitFlip", channel: BitFlip},
	}
}

// randOp returns a d×d operator with random complex entries, one of them
// zero so the kernel's zero skipping is exercised too.
func randOp(r *rand.Rand, d int) *linalg.Matrix {
	m := linalg.New(d, d)
	for i := range m.Data {
		m.Data[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	m.Data[1] = 0
	return m
}

// TestDepolarizingOpsMatchConstruction pins the shared Kraus builder to the
// textbook construction it replaced: √(1−3p/4)·I and √(p/4)·σᵢ for one
// qubit, √(1−15p/16)·I⊗I and √(p/16)·σᵢ⊗σⱼ for two.
func TestDepolarizingOpsMatchConstruction(t *testing.T) {
	ps := []float64{-0.2, 0, 1, 1.5}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		ps = append(ps, rng.Float64())
	}
	for _, p := range ps {
		q := clamp01(p)
		var want1, want2 []*linalg.Matrix
		want1 = append(want1, linalg.Scale(complex(math.Sqrt(1-3*q/4), 0), I2))
		for i := 1; i <= 3; i++ {
			want1 = append(want1, linalg.Scale(complex(math.Sqrt(q/4), 0), Pauli(i)))
		}
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				w := q / 16
				if i == 0 && j == 0 {
					w = 1 - 15*q/16
				}
				want2 = append(want2, linalg.Scale(complex(math.Sqrt(w), 0), linalg.Kron(Pauli(i), Pauli(j))))
			}
		}
		for _, c := range []struct {
			got, want []*linalg.Matrix
		}{{Depolarizing1(p), want1}, {Depolarizing2(p), want2}} {
			if len(c.got) != len(c.want) {
				t.Fatalf("p=%v: %d operators, want %d", p, len(c.got), len(c.want))
			}
			for i := range c.want {
				if !bitEqual(c.got[i], c.want[i]) {
					t.Errorf("p=%v: operator %d differs from the textbook construction", p, i)
				}
			}
		}
	}
}

// denseConjugate is the reference the kernel replaces: embed op as
// I⊗op⊗I and conjugate with two dense products.
func denseConjugate(op, rho *linalg.Matrix, target, n int) *linalg.Matrix {
	q := op.Rows / 2
	l := linalg.KronChain(linalg.Identity(1<<target), op, linalg.Identity(1<<(n-target-q)))
	return linalg.MulChain(l, rho, linalg.Adjoint(l))
}

// mustPanic reports whether fn panics.
func mustPanic(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}

// FuzzLocalConjugation pins the local conjugation kernel, and every gate,
// generic Kraus channel and projector routed through it, to the dense
// embedding bit for bit, on random states of 1–4 qubits at every target,
// and MeasureW's collapse to the dense projector conjugation. Wrong-shape
// operators and out-of-range targets must panic. The closed-form noise
// channels are pinned to these Kraus sums by FuzzClosedFormChannels.
func FuzzLocalConjugation(f *testing.F) {
	cases := localCases()
	for i := range cases {
		for n := uint8(1); n <= 4; n++ {
			for target := uint8(0); target <= n+1; target++ {
				f.Add(int64(i)*31+int64(n), uint8(i), n, target)
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, opIdx, nRaw, targetRaw uint8) {
		c := cases[int(opIdx)%len(cases)]
		n := 1 + int(nRaw)%4
		target := int(targetRaw)%(n+2) - 1 // -1..n: out of range at both ends
		rng := rand.New(rand.NewSource(seed))
		rho := randDensity(rng, 1<<n)
		p := rng.Float64()
		ops := []*linalg.Matrix{c.op}
		if c.channel != nil {
			ops = c.channel(p)
		}
		d := ops[0].Rows
		if (d != 2 && d != 4) || ops[0].Cols != d || target < 0 || target+d/2 > n {
			if !mustPanic(func() { conjugateLocalW(nil, ops[0], rho, target, n) }) {
				t.Fatalf("%s on target %d of %d qubits did not panic", c.name, target, n)
			}
			return
		}
		want := linalg.New(1<<n, 1<<n)
		for _, op := range ops {
			want.AddInPlace(denseConjugate(op, rho, target, n))
		}
		ws := linalg.NewWorkspace()
		var got *linalg.Matrix
		if c.channel == nil {
			got = conjugateLocalW(ws, c.op, rho, target, n)
		} else {
			got = Kraus(ops).ApplyW(ws, rho, target, n)
		}
		if !bitEqual(got, want) {
			t.Fatalf("%s on target %d of %d qubits: kernel differs from the dense reference by %g",
				c.name, target, n, linalg.MaxAbsDiff(got, want))
		}
		if c.op == proj0 {
			checkMeasureDense(t, rho, target, n, seed)
		}
	})
}

// checkMeasureDense pins MeasureW's outcome probability and collapse to
// the dense Tr(P₀ρ) and P·ρ·P/prob it replaced, for the same RNG draws.
func checkMeasureDense(t *testing.T, rho *linalg.Matrix, target, n int, seed int64) {
	t.Helper()
	l0 := linalg.KronChain(linalg.Identity(1<<target), proj0, linalg.Identity(1<<(n-target-1)))
	p0 := math.Min(math.Max(real(linalg.Trace(linalg.Mul(l0, rho))), 0), 1)
	rng := rand.New(rand.NewSource(seed))
	proj, prob := proj1, 1-p0
	if rng.Float64() < p0 {
		proj, prob = proj0, p0
	}
	want := denseConjugate(proj, rho, target, n)
	if prob > 1e-15 {
		want.ScaleInPlace(complex(1/prob, 0))
	}
	_, got := MeasureW(nil, rho, target, n, PerfectReadout, rand.New(rand.NewSource(seed)))
	if !bitEqual(got, want) {
		t.Fatalf("MeasureW on target %d of %d qubits differs from the dense reference", target, n)
	}
}

// bitEqual compares two matrices bit for bit, signed zeros included.
func bitEqual(a, b *linalg.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		x, y := a.Data[i], b.Data[i]
		if math.Float64bits(real(x)) != math.Float64bits(real(y)) ||
			math.Float64bits(imag(x)) != math.Float64bits(imag(y)) {
			return false
		}
	}
	return true
}
