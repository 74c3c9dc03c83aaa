package quantum

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"qnp/internal/linalg"
)

func TestChannelsTracePreserving(t *testing.T) {
	cases := map[string]Kraus{
		"AmplitudeDamping(0.3)": AmplitudeDamping(0.3),
		"AmplitudeDamping(1)":   AmplitudeDamping(1),
		"PhaseFlip(0.2)":        PhaseFlip(0.2),
		"BitFlip(0.7)":          BitFlip(0.7),
		"Depolarizing1(0.5)":    Depolarizing1(0.5),
		"Depolarizing2(0.1)":    Depolarizing2(0.1),
	}
	for name, k := range cases {
		if !k.IsTracePreserving(tol) {
			t.Errorf("%s not trace preserving", name)
		}
	}
	if (Kraus{}).IsTracePreserving(tol) {
		t.Error("empty Kraus accepted")
	}
}

func TestChannelPreservesDensityMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rho := randDensity(rng, 4)
	for _, k := range []Kraus{AmplitudeDamping(0.4), PhaseFlip(0.3), Depolarizing1(0.2)} {
		out := k.Apply(rho, 0, 2)
		if math.Abs(real(linalg.Trace(out))-1) > 1e-9 {
			t.Error("trace not preserved through Apply")
		}
		if !linalg.IsHermitian(out, 1e-9) {
			t.Error("hermiticity not preserved")
		}
	}
	out := Depolarizing2(0.3).Apply(rho, 0, 2)
	if math.Abs(real(linalg.Trace(out))-1) > 1e-9 {
		t.Error("trace not preserved through Apply on a 4×4 channel")
	}
}

// Dephasing of one qubit of Φ+ mixes it with Φ−:
// F(t) = 1 − p = (1 + exp(−t/T2)) / 2 when T1 = ∞.
func TestDephasingFidelityDecay(t *testing.T) {
	t2 := 1.0
	for _, dt := range []float64{0, 0.1, 0.5, 1, 5} {
		rho := Decohere(BellState(PhiPlus), 0, 2, dt, 0, t2)
		want := (1 + math.Exp(-dt/t2)) / 2
		if got := Fidelity(rho, PhiPlus); math.Abs(got-want) > 1e-9 {
			t.Errorf("dephasing t=%v: F=%v, want %v", dt, got, want)
		}
	}
}

func TestDecohereBothMechanisms(t *testing.T) {
	rho := BellState(PhiPlus)
	// T1-only decay must also reduce fidelity (relaxation towards |00>).
	r1 := Decohere(rho, 0, 2, 1.0, 1.0, 0)
	if f := Fidelity(r1, PhiPlus); f >= 1 || f < 0.5 {
		t.Errorf("T1 decay fidelity = %v", f)
	}
	// Infinite lifetimes: no change.
	r2 := Decohere(rho, 0, 2, 1.0, 0, 0)
	if !linalg.ApproxEqual(r2, rho, tol) {
		t.Error("decoherence with no lifetimes changed the state")
	}
	// Decohering both qubits of the pair compounds.
	r3 := Decohere(Decohere(rho, 0, 2, 0.5, 0, 1), 1, 2, 0.5, 0, 1)
	f3 := Fidelity(r3, PhiPlus)
	fSingle := Fidelity(Decohere(rho, 0, 2, 0.5, 0, 1), PhiPlus)
	if f3 >= fSingle {
		t.Errorf("two-sided decoherence (%v) not worse than one-sided (%v)", f3, fSingle)
	}
}

func TestDecoherenceProbabilities(t *testing.T) {
	g, p := DecoherenceProbabilities(0, 1, 1)
	if g != 0 || p != 0 {
		t.Error("t=0 must not decay")
	}
	g, p = DecoherenceProbabilities(1, 0, 1)
	if g != 0 || p <= 0 {
		t.Errorf("T1=∞: gamma=%v p=%v", g, p)
	}
	// T2* = 2·T1 means pure dephasing is exactly zero.
	_, p = DecoherenceProbabilities(1, 1, 2)
	if p != 0 {
		t.Errorf("T2*=2T1 should have zero pure dephasing, got %v", p)
	}
	// Long times saturate.
	g, p = DecoherenceProbabilities(1e6, 1, 0.1)
	if math.Abs(g-1) > 1e-9 || math.Abs(p-0.5) > 1e-9 {
		t.Errorf("saturation: gamma=%v p=%v", g, p)
	}
}

func TestDepolarizingFixedPoint(t *testing.T) {
	// The maximally mixed state is a fixed point of depolarising noise.
	mixed := linalg.Scale(0.25, linalg.Identity(4))
	out := Depolarizing2(0.7).Apply(mixed, 0, 2)
	if !linalg.ApproxEqual(out, mixed, 1e-9) {
		t.Error("depolarising moved the maximally mixed state")
	}
	// Full two-qubit depolarising sends anything to maximally mixed.
	out = Depolarizing2(1).Apply(BellState(PhiPlus), 0, 2)
	if !linalg.ApproxEqual(out, mixed, 1e-9) {
		t.Error("p=1 depolarising did not fully mix")
	}
}

func TestNoisyGates(t *testing.T) {
	// A perfect noisy gate is just the gate.
	rho := BellState(PhiPlus)
	if !linalg.ApproxEqual(NoisyGate2(rho, CNOT, 0, 2, 1), ApplyGate2(rho, CNOT, 0, 2), tol) {
		t.Error("NoisyGate2 with f=1 differs from perfect gate")
	}
	if !linalg.ApproxEqual(NoisyGate1(rho, H, 0, 2, 1), ApplyGate1(rho, H, 0, 2), tol) {
		t.Error("NoisyGate1 with f=1 differs from perfect gate")
	}
	// Imperfect gates reduce Bell fidelity.
	out := NoisyGate2(rho, linalg.Identity(4), 0, 2, 0.99)
	if f := Fidelity(out, PhiPlus); f >= 1 || f < 0.98 {
		t.Errorf("0.99-fidelity identity gate gives F=%v", f)
	}
}

func TestRotationGatesUnitary(t *testing.T) {
	for _, th := range []float64{0, 0.3, math.Pi / 2, math.Pi, 2.5} {
		for name, g := range map[string]*linalg.Matrix{"Rx": Rx(th), "Ry": Ry(th), "Rz": Rz(th)} {
			if !linalg.IsUnitary(g, tol) {
				t.Errorf("%s(%v) not unitary", name, th)
			}
		}
	}
	// Rx(π) = −iX up to phase: conjugation equals X conjugation.
	rho := randDensity(rand.New(rand.NewSource(2)), 2)
	a := ApplyGate1(rho, Rx(math.Pi), 0, 1)
	b := ApplyGate1(rho, X, 0, 1)
	if !linalg.ApproxEqual(a, b, 1e-9) {
		t.Error("Rx(π) does not act like X")
	}
}

func TestStandardGatesUnitary(t *testing.T) {
	for name, g := range map[string]*linalg.Matrix{
		"X": X, "Y": Y, "Z": Z, "H": H, "S": S, "SDagger": SDagger, "T": T,
		"CNOT": CNOT, "CZ": CZ, "SWAP": SWAP,
	} {
		if !linalg.IsUnitary(g, tol) {
			t.Errorf("%s not unitary", name)
		}
	}
	// H|0> = |+>, CNOT on |+0> gives Φ+.
	zero := linalg.ColumnVector(1, 0, 0, 0)
	rho := linalg.OuterProduct(zero, zero)
	rho = ApplyGate1(rho, H, 0, 2)
	rho = ApplyGate2(rho, CNOT, 0, 2)
	if f := Fidelity(rho, PhiPlus); math.Abs(f-1) > tol {
		t.Errorf("H+CNOT Bell prep fidelity = %v", f)
	}
}

func TestLiftPlacement(t *testing.T) {
	// X on qubit 1 of 3 maps |000> to |010>.
	v := linalg.New(8, 1)
	v.Data[0] = 1
	rho := linalg.OuterProduct(v, v)
	out := ApplyGate1(rho, X, 1, 3)
	if got := real(out.At(2, 2)); math.Abs(got-1) > tol {
		t.Errorf("X on middle qubit: population at |010> = %v", got)
	}
	// CNOT on (1,2) of 3 qubits: |010> → |011>.
	out = ApplyGate2(out, CNOT, 1, 3)
	if got := real(out.At(3, 3)); math.Abs(got-1) > tol {
		t.Errorf("CNOT on (1,2): population at |011> = %v", got)
	}
}

// Property: channels keep eigen-structure sane — output diagonal entries in
// computational basis stay in [0,1] and sum to 1 for random inputs.
func TestQuickChannelValidity(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := float64(pRaw) / 255
		rho := randDensity(rng, 4)
		for _, k := range []Kraus{AmplitudeDamping(p), PhaseFlip(p), Depolarizing1(p)} {
			out := k.Apply(rho, rng.Intn(2), 2)
			var sum float64
			for i := 0; i < 4; i++ {
				d := real(out.At(i, i))
				if d < -1e-9 || d > 1+1e-9 {
					return false
				}
				sum += d
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}
