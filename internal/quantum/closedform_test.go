package quantum

import (
	"math"
	"math/rand"
	"testing"

	"qnp/internal/linalg"
)

// closedFormTol bounds how far a closed-form channel may drift from its
// Kraus sum, and how far either may move the trace. The two round in a
// different order, so they agree to a few ULP, not bit for bit.
const closedFormTol = 1e-12

// closedFormCase pairs one closed-form channel with the Kraus sum it
// replaces, on q adjacent qubits. Both take u ∈ [0, 1]: the channel's
// probability, or for DecohereW the idle time (see decoherenceParams).
type closedFormCase struct {
	name   string
	q      int
	closed func(ws *linalg.Workspace, rho *linalg.Matrix, u float64, target, n int) *linalg.Matrix
	kraus  func(rho *linalg.Matrix, u float64, target, n int) *linalg.Matrix
}

// decoherenceParams turns u into an idle time and lifetimes covering both
// mechanisms alone, together, and T2* ≥ 2·T1 (no pure dephasing).
func decoherenceParams(u float64) (t, t1, t2 float64) {
	switch int(u*1e6) % 4 {
	case 0:
		return u, 0.3, 0.2
	case 1:
		return u, 0, 0.5
	case 2:
		return u, 0.4, 0
	default:
		return u, 0.1, 0.3
	}
}

func closedFormCases() []closedFormCase {
	return []closedFormCase{
		{name: "Depolarizing1", q: 1,
			closed: ApplyDepolarizing1W,
			kraus: func(rho *linalg.Matrix, p float64, target, n int) *linalg.Matrix {
				return Depolarizing1(p).Apply(rho, target, n)
			}},
		{name: "Depolarizing2", q: 2,
			closed: func(ws *linalg.Workspace, rho *linalg.Matrix, p float64, target, n int) *linalg.Matrix {
				return applyDepolarizingW(ws, rho, p, target, n, 2)
			},
			kraus: func(rho *linalg.Matrix, p float64, target, n int) *linalg.Matrix {
				return Depolarizing2(p).Apply(rho, target, n)
			}},
		{name: "AmplitudeDamping", q: 1,
			closed: func(ws *linalg.Workspace, rho *linalg.Matrix, gamma float64, target, n int) *linalg.Matrix {
				return decayW(ws, rho, gamma, 0, target, n)
			},
			kraus: func(rho *linalg.Matrix, gamma float64, target, n int) *linalg.Matrix {
				return AmplitudeDamping(gamma).Apply(rho, target, n)
			}},
		{name: "PhaseFlip", q: 1,
			closed: ApplyPhaseFlipW,
			kraus: func(rho *linalg.Matrix, p float64, target, n int) *linalg.Matrix {
				return PhaseFlip(p).Apply(rho, target, n)
			}},
		{name: "DecohereW", q: 1,
			closed: func(ws *linalg.Workspace, rho *linalg.Matrix, u float64, target, n int) *linalg.Matrix {
				t, t1, t2 := decoherenceParams(u)
				return DecohereW(ws, rho, target, n, t, t1, t2)
			},
			kraus: func(rho *linalg.Matrix, u float64, target, n int) *linalg.Matrix {
				gamma, pflip := DecoherenceProbabilities(decoherenceParams(u))
				return PhaseFlip(pflip).Apply(AmplitudeDamping(gamma).Apply(rho, target, n), target, n)
			}},
	}
}

// FuzzClosedFormChannels pins every closed-form channel to the Kraus sum
// it replaced, on random density matrices of 1–4 qubits at every target,
// with the probability at 0, at 1 and in between: within closedFormTol
// max-abs, with the trace preserved within closedFormTol. Out-of-range
// targets must panic, as they do for the Kraus path.
func FuzzClosedFormChannels(f *testing.F) {
	cases := closedFormCases()
	for i := range cases {
		for n := uint8(1); n <= 4; n++ {
			for target := uint8(0); target <= n+1; target++ {
				for sel := uint8(0); sel < 3; sel++ {
					f.Add(int64(i)*97+int64(n)*7+int64(target), uint8(i), n, target, sel)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, caseIdx, nRaw, targetRaw, sel uint8) {
		c := cases[int(caseIdx)%len(cases)]
		n := 1 + int(nRaw)%4
		target := int(targetRaw)%(n+2) - 1 // -1..n: out of range at both ends
		rng := rand.New(rand.NewSource(seed))
		rho := randDensity(rng, 1<<n)
		u := rng.Float64()
		switch sel % 3 {
		case 0:
			u = 0
		case 1:
			u = 1
		}
		if target < 0 || target+c.q > n {
			if !mustPanic(func() { c.closed(nil, rho, u, target, n) }) {
				t.Fatalf("%s on target %d of %d qubits did not panic", c.name, target, n)
			}
			return
		}
		orig := rho.Clone()
		got := c.closed(linalg.NewWorkspace(), rho, u, target, n)
		want := c.kraus(rho, u, target, n)
		if !bitEqual(rho, orig) {
			t.Fatalf("%s modified its input", c.name)
		}
		if d := linalg.MaxAbsDiff(got, want); d > closedFormTol {
			t.Fatalf("%s(%v) on target %d of %d qubits differs from the Kraus sum by %g",
				c.name, u, target, n, d)
		}
		if d := math.Abs(real(linalg.Trace(got)) - real(linalg.Trace(rho))); d > closedFormTol {
			t.Fatalf("%s(%v) on target %d of %d qubits moved the trace by %g", c.name, u, target, n, d)
		}
	})
}
