package quantum

import (
	"math"

	"qnp/internal/linalg"
)

// Kraus is a completely-positive trace-preserving map given by its Kraus
// operators: ρ → Σ K ρ K†.
type Kraus []*linalg.Matrix

// Apply applies the channel to the qubits starting at target of an n-qubit
// density matrix: one qubit for 2×2 Kraus operators, the adjacent pair
// (target, target+1) for 4×4 ones.
func (k Kraus) Apply(rho *linalg.Matrix, target, n int) *linalg.Matrix {
	return k.ApplyW(nil, rho, target, n)
}

// ApplyW is the workspace-threaded Apply: temporaries come from ws and the
// result is a fresh ws matrix owned by the caller. ρ is untouched. A nil ws
// falls back to plain allocation. It accumulates Σ K ρ K† one local
// conjugation per operator, in operator order.
func (k Kraus) ApplyW(ws *linalg.Workspace, rho *linalg.Matrix, target, n int) *linalg.Matrix {
	out := ws.Get(rho.Rows, rho.Cols)
	tmp := ws.GetRaw(rho.Rows, rho.Cols)
	c := ws.GetRaw(rho.Rows, rho.Cols)
	for _, op := range k {
		out.AddInPlace(conjugateLocalInto(c, tmp, op, rho, target, n))
	}
	ws.Put(tmp)
	ws.Put(c)
	return out
}

// applyDepolarizingW applies the depolarising channel with probability p
// to the qubits = 1 or 2 adjacent qubits starting at target, in closed
// form: (1−p)ρ + p·(I/d ⊗ Tr_q ρ) with d = 2^qubits, the identity and the
// partial trace both on those qubits. In (l, a, r) indices (see
// localShape) the second term adds (p/d)·Σ_b ρ[(l,b,r),(l′,b,r′)] to every
// entry with a = a′, so each reduced entry is summed once and spread over
// the d local diagonals. The result is a fresh ws matrix owned by the
// caller; ρ is untouched. It agrees with Depolarizing1/2(p).Apply to
// within 1e-12 max-abs.
func applyDepolarizingW(ws *linalg.Workspace, rho *linalg.Matrix, p float64, target, n, qubits int) *linalg.Matrix {
	p = clamp01(p)
	dim, stride := localShape(rho, target, qubits, n)
	d := 1 << qubits
	out := ws.GetRaw(dim, dim)
	for i, x := range rho.Data {
		out.Data[i] = scale(1-p, x)
	}
	mix := p / float64(d)
	local := (d - 1) * stride // bits of the local index a
	for i := 0; i < dim; i++ {
		if i&local != 0 {
			continue // rows (l, 0, r) only
		}
		for j := 0; j < dim; j++ {
			if j&local != 0 {
				continue
			}
			var s complex128
			for b := 0; b < d*stride; b += stride {
				s += rho.Data[(i+b)*dim+j+b]
			}
			s = scale(mix, s)
			for a := 0; a < d*stride; a += stride {
				out.Data[(i+a)*dim+j+a] += s
			}
		}
	}
	return out
}

// decayW applies amplitude damping with decay probability gamma and then
// dephasing with flip probability pflip to qubit target, in one entrywise
// pass. Split into blocks by the target bit of the row and column index,
// the |0⟩⟨0| block gains γ times the |1⟩⟨1| block, the |1⟩⟨1| block
// scales by 1−γ, and the off-diagonal blocks scale by √(1−γ)·(1−2·pflip).
// The result is a fresh ws matrix owned by the caller; ρ is untouched. It
// agrees with applying AmplitudeDamping(gamma) and then PhaseFlip(pflip)
// as Kraus sums to within 1e-12 max-abs.
func decayW(ws *linalg.Workspace, rho *linalg.Matrix, gamma, pflip float64, target, n int) *linalg.Matrix {
	dim, mask := localShape(rho, target, 1, n)
	out := ws.GetRaw(dim, dim)
	off := math.Sqrt(1-gamma) * (1 - 2*pflip)
	for i := 0; i < dim; i++ {
		row, orow := rho.Data[i*dim:(i+1)*dim], out.Data[i*dim:(i+1)*dim]
		if i&mask != 0 {
			for j, x := range row {
				if j&mask != 0 {
					orow[j] = scale(1-gamma, x)
				} else {
					orow[j] = scale(off, x)
				}
			}
			continue
		}
		k := i | mask // the |1⟩ row this |0⟩ row gains from
		decayed := rho.Data[k*dim : (k+1)*dim]
		for j, x := range row {
			if j&mask != 0 {
				orow[j] = scale(off, x)
			} else {
				orow[j] = x + scale(gamma, decayed[j|mask])
			}
		}
	}
	return out
}

// scale returns f·x for a real f, without the complex product's cross
// terms.
func scale(f float64, x complex128) complex128 {
	return complex(f*real(x), f*imag(x))
}

// depolarizing returns the Kraus operators of the depolarising channel
// ρ → (1−p)ρ + p·I/d on qubits = 1 or 2 qubits (d = 2^qubits):
// √(1 − (d²−1)p/d²)·I, then √(p/d²)·Pᵢ for each non-identity Pauli string
// in lexicographic order.
func depolarizing(p float64, qubits int) Kraus {
	p = clamp01(p)
	d := 1 << qubits
	m := float64(d * d)
	ops := make(Kraus, d*d)
	for i := range ops {
		w := p / m
		if i == 0 {
			w = 1 - (m-1)*p/m
		}
		var pauli *linalg.Matrix
		if qubits == 1 {
			pauli = Pauli(i)
		} else {
			pauli = linalg.Kron(Pauli(i/4), Pauli(i%4))
		}
		ops[i] = linalg.Scale(complex(math.Sqrt(w), 0), pauli)
	}
	return ops
}

// IsTracePreserving reports whether Σ K†K = I within tol.
func (k Kraus) IsTracePreserving(tol float64) bool {
	if len(k) == 0 {
		return false
	}
	n := k[0].Rows
	sum := linalg.New(n, n)
	for _, op := range k {
		sum.AddInPlace(linalg.Mul(linalg.Adjoint(op), op))
	}
	return linalg.ApproxEqual(sum, linalg.Identity(n), tol)
}

// AmplitudeDamping returns the T1 relaxation channel with decay probability
// γ = 1 − exp(−t/T1).
func AmplitudeDamping(gamma float64) Kraus {
	gamma = clamp01(gamma)
	k0 := linalg.FromRows([][]complex128{{1, 0}, {0, complex(math.Sqrt(1-gamma), 0)}})
	k1 := linalg.FromRows([][]complex128{{0, complex(math.Sqrt(gamma), 0)}, {0, 0}})
	return Kraus{k0, k1}
}

// PhaseFlip returns the dephasing channel that applies Z with probability p.
func PhaseFlip(p float64) Kraus {
	p = clamp01(p)
	return Kraus{
		linalg.Scale(complex(math.Sqrt(1-p), 0), I2),
		linalg.Scale(complex(math.Sqrt(p), 0), Z),
	}
}

// BitFlip returns the channel that applies X with probability p.
func BitFlip(p float64) Kraus {
	p = clamp01(p)
	return Kraus{
		linalg.Scale(complex(math.Sqrt(1-p), 0), I2),
		linalg.Scale(complex(math.Sqrt(p), 0), X),
	}
}

// Depolarizing1 returns the single-qubit depolarising channel
// ρ → (1−p)ρ + p·I/2.
func Depolarizing1(p float64) Kraus {
	return depolarizing(p, 1)
}

// Depolarizing2 returns the two-qubit depolarising channel
// ρ → (1−p)ρ + p·I/4, expressed over the 16 two-qubit Paulis.
func Depolarizing2(p float64) Kraus {
	return depolarizing(p, 2)
}

// DecoherenceProbabilities converts an idle time into (γ, p) for amplitude
// damping and phase flip given T1 and T2* (both in the same unit as t; pass
// seconds). The pure-dephasing rate is 1/T2* − 1/(2T1); if T2* ≥ 2T1 the
// dephasing contribution is zero. Non-positive lifetimes mean "no decay of
// that kind".
func DecoherenceProbabilities(t, t1, t2star float64) (gamma, pflip float64) {
	if t <= 0 {
		return 0, 0
	}
	if t1 > 0 {
		gamma = 1 - math.Exp(-t/t1)
	}
	if t2star > 0 {
		rate := 1 / t2star
		if t1 > 0 {
			rate -= 1 / (2 * t1)
		}
		if rate > 0 {
			pflip = (1 - math.Exp(-t*rate)) / 2
		}
	}
	return gamma, pflip
}

// Decohere evolves qubit target of an n-qubit ρ under T1 amplitude damping
// and T2* dephasing for t seconds. It is the lazy-decoherence primitive: the
// device calls it whenever a qubit is touched after sitting idle.
func Decohere(rho *linalg.Matrix, target, n int, t, t1, t2star float64) *linalg.Matrix {
	return DecohereW(nil, rho, target, n, t, t1, t2star)
}

// DecohereW is the workspace-threaded Decohere, applied in closed form by
// one entrywise pass (see decayW). When no decay applies it returns rho
// itself; otherwise the result is a fresh ws matrix owned by the caller and
// rho is untouched. It agrees with the Kraus sums of AmplitudeDamping and
// PhaseFlip to within 1e-12 max-abs.
func DecohereW(ws *linalg.Workspace, rho *linalg.Matrix, target, n int, t, t1, t2star float64) *linalg.Matrix {
	gamma, pflip := DecoherenceProbabilities(t, t1, t2star)
	if gamma == 0 && pflip == 0 {
		localShape(rho, target, 1, n) // a bad target panics either way
		return rho
	}
	return decayW(ws, rho, gamma, pflip, target, n)
}

// NoisyGate2 applies a two-qubit unitary to adjacent qubits (target,
// target+1) followed by two-qubit depolarising noise parameterised by the
// gate fidelity: p = 1 − f. A fidelity of 1 reduces to the perfect gate.
// This is the standard NetSquid-style gate noise model the paper's hardware
// tables (Table 1) parameterise.
func NoisyGate2(rho, gate *linalg.Matrix, target, n int, fidelity float64) *linalg.Matrix {
	return NoisyGate2W(nil, rho, gate, target, n, fidelity)
}

// NoisyGate2W is the workspace-threaded NoisyGate2. Result: fresh ws matrix
// owned by the caller; ρ untouched.
func NoisyGate2W(ws *linalg.Workspace, rho, gate *linalg.Matrix, target, n int, fidelity float64) *linalg.Matrix {
	out := ApplyGate2W(ws, rho, gate, target, n)
	if fidelity < 1 {
		next := applyDepolarizingW(ws, out, 1-fidelity, target, n, 2)
		ws.Put(out)
		out = next
	}
	return out
}

// NoisyGate1 applies a single-qubit unitary followed by single-qubit
// depolarising noise with p = 1 − f.
func NoisyGate1(rho, gate *linalg.Matrix, target, n int, fidelity float64) *linalg.Matrix {
	return NoisyGate1W(nil, rho, gate, target, n, fidelity)
}

// NoisyGate1W is the workspace-threaded NoisyGate1; see NoisyGate2W.
func NoisyGate1W(ws *linalg.Workspace, rho, gate *linalg.Matrix, target, n int, fidelity float64) *linalg.Matrix {
	out := ApplyGate1W(ws, rho, gate, target, n)
	if fidelity < 1 {
		next := applyDepolarizingW(ws, out, 1-fidelity, target, n, 1)
		ws.Put(out)
		out = next
	}
	return out
}

// ApplyDepolarizing1W applies the single-qubit depolarising channel with
// probability p to qubit target of ρ, in closed form (see
// applyDepolarizingW). Result: fresh ws matrix owned by the caller; ρ
// untouched. Agrees with Depolarizing1(p).Apply(rho, target, n) to within
// 1e-12 max-abs.
func ApplyDepolarizing1W(ws *linalg.Workspace, rho *linalg.Matrix, p float64, target, n int) *linalg.Matrix {
	return applyDepolarizingW(ws, rho, p, target, n, 1)
}

// ApplyPhaseFlipW applies the dephasing channel with probability p to qubit
// target of ρ in closed form: entries off-diagonal in the target bit scale
// by 1−2p, the rest are unchanged. Result: fresh ws matrix owned by the
// caller; ρ untouched. Agrees with PhaseFlip(p).Apply(rho, target, n) to
// within 1e-12 max-abs.
func ApplyPhaseFlipW(ws *linalg.Workspace, rho *linalg.Matrix, p float64, target, n int) *linalg.Matrix {
	return decayW(ws, rho, 0, clamp01(p), target, n)
}

func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
