package quantum

import (
	"math/rand"

	"qnp/internal/linalg"
)

// SwapEffects is the entanglement swap of a SwapConfig, precomputed. Every
// step of the Bell-state measurement circuit — the noisy CNOT(b1→b2), the
// noisy H(b1) and the two Z projections — acts only on the two measured
// qubits b1 and b2. So each true outcome (z, x) has a Heisenberg-picture
// effect M_zx = Φ†(Π_zx), a 4×4 operator on (b1, b2), where Φ is the noisy
// CNOT-then-H channel and Π_zx projects b1 onto z and b2 onto x. The
// outcome's probability is Tr[M_zx (ρ_b1 ⊗ ρ_b2)] over the two reduced
// one-qubit states, and its unnormalised post-state is
// Tr_b[(I⊗M_zx⊗I)(ρ_AB⊗ρ_BC)], a contraction of the two pair states that
// never forms the 16×16 joint state.
//
// A SwapEffects is read-only after NewSwapEffects and safe to share.
type SwapEffects struct {
	// m[z<<1|x] is M_zx, row-major over the (b1, b2) basis
	// |00>,|01>,|10>,|11>.
	m       [4][16]complex128
	readout Readout
}

// NewSwapEffects builds the four effects of cfg's Bell-state measurement by
// running the noisy CNOT and H kernels on the 16 basis operators |i⟩⟨j| of
// (b1, b2): Tr[Π_zx Φ(|i⟩⟨j|)] = ⟨j|M_zx|i⟩. The intermediate matrices
// cycle through one local workspace, so a build costs a handful of
// allocations rather than a few per basis operator.
func NewSwapEffects(cfg SwapConfig) *SwapEffects {
	e := &SwapEffects{readout: cfg.Readout}
	ws := linalg.NewWorkspace()
	basis := ws.GetRaw(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			basis.Zero()
			basis.Set(i, j, 1)
			gated := NoisyGate2W(ws, basis, CNOT, 0, 2, cfg.TwoQubitFidelity)
			out := NoisyGate1W(ws, gated, H, 0, 2, cfg.SingleQubitFidelity)
			for k := range e.m {
				e.m[k][j*4+i] = out.At(k, k)
			}
			ws.Put(gated)
			ws.Put(out)
		}
	}
	ws.Put(basis)
	return e
}

// Swap performs the entanglement swap SwapW performs, with the same RNG
// draws (true z, z readout, true x, x readout), the same [0,1] clamps on
// the outcome probabilities and the same normalisation guards, and returns
// the same outcome and a state that agrees with SwapW's to within 1e-12
// max-abs. It costs two 2×2 reductions, three 16-term outcome weights and
// a two-stage 128-multiply contraction, with no joint state.
//
// sideAB is the index (0 or 1) of the measured qubit b1 within rhoAB, and
// sideBC that of b2 within rhoBC; SwapW's order is sideAB = 1, sideBC = 0.
// The surviving pair keeps rhoAB's remote qubit first. The result is a
// fresh ws matrix owned by the caller; the inputs are untouched.
func (e *SwapEffects) Swap(ws *linalg.Workspace, rhoAB *linalg.Matrix, sideAB int, rhoBC *linalg.Matrix, sideBC int, rng *rand.Rand) SwapResult {
	if rhoAB.Rows != 4 || rhoAB.Cols != 4 || rhoBC.Rows != 4 || rhoBC.Cols != 4 {
		panic("quantum: Swap needs 4×4 pair states")
	}
	if sideAB&^1 != 0 || sideBC&^1 != 0 {
		panic("quantum: Swap side must be 0 or 1")
	}
	// x is ρ_AB over (A, b1) and y is ρ_BC over (b2, C): a pair stored the
	// other way round is read through the qubit exchange.
	x := orientPair(rhoAB, sideAB == 0)
	y := orientPair(rhoBC, sideBC == 1)

	// The reduced states of the measured qubits: r1 = Tr_A ρ_AB and
	// r2 = Tr_C ρ_BC, row-major 2×2.
	var r1, r2 [4]complex128
	for b := 0; b < 2; b++ {
		for bp := 0; bp < 2; bp++ {
			r1[b*2+bp] = x[b*4+bp] + x[(2+b)*4+2+bp]
			r2[b*2+bp] = y[2*b*4+2*bp] + y[(2*b+1)*4+2*bp+1]
		}
	}
	// First readout, b1 (the phase bit), as MeasureW draws it.
	p0 := clamp01(e.weight(0, &r1, &r2) + e.weight(1, &r1, &r2))
	z, pz := 1, 1-p0
	if rng.Float64() < p0 {
		z, pz = 0, p0
	}
	zbit := e.report(z, rng)
	// Second readout, b2 (the flip bit), on the collapsed state.
	px0 := e.weight(z<<1, &r1, &r2)
	if pz > 1e-15 {
		px0 *= 1 / pz
	}
	px0 = clamp01(px0)
	xb, px := 1, 1-px0
	if rng.Float64() < px0 {
		xb, px = 0, px0
	}
	xbit := e.report(xb, rng)

	m := &e.m[z<<1|xb]
	// Stage 1, sum over b1: t[a,a',b2,b2'] = Σ M[(b1,b2),(b1',b2')]·x[(a,b1'),(a',b1)].
	var t [16]complex128
	for a := 0; a < 2; a++ {
		for ap := 0; ap < 2; ap++ {
			for b2 := 0; b2 < 2; b2++ {
				for b2p := 0; b2p < 2; b2p++ {
					var s complex128
					for b1 := 0; b1 < 2; b1++ {
						for b1p := 0; b1p < 2; b1p++ {
							s += m[(b1*2+b2)*4+b1p*2+b2p] * x[(a*2+b1p)*4+ap*2+b1]
						}
					}
					t[((a*2+ap)*2+b2)*2+b2p] = s
				}
			}
		}
	}
	// Stage 2, sum over b2: ρ_AC[(a,c),(a',c')] = Σ t[a,a',b2,b2']·y[(b2',c),(b2,c')].
	rhoAC := ws.GetRaw(4, 4)
	fz, fx := 1.0, 1.0
	if pz > 1e-15 {
		fz = 1 / pz
	}
	if px > 1e-15 {
		fx = 1 / px
	}
	for a := 0; a < 2; a++ {
		for c := 0; c < 2; c++ {
			for ap := 0; ap < 2; ap++ {
				for cp := 0; cp < 2; cp++ {
					var s complex128
					for b2 := 0; b2 < 2; b2++ {
						for b2p := 0; b2p < 2; b2p++ {
							s += t[((a*2+ap)*2+b2)*2+b2p] * y[(b2p*2+c)*4+b2*2+cp]
						}
					}
					// Normalised per readout, as SwapW's two collapses are.
					rhoAC.Data[(a*2+c)*4+ap*2+cp] = scale(fx, scale(fz, s))
				}
			}
		}
	}
	return SwapResult{Rho: rhoAC, Outcome: BellIndex(uint8(xbit) | uint8(zbit)<<1)}
}

// weight returns Tr[M_k (r1 ⊗ r2)] = Σ M_k[(b1,b2),(b1',b2')]·r1[b1',b1]·r2[b2',b2],
// the unnormalised probability of true outcome k.
func (e *SwapEffects) weight(k int, r1, r2 *[4]complex128) float64 {
	m := &e.m[k]
	var s complex128
	for b1 := 0; b1 < 2; b1++ {
		for b2 := 0; b2 < 2; b2++ {
			for b1p := 0; b1p < 2; b1p++ {
				for b2p := 0; b2p < 2; b2p++ {
					s += m[(b1*2+b2)*4+b1p*2+b2p] * r1[b1p*2+b1] * r2[b2p*2+b2]
				}
			}
		}
	}
	return real(s)
}

// report draws the readout of a true bit exactly as MeasureW does.
func (e *SwapEffects) report(truth int, rng *rand.Rand) int {
	if truth == 0 {
		if rng.Float64() > e.readout.F0 {
			return 1
		}
		return 0
	}
	if rng.Float64() > e.readout.F1 {
		return 0
	}
	return 1
}

// orientPair copies a 4×4 pair state, exchanging its two qubits when
// exchange is set: entry ((p,q),(p',q')) of the result is ρ's
// ((q,p),(q',p')).
func orientPair(rho *linalg.Matrix, exchange bool) (out [16]complex128) {
	if !exchange {
		copy(out[:], rho.Data)
		return out
	}
	perm := [4]int{0, 2, 1, 3}
	for i, pi := range perm {
		for j, pj := range perm {
			out[i*4+j] = rho.Data[pi*4+pj]
		}
	}
	return out
}
