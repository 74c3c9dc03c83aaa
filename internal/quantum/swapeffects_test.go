package quantum

import (
	"math/rand"
	"testing"

	"qnp/internal/linalg"
)

// swapEffectsTol bounds how far the contracted swap's state may drift from
// SwapW's. The two sum the same terms in a different order, so they agree
// to a few ULP, not bit for bit.
const swapEffectsTol = 1e-12

// swapInput draws one pair state: a random density matrix, or a Werner
// state around a random Bell state.
func swapInput(r *rand.Rand, werner bool) *linalg.Matrix {
	if werner {
		return WernerFor(r.Float64(), BellIndex(r.Intn(4)))
	}
	return randDensity(r, 4)
}

// pickUnit returns 0, 1 or a uniform draw, by sel.
func pickUnit(r *rand.Rand, sel uint8) float64 {
	switch sel % 3 {
	case 0:
		return 0
	case 1:
		return 1
	}
	return r.Float64()
}

// referenceSwap orients the pairs with the SWAP gate, as the device did
// before the contraction folded the exchange in, and runs SwapW.
func referenceSwap(rhoAB *linalg.Matrix, sideAB int, rhoBC *linalg.Matrix, sideBC int, cfg SwapConfig, rng *rand.Rand) SwapResult {
	if sideAB == 0 {
		rhoAB = ApplyGate2(rhoAB, SWAP, 0, 2)
	}
	if sideBC == 1 {
		rhoBC = ApplyGate2(rhoBC, SWAP, 0, 2)
	}
	return SwapW(nil, rhoAB, rhoBC, cfg, rng)
}

// FuzzSwapEffects pins the contracted swap to the SwapW circuit: the same
// announced outcome, the same RNG consumption, and a state within
// swapEffectsTol max-abs. Inputs are random or Werner pair states in
// either orientation; gate fidelities and readout fidelities are each 0, 1
// or random. Several swaps run back to back on one stream, so a single
// divergent draw shows in every later outcome.
func FuzzSwapEffects(f *testing.F) {
	for sel := uint16(0); sel < 3*3*3*3*4; sel += 7 {
		f.Add(int64(sel)*131+1, sel, uint8(sel%4))
	}
	f.Fuzz(func(t *testing.T, seed int64, sel uint16, kinds uint8) {
		r := rand.New(rand.NewSource(seed))
		cfg := SwapConfig{
			TwoQubitFidelity:    pickUnit(r, uint8(sel)),
			SingleQubitFidelity: pickUnit(r, uint8(sel/3)),
			Readout:             Readout{F0: pickUnit(r, uint8(sel/9)), F1: pickUnit(r, uint8(sel/27))},
		}
		fx := NewSwapEffects(cfg)
		drawSeed := r.Int63()
		want := rand.New(rand.NewSource(drawSeed))
		got := rand.New(rand.NewSource(drawSeed))
		ws := linalg.NewWorkspace()
		for i := 0; i < 8; i++ {
			rhoAB, rhoBC := swapInput(r, kinds&1 != 0), swapInput(r, kinds&2 != 0)
			origAB, origBC := rhoAB.Clone(), rhoBC.Clone()
			sideAB, sideBC := r.Intn(2), r.Intn(2)
			ref := referenceSwap(rhoAB, sideAB, rhoBC, sideBC, cfg, want)
			res := fx.Swap(ws, rhoAB, sideAB, rhoBC, sideBC, got)
			if res.Outcome != ref.Outcome {
				t.Fatalf("swap %d (cfg %+v, sides %d/%d): outcome %v, SwapW %v", i, cfg, sideAB, sideBC, res.Outcome, ref.Outcome)
			}
			if d := linalg.MaxAbsDiff(res.Rho, ref.Rho); d > swapEffectsTol {
				t.Fatalf("swap %d (cfg %+v, sides %d/%d): state differs from SwapW by %g", i, cfg, sideAB, sideBC, d)
			}
			if !bitEqual(rhoAB, origAB) || !bitEqual(rhoBC, origBC) {
				t.Fatalf("swap %d modified its inputs", i)
			}
			ws.Put(res.Rho)
		}
		if got.Int63() != want.Int63() {
			t.Fatal("RNG streams diverged")
		}
	})
}

func TestSwapEffectsRejectsBadInput(t *testing.T) {
	fx := NewSwapEffects(PerfectSwap)
	rng := rand.New(rand.NewSource(1))
	pair := BellState(PhiPlus)
	for name, fn := range map[string]func(){
		"8×8 state": func() { fx.Swap(nil, linalg.Identity(8), 1, pair, 0, rng) },
		"side 2":    func() { fx.Swap(nil, pair, 2, pair, 0, rng) },
		"side -1":   func() { fx.Swap(nil, pair, 1, pair, -1, rng) },
	} {
		if !mustPanic(fn) {
			t.Errorf("%s did not panic", name)
		}
	}
}
