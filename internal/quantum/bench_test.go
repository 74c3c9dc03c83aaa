package quantum

import (
	"math/rand"
	"testing"

	"qnp/internal/linalg"
)

// Per-kernel benchmarks for the density-matrix hot path, each on a warm
// workspace: one noisy entanglement swap, as the SwapW circuit reference
// and as the production contraction over precomputed effects; one noisy
// two-qubit gate on the circuit's four-qubit joint state; one T1/T2
// decoherence step on a pair; and one readout of a pair qubit.

func BenchmarkSwapW(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	cfg := SwapConfig{TwoQubitFidelity: 0.98, SingleQubitFidelity: 0.99, Readout: Readout{F0: 0.95, F1: 0.95}}
	x, y := WernerState(0.95), WernerFor(0.9, PsiMinus)
	ws := warmWS(func(ws *linalg.Workspace) { ws.Put(SwapW(ws, x, y, cfg, rng).Rho) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Put(SwapW(ws, x, y, cfg, rng).Rho)
	}
}

func BenchmarkSwapEffects(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	fx := NewSwapEffects(SwapConfig{TwoQubitFidelity: 0.98, SingleQubitFidelity: 0.99, Readout: Readout{F0: 0.95, F1: 0.95}})
	x, y := WernerState(0.95), WernerFor(0.9, PsiMinus)
	ws := warmWS(func(ws *linalg.Workspace) { ws.Put(fx.Swap(ws, x, 1, y, 0, rng).Rho) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Put(fx.Swap(ws, x, 1, y, 0, rng).Rho)
	}
}

func BenchmarkNoisyGate2W(b *testing.B) {
	joint := linalg.Kron(WernerState(0.95), WernerFor(0.9, PsiMinus))
	ws := warmWS(func(ws *linalg.Workspace) { ws.Put(NoisyGate2W(ws, joint, CNOT, 1, 4, 0.98)) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Put(NoisyGate2W(ws, joint, CNOT, 1, 4, 0.98))
	}
}

func BenchmarkDecohereW(b *testing.B) {
	rho := WernerState(0.9)
	ws := warmWS(func(ws *linalg.Workspace) { ws.Put(DecohereW(ws, rho, 0, 2, 0.01, 1.0, 0.5)) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Put(DecohereW(ws, rho, 0, 2, 0.01, 1.0, 0.5))
	}
}

func BenchmarkMeasureW(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	rho := WernerState(0.9)
	ws := warmWS(func(ws *linalg.Workspace) {
		_, post := MeasureW(ws, rho, 0, 2, PerfectReadout, rng)
		ws.Put(post)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, post := MeasureW(ws, rho, 0, 2, PerfectReadout, rng)
		ws.Put(post)
	}
}
