package linklayer

import "testing"

// BenchmarkRegisterCycle is a head-end's per-request link-layer cost: both
// ends register a label and later deactivate it, at the three fidelities
// the evaluation asks for. After the first op every fidelity's α comes
// from the engine's memo.
func BenchmarkRegisterCycle(b *testing.B) {
	h := newHarness(1, 2)
	consume := func(Delivery) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, f := range []float64{0.8, 0.85, 0.9} {
			for _, node := range []string{"a", "b"} {
				if err := h.engine.Register(node, "vc", f, 10, consume); err != nil {
					b.Fatal(err)
				}
			}
			h.engine.Deactivate("a", "vc")
			h.engine.Deactivate("b", "vc")
		}
	}
}
