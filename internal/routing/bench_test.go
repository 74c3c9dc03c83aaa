package routing

import (
	"fmt"
	"math/rand"
	"testing"

	"qnp/internal/hardware"
)

// cityMix is the city study's circuit mix on its 10×10 grid: eight
// uniformly drawn distinct src/dst pairs, each asking for F = 0.85 under
// the short cutoff. As in the city study, the longest paths cannot reach
// the target and are rejected.
func cityMix() (*Graph, []PlacementRequest) {
	g := gridGraph(10, 10)
	rng := rand.New(rand.NewSource(1))
	var reqs []PlacementRequest
	for len(reqs) < 8 {
		src, dst := rng.Intn(100), rng.Intn(100)
		if src == dst {
			continue
		}
		reqs = append(reqs, PlacementRequest{
			Src: fmt.Sprintf("n%d", src), Dst: fmt.Sprintf("n%d", dst),
			Fidelity: 0.85, Cutoff: CutoffShort, Probe: true,
		})
	}
	return g, reqs
}

// placeAll probes every request and returns how many were feasible.
func placeAll(c *Controller, reqs []PlacementRequest) int {
	feasible := 0
	for _, req := range reqs {
		if _, _, err := c.Place(req); err == nil {
			feasible++
		}
	}
	return feasible
}

// BenchmarkPlanCold plans the city mix on a fresh controller each op, so
// every distinct hop count pays the full worst-case budget search.
func BenchmarkPlanCold(b *testing.B) {
	g, reqs := cityMix()
	b.ReportAllocs()
	feasible := 0
	for i := 0; i < b.N; i++ {
		c := NewController(g, hardware.Simulation())
		c.EnforceEER = true
		feasible = placeAll(c, reqs)
	}
	b.ReportMetric(float64(feasible), "feasible/op")
}

// BenchmarkPlaceWarm plans the city mix on one long-lived controller, as a
// city replica does: after the first op every budget comes from the plan
// memo and Place costs path search plus scoring.
func BenchmarkPlaceWarm(b *testing.B) {
	g, reqs := cityMix()
	c := NewController(g, hardware.Simulation())
	c.EnforceEER = true
	placeAll(c, reqs)
	b.ReportAllocs()
	b.ResetTimer()
	feasible := 0
	for i := 0; i < b.N; i++ {
		feasible = placeAll(c, reqs)
	}
	b.ReportMetric(float64(feasible), "feasible/op")
}

// BenchmarkShortestPathGrid is the path search alone: ShortestPath for
// every pair of the city mix on the 10×10 grid.
func BenchmarkShortestPathGrid(b *testing.B) {
	g, reqs := cityMix()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, req := range reqs {
			if _, err := g.ShortestPath(req.Src, req.Dst); err != nil {
				b.Fatal(err)
			}
		}
	}
}
