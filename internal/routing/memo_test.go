package routing_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"qnp/internal/hardware"
	"qnp/internal/routing"
	"qnp/internal/sim"
	"qnp/qnet"
)

// TestPlanMemoMatchesFreshController: a long-lived controller answers
// every probe from its plan memo exactly as a fresh controller computes
// it, on a uniform grid and on a grid whose Config.LinkLengthM makes some
// links 1–2 km long. The heterogeneous grid holds two 2-hop paths that
// share path[0]'s configuration but differ in their second link, so they
// share a memo entry today. Once the planner budgets every link on a path,
// this test fails until planKey covers every link's configuration.
func TestPlanMemoMatchesFreshController(t *testing.T) {
	het := qnet.DefaultConfig()
	het.LinkLengthM = map[string]float64{
		qnet.LinkKey("n5", "n6"):   2000,
		qnet.LinkKey("n9", "n10"):  1000,
		qnet.LinkKey("n2", "n6"):   1500,
		qnet.LinkKey("n13", "n14"): 2000,
	}
	policies := []routing.CutoffPolicy{routing.CutoffLong, routing.CutoffShort, routing.CutoffNone, routing.CutoffManual}
	for _, tc := range []struct {
		name string
		cfg  qnet.Config
	}{{"uniform", qnet.DefaultConfig()}, {"heterogeneous", het}} {
		name, net := tc.name, qnet.Grid(tc.cfg, 4, 4)
		nodes := net.Graph.Nodes()
		newController := func(p hardware.Params) *routing.Controller {
			c := routing.NewController(net.Graph, p)
			c.EnforceEER = true
			c.Policy = routing.AllocModelWeighted
			return c
		}
		long := newController(net.Config.Params)
		check := func(req routing.PlacementRequest) routing.PlacementDecision {
			t.Helper()
			req.Probe = true
			got, _, gotErr := long.Place(req)
			want, _, wantErr := newController(long.Params).Place(req)
			// Field for field and error for error.
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %+v:\n memo  %+v, %v\n fresh %+v, %v", name, req, got, gotErr, want, wantErr)
			}
			return got
		}

		// Two 2-hop paths whose first links are both 2 m lab links; on the
		// heterogeneous grid the second runs over the 2 km n5–n6 link.
		a := check(routing.PlacementRequest{Src: "n0", Dst: "n2", Fidelity: 0.85})
		b := check(routing.PlacementRequest{Src: "n4", Dst: "n6", Fidelity: 0.85})
		if !slices.Equal(a.Plan.Path, []string{"n0", "n1", "n2"}) || !slices.Equal(b.Plan.Path, []string{"n4", "n5", "n6"}) {
			t.Fatalf("%s: paths %v and %v, want n0-n1-n2 and n4-n5-n6", name, a.Plan.Path, b.Plan.Path)
		}

		// Same path, one key field changed at a time: each must miss.
		for _, req := range []routing.PlacementRequest{
			{Src: "n0", Dst: "n5", Fidelity: 0.8},
			{Src: "n0", Dst: "n5", Fidelity: 0.75},
			{Src: "n0", Dst: "n5", Fidelity: 0.8, Cutoff: routing.CutoffShort},
			{Src: "n0", Dst: "n5", Fidelity: 0.8, Cutoff: routing.CutoffManual, ManualCutoff: 10 * sim.Millisecond},
			{Src: "n0", Dst: "n5", Fidelity: 0.8, Cutoff: routing.CutoffManual, ManualCutoff: 40 * sim.Millisecond},
		} {
			check(req)
		}

		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 16; i++ {
			src, dst := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
			if src == dst {
				continue
			}
			check(routing.PlacementRequest{
				Src: src, Dst: dst,
				// 0.97 is out of reach, so infeasible results are memoised too.
				Fidelity:     []float64{0.7, 0.8, 0.85, 0.97}[rng.Intn(4)],
				Cutoff:       policies[rng.Intn(len(policies))],
				ManualCutoff: sim.Duration(1+rng.Intn(3)) * 10 * sim.Millisecond,
				K:            1 + rng.Intn(3),
			})
		}

		// Changing the exported Params must miss the memo.
		before := check(routing.PlacementRequest{Src: "n0", Dst: "n15", Fidelity: 0.8})
		long.Params.Gates.TwoQubitFidelity -= 0.002
		after := check(routing.PlacementRequest{Src: "n0", Dst: "n15", Fidelity: 0.8})
		if after.Plan.LinkFidelity == before.Plan.LinkFidelity {
			t.Fatalf("%s: changed Params reused the memoised budget %v", name, before.Plan.LinkFidelity)
		}
	}
}
