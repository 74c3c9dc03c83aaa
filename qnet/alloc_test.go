package qnet

import (
	"runtime"
	"testing"

	"qnp/internal/race"
	"qnp/internal/sim"
)

// steadyDumbbell is the benchmark's congested Fig. 9 point on the Werner
// engine: 3-pair KEEP requests on A0–B0 every 0.3 s while an open-ended
// KEEP saturates A1–B1 (F = 0.85, short cutoff).
func steadyDumbbell(horizon sim.Duration) Scenario {
	cfg := DefaultConfig()
	cfg.Physics = PhysicsWerner
	return Scenario{
		Name:     "dumbbell-werner",
		Config:   cfg,
		Topology: DumbbellTopo(),
		Circuits: []CircuitSpec{
			{ID: "main", Src: "A0", Dst: "B0", Fidelity: 0.85, Policy: CutoffShort, RecordFidelity: true,
				Workload: IntervalKeep{Interval: 300 * sim.Millisecond, Pairs: 3}},
			{ID: "other", Src: "A1", Dst: "B1", Fidelity: 0.85, Policy: CutoffShort, RecordFidelity: true,
				Workload: ContinuousKeep{ID: "bg"}},
		},
		Horizon: horizon,
	}
}

// steadyRun is one measured run of steadyDumbbell: heap allocations and
// bytes over the whole run (set-up included), link pairs generated and
// simulator events fired.
type steadyRun struct {
	mallocs, bytes, linkPairs, events uint64
}

func runSteadyDumbbell(tb testing.TB, horizon sim.Duration) steadyRun {
	tb.Helper()
	sc := steadyDumbbell(horizon)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := sc.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		tb.Fatal(err)
	}
	r := steadyRun{
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		events:  res.Net.Sim.Processed(),
	}
	for _, e := range res.Net.Fabric.All() {
		r.linkPairs += e.Stats().PairsDelivered
	}
	return r
}

// perLinkPair divides the allocations of the longer run in excess of the
// shorter one by the extra link pairs it generated, so set-up (topology,
// planning, circuit installation) cancels out.
func perLinkPair(short, long steadyRun) (allocs, bytes float64) {
	pairs := float64(long.linkPairs - short.linkPairs)
	return float64(long.mallocs-short.mallocs) / pairs, float64(long.bytes-short.bytes) / pairs
}

// TestAllocsWernerSteadyState gates the data plane's steady state: once a
// Werner dumbbell is running, a link pair costs little more than the
// device.Pair values handed to the protocol (events, deliveries, TRACKs,
// link rounds and intermediate slots are pooled). The bound leaves room for
// the pairs themselves and for the metrics' amortised slice growth.
func TestAllocsWernerSteadyState(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gates run with -race off")
	}
	short := runSteadyDumbbell(t, 20*sim.Second)
	long := runSteadyDumbbell(t, 40*sim.Second)
	if long.linkPairs <= short.linkPairs {
		t.Fatalf("link pairs %d (40 s) ≤ %d (20 s)", long.linkPairs, short.linkPairs)
	}
	allocs, bytes := perLinkPair(short, long)
	t.Logf("steady state: %.2f allocs and %.0f B per link pair (%d extra pairs)",
		allocs, bytes, long.linkPairs-short.linkPairs)
	if allocs > 3 {
		t.Errorf("steady-state allocations = %.2f per link pair, want ≤ 3", allocs)
	}
}

// BenchmarkWernerSteadyState reports the steady-state cost of the Werner
// dumbbell per link pair (the 20 s → 40 s difference, as in
// TestAllocsWernerSteadyState) and the event rate over both runs, set-up
// included.
func BenchmarkWernerSteadyState(b *testing.B) {
	var allocs, bytes, events float64
	for i := 0; i < b.N; i++ {
		short := runSteadyDumbbell(b, 20*sim.Second)
		long := runSteadyDumbbell(b, 40*sim.Second)
		a, by := perLinkPair(short, long)
		allocs += a
		bytes += by
		events += float64(short.events + long.events)
	}
	n := float64(b.N)
	b.ReportMetric(allocs/n, "allocs/linkpair")
	b.ReportMetric(bytes/n, "B/linkpair")
	b.ReportMetric(events/b.Elapsed().Seconds(), "events/s")
}
