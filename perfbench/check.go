package main

import (
	"errors"
	"fmt"

	"qnp/internal/sim"
	"qnp/internal/stats"
	"qnp/qnet"
)

// checkReplica is the output check every replica of every run passes
// through; a replica that fails it counts as failed.
//
//   - The run returned without error.
//   - Circuit accounting: every arrival is admitted, rejected at admission
//     or unplaced (no feasible plan), and the three sum to the arrivals
//     offered; Metrics.Admitted matches the established circuits.
//   - Request accounting: every finite request is completed, rejected by
//     policing, or still in flight when its circuit departed or the
//     horizon closed (PendingFinite); with the workload's open-ended
//     requests the four sum to the submissions.
//   - The mean delivered fidelity is at least targetF − fidelityTol, and
//     pairs were delivered at all.
func checkReplica(w workload, m *qnet.Metrics) error {
	if m == nil {
		return errors.New("no metrics (replica cancelled)")
	}
	if m.Err != "" {
		return fmt.Errorf("run error: %s", m.Err)
	}
	if len(m.Circuits) != w.arrivals {
		return fmt.Errorf("%d circuits recorded, want %d arrivals", len(m.Circuits), w.arrivals)
	}
	established, unplaced, rejected := 0, 0, 0
	for _, c := range m.Circuits {
		switch {
		case c.Established:
			established++
		case c.AdmissionRejected:
			rejected++
		case c.Err != "" && !c.PendingArrival:
			unplaced++
		default:
			return fmt.Errorf("circuit %s neither established, rejected nor failed", c.ID)
		}
	}
	if established != m.Admitted || rejected != m.RejectedAtAdmission {
		return fmt.Errorf("admission counters %d/%d disagree with circuit records %d/%d",
			m.Admitted, m.RejectedAtAdmission, established, rejected)
	}
	if got := m.Admitted + m.RejectedAtAdmission + unplaced; got != w.arrivals {
		return fmt.Errorf("admitted %d + rejected %d + unplaced %d = %d, want %d",
			m.Admitted, m.RejectedAtAdmission, unplaced, got, w.arrivals)
	}
	open := 0
	for _, c := range m.Circuits {
		if c.PendingFinite < 0 || c.Completed < 0 || c.Rejected < 0 {
			return fmt.Errorf("circuit %s has negative request counters", c.ID)
		}
		o := c.Submitted - c.Completed - c.Rejected - c.PendingFinite
		if o < 0 {
			return fmt.Errorf("circuit %s: completed %d + rejected %d + pending %d exceed %d submitted",
				c.ID, c.Completed, c.Rejected, c.PendingFinite, c.Submitted)
		}
		open += o
	}
	if open != w.openEnded {
		return fmt.Errorf("%d requests unaccounted for, want %d open-ended", open, w.openEnded)
	}
	if m.TotalDelivered() == 0 {
		return errors.New("no pairs delivered")
	}
	fid := m.FidelitySummary()
	if fid.N() == 0 {
		return errors.New("no delivered fidelity recorded")
	}
	if f := fid.Mean(); !(f >= targetF-fidelityTol) {
		return fmt.Errorf("mean delivered fidelity %.4f below target %.2f − %.2f", f, targetF, fidelityTol)
	}
	return nil
}

// simSummary is the simulated (deterministic per seed) outcome of one
// replica grid: the sim_* end-to-end metrics and their sample counts.
type simSummary struct {
	EER        float64 // mean over replicas of Metrics.AggregateEER
	LatP50     float64
	LatP99     float64
	LatN       int64
	Fidelity   float64
	FidelityN  int64
	AdmitFrac  float64
	Delivered  int
	Completed  int
	Replicas   int
	Admitted   int
	Arrivals   int
	PlaceCalls int // routing planning calls: one per resolved arrival
}

// summarize folds a replica grid's metrics into its simulated outcome.
// Failed replicas are skipped (they are counted by the caller).
func summarize(w workload, ms []*qnet.Metrics) simSummary {
	var s simSummary
	lat, fid := new(stats.Agg), new(stats.Agg)
	for _, m := range ms {
		if m == nil || m.Err != "" {
			continue
		}
		s.Replicas++
		s.EER += m.AggregateEER()
		lat.Merge(m.LatencySummary())
		fid.Merge(m.FidelitySummary())
		s.Delivered += m.TotalDelivered()
		s.Admitted += m.Admitted
		s.Arrivals += w.arrivals
		for _, c := range m.Circuits {
			s.Completed += c.Completed
			if !c.PendingArrival {
				s.PlaceCalls++
			}
		}
	}
	if s.Replicas > 0 {
		s.EER /= float64(s.Replicas)
	}
	if s.Arrivals > 0 {
		s.AdmitFrac = float64(s.Admitted) / float64(s.Arrivals)
	}
	s.LatN, s.FidelityN = lat.N(), fid.N()
	if s.LatN > 0 {
		s.LatP50, s.LatP99 = lat.Percentile(0.50), lat.Percentile(0.99)
	}
	if s.FidelityN > 0 {
		s.Fidelity = fid.Mean()
	}
	return s
}

// counters are the event counters of one run, read from the layers'
// public accessors after the run.
type counters struct {
	Events        uint64 // sim.Simulation.Processed
	Attempts      uint64 // linklayer Stats.Attempts, all links
	Pairs         uint64 // linklayer Stats.PairsDelivered, all links
	RoundsAborted uint64
	Messages      uint64 // netsim Stats.MessagesSent
	Delivered     int    // end-to-end deliveries (qnet.Metrics)
	Swaps         uint64
	Discards      uint64
	ExpiresSent   uint64
	LateDrops     uint64
	Pending       int // events still queued at the end of the run
}

// add accumulates b into c.
func (c *counters) add(b counters) {
	c.Events += b.Events
	c.Attempts += b.Attempts
	c.Pairs += b.Pairs
	c.RoundsAborted += b.RoundsAborted
	c.Messages += b.Messages
	c.Delivered += b.Delivered
	c.Swaps += b.Swaps
	c.Discards += b.Discards
	c.ExpiresSent += b.ExpiresSent
	c.LateDrops += b.LateDrops
	c.Pending += b.Pending
}

// readCounters reads a finished run's counters from its network and
// metrics.
func readCounters(net *qnet.Network, m *qnet.Metrics) counters {
	c := netCounters(net)
	c.add(metricCounters(m))
	return c
}

// netCounters reads the simulator, link-layer and classical-network
// counters of a finished run.
func netCounters(net *qnet.Network) counters {
	c := counters{
		Events:   net.Sim.Processed(),
		Messages: net.Classical.Stats().MessagesSent,
		Pending:  net.Sim.Pending(),
	}
	for _, e := range net.Fabric.All() {
		st := e.Stats()
		c.Attempts += st.Attempts
		c.Pairs += st.PairsDelivered
		c.RoundsAborted += st.RoundsAborted
	}
	return c
}

// metricCounters reads the delivery and data-plane counters a run's
// metrics carry.
func metricCounters(m *qnet.Metrics) counters {
	c := counters{Delivered: m.TotalDelivered()}
	for _, ns := range m.NodeStats {
		c.Swaps += ns.Swaps
		c.Discards += ns.Discards
		c.ExpiresSent += ns.ExpiresSent
		c.LateDrops += ns.LateDrops
	}
	return c
}

// engineIdentity runs a dumbbell workload's scenario at the given seed and
// horizon on both physics engines and reports any difference in the event
// counters. The engines consume identical random streams, so the event
// timeline — events, attempts, link pairs, deliveries, messages — must
// match exactly.
func engineIdentity(w workload, seed int64, horizon sim.Duration) error {
	var got [2]counters
	for i, ph := range []qnet.Physics{qnet.PhysicsExact, qnet.PhysicsWerner} {
		sc := w.build(horizon)
		sc.Config.Physics = ph
		sc.Config.Seed = seed
		res, err := sc.Run()
		if err != nil {
			return fmt.Errorf("engine %d run: %w", ph, err)
		}
		got[i] = readCounters(res.Net, res.Metrics)
	}
	return compareTimeline(got[0], got[1])
}

// repeatCheck runs the workload's reduced probe scenario twice at the same
// seed and reports any difference in the event counters or the simulated
// summary. It runs on every end-to-end run, so determinism is checked even
// when only one grid fits in the time budget.
func repeatCheck(w workload, seed int64) error {
	var got [2]counters
	var sum [2]simSummary
	for i := range got {
		sc := w.probeBuild()
		sc.Config.Seed = seed
		res, err := sc.Run()
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		got[i] = readCounters(res.Net, res.Metrics)
		sum[i] = summarize(w, []*qnet.Metrics{res.Metrics})
	}
	if got[0] != got[1] {
		return fmt.Errorf("same seed, different counters: %+v vs %+v", got[0], got[1])
	}
	if sum[0] != sum[1] {
		return fmt.Errorf("same seed, different outcome: %+v vs %+v", sum[0], sum[1])
	}
	return nil
}

// compareTimeline reports the first event counter on which two runs of
// the same timeline differ.
func compareTimeline(a, b counters) error {
	pairs := []struct {
		name string
		x, y uint64
	}{
		{"sim.events", a.Events, b.Events},
		{"linklayer.attempts", a.Attempts, b.Attempts},
		{"linklayer.pairs", a.Pairs, b.Pairs},
		{"deliveries", uint64(a.Delivered), uint64(b.Delivered)},
		{"netsim.messages", a.Messages, b.Messages},
	}
	for _, p := range pairs {
		if p.x != p.y {
			return fmt.Errorf("cross-engine %s differ: exact %d, werner %d", p.name, p.x, p.y)
		}
	}
	return nil
}
