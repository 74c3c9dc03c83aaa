package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"qnp/internal/linalg"
	"qnp/internal/quantum"
	"qnp/internal/runner"
	"qnp/internal/sim"
	"qnp/internal/stats"
	"qnp/internal/werner"
	"qnp/qnet"
)

// probe is one per-call timing: mean nanoseconds per call over n calls.
type probe struct {
	ns float64
	n  int
}

// kernelBatches is the number of timed batches per kernel probe; the
// reported figure is the median batch.
const kernelBatches = 5

// timeBatches runs op perBatch times in each of kernelBatches batches and
// returns the median per-call time.
func timeBatches(perBatch int, op func()) probe {
	per := make([]float64, kernelBatches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < perBatch; i++ {
			op()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(perBatch)
	}
	return probe{ns: runner.Percentile(per, 0.5), n: perBatch * kernelBatches}
}

// placeSamples is the target number of timed planning calls.
const placeSamples = 64

// placeProbe replays a replica's circuit arrivals and departures, in
// simulated-time order, against the routing controller of a fresh network
// of the workload's topology, and times Controller.Place planning calls.
// Admitted circuits are committed with the plan they ran with and
// released when they departed, so each timed call sees the membership the
// run saw. When the replica has more arrivals than placeSamples, every
// k-th arrival is timed; when it has fewer, the replay repeats on fresh
// networks.
func placeProbe(sc qnet.Scenario, m *qnet.Metrics) (probe, error) {
	type event struct {
		at     sim.Time
		depart bool
		c      *qnet.CircuitMetrics
	}
	var evs []event
	for _, c := range m.Circuits {
		if c.PendingArrival {
			continue
		}
		evs = append(evs, event{at: c.ArrivedAt, c: c})
		if c.Established && c.TornDownAt != 0 {
			evs = append(evs, event{at: c.TornDownAt, depart: true, c: c})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	arrivals := len(m.Circuits)
	stride := 1
	if arrivals > placeSamples {
		stride = (arrivals + placeSamples - 1) / placeSamples
	}
	replays := 1
	if arrivals < placeSamples {
		replays = (placeSamples + arrivals - 1) / arrivals
	}
	spec := sc.Circuits[0]
	var total time.Duration
	n := 0
	for r := 0; r < replays; r++ {
		net, err := freshNetwork(sc)
		if err != nil {
			return probe{}, err
		}
		ctrl := net.Controller
		k := 0
		for _, e := range evs {
			if e.depart {
				ctrl.Release(string(e.c.ID))
				continue
			}
			if k%stride == 0 {
				req := qnet.PlacementRequest{
					Src: e.c.Src, Dst: e.c.Dst, Fidelity: spec.Fidelity, Cutoff: spec.Policy,
					MinEER: spec.MinEER, K: spec.Candidates, Probe: true,
				}
				t0 := time.Now()
				_, _, _ = ctrl.Place(req) // infeasible plans are timed too: the run paid for them
				total += time.Since(t0)
				n++
			}
			k++
			if e.c.Established && ctrl.EnforceEER && e.c.Plan.MaxEER > 0 {
				plan := e.c.Plan
				if _, _, err := ctrl.Place(qnet.PlacementRequest{ID: string(e.c.ID), Plan: &plan}); err != nil {
					return probe{}, fmt.Errorf("replay commit %s: %w", e.c.ID, err)
				}
			}
		}
	}
	if n == 0 {
		return probe{}, fmt.Errorf("no arrivals to replay")
	}
	return probe{ns: float64(total.Nanoseconds()) / float64(n), n: n}, nil
}

// freshNetwork builds an idle network of the scenario's topology.
func freshNetwork(sc qnet.Scenario) (*qnet.Network, error) {
	switch t := sc.Topology; t.Kind {
	case qnet.TopoGrid:
		return qnet.Grid(sc.Config, t.Rows, t.Cols), nil
	case qnet.TopoDumbbell:
		return qnet.Dumbbell(sc.Config), nil
	}
	return nil, fmt.Errorf("no fresh-network builder for topology kind %d", sc.Topology.Kind)
}

// kernelProbes times the per-call kernels on the workload's own link
// fidelity and hardware.
type kernelProbes struct {
	linkModel, alphaForFidelity, quantumSwap, wernerSwap, statsAdd, simStep probe
}

// runKernelProbes times each kernel probe. linkF is the link fidelity the
// workload's plans requested, latMean its mean completion latency
// (seconds) and depth its mean event-queue depth.
func runKernelProbes(cfg qnet.Config, linkF, latMean float64, depth int, seed int64) (kernelProbes, error) {
	var kp kernelProbes
	p, link := cfg.Params, cfg.Link
	alpha, ok := link.AlphaForFidelity(p, linkF)
	if !ok {
		return kp, fmt.Errorf("link cannot reach fidelity %.4f", linkF)
	}
	var sink float64
	kp.linkModel = timeBatches(200000, func() { sink += link.Model(p, alpha).Fidelity() })
	kp.alphaForFidelity = timeBatches(200, func() {
		a, _ := link.AlphaForFidelity(p, linkF)
		sink += a
	})

	rng := rand.New(rand.NewSource(seed))
	ws := linalg.NewWorkspace()
	swapCfg := p.SwapConfig()
	const states = 16
	rhos := make([]*linalg.Matrix, states)
	for i := range rhos {
		rhos[i], _ = link.GenerateW(ws, p, alpha, rng)
	}
	i := 0
	kp.quantumSwap = timeBatches(400, func() {
		res := quantum.SwapW(ws, rhos[i%states], rhos[(i+1)%states], swapCfg, rng)
		ws.Put(res.Rho)
		i++
	})

	pairF := link.Model(p, alpha).Fidelity()
	ws0 := make([]float64, states)
	for i := range ws0 {
		ws0[i], _ = werner.Generate(pairF, rng)
	}
	kp.wernerSwap = timeBatches(200000, func() {
		sink += werner.Swap(ws0[i%states], ws0[(i+1)%states], swapCfg, rng).W
		i++
	})

	lat := make([]float64, 4096)
	for i := range lat {
		lat[i] = rng.ExpFloat64() * latMean
	}
	agg := new(stats.Agg)
	kp.statsAdd = timeBatches(200000, func() {
		agg.Add(lat[i%len(lat)])
		i++
	})

	if depth < 1 {
		depth = 1
	}
	s := sim.New(seed)
	noop := func() {}
	horizon := float64(sim.Second)
	for j := 0; j < depth; j++ {
		s.Schedule(sim.Duration(rng.Float64()*horizon), noop)
	}
	kp.simStep = timeBatches(200000, func() {
		s.Schedule(sim.Duration(rng.Float64()*horizon), noop)
		s.Step()
	})
	if sink == 0 {
		return kp, fmt.Errorf("kernel probes produced no output")
	}
	return kp, nil
}

// runnerProbe is the runner's overhead per replica, in milliseconds.
type runnerProbe struct {
	replicaMS, fleetMS float64
	replicas           int
}

// runnerProbeReplicas is the probe grid's replica count.
const runnerProbeReplicas = 4

// runRunnerProbes measures the runner's overhead per replica on the
// workload's probe scenario: in-process RunReplicated (one worker) against
// the summed wall of the same replicas run directly, and a loopback Fleet
// of nproc endpoints against in-process RunReplicated at the same worker
// count. Each Fleet replica must match its in-process twin; a mismatch
// counts as a failed check in t.
func runRunnerProbes(w workload, seed int64, t *tally) (runnerProbe, error) {
	sc := w.probeBuild()
	n := runnerProbeReplicas
	var direct time.Duration
	for i := 0; i < n; i++ {
		r := sc
		r.Config.Seed = runner.DeriveSeed(seed, i)
		t0 := time.Now()
		if _, err := r.Run(); err != nil {
			return runnerProbe{}, err
		}
		direct += time.Since(t0)
	}
	t0 := time.Now()
	if _, err := sc.RunReplicated(qnet.ReplicaOptions{Replicas: n, Workers: 1, Seed: seed}); err != nil {
		return runnerProbe{}, err
	}
	serial := time.Since(t0)

	workers := w.workers()
	t0 = time.Now()
	inproc, err := sc.RunReplicated(qnet.ReplicaOptions{Replicas: n, Workers: workers, Seed: seed})
	if err != nil {
		return runnerProbe{}, err
	}
	pool := time.Since(t0)
	eps := make([]runner.Endpoint, workers)
	for i := range eps {
		eps[i].Workers = 1
	}
	t0 = time.Now()
	fleet, err := sc.RunReplicated(qnet.ReplicaOptions{Replicas: n, Seed: seed, Backend: runner.Fleet{Endpoints: eps}})
	if err != nil {
		return runnerProbe{}, fmt.Errorf("loopback fleet: %w", err)
	}
	remote := time.Since(t0)
	for i := range inproc {
		var err error
		if a, b := summarize(w, inproc[i:i+1]), summarize(w, fleet[i:i+1]); a != b {
			err = fmt.Errorf("differs from in-process: %+v vs %+v", b, a)
		}
		t.note(fmt.Sprintf("loopback fleet replica %d", i), err)
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 / float64(n) }
	return runnerProbe{replicaMS: ms(serial - direct), fleetMS: ms(remote - pool), replicas: n}, nil
}
