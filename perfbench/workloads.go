package main

import (
	"fmt"

	"qnp/internal/sim"
	"qnp/qnet"
)

// targetF is the end-to-end fidelity target of every circuit in every
// workload.
const targetF = 0.85

// fidelityTol is how far a replica's mean delivered fidelity may fall
// below targetF before the output check fails it. Delivered means sit
// just under the target (0.842–0.847 per replica over 20 replicas of each
// of city-churn and dumbbell-exact), so the tolerance is about four times
// that shortfall: wide enough that seed-to-seed spread never fails a
// replica, narrow enough that a physics regression does.
const fidelityTol = 0.02

// checkHorizon is the horizon of the per-run cross-engine identity check:
// both dumbbell engines run replica 0 for this long and must agree on
// every event counter.
const checkHorizon = 20 * sim.Second

// workload is one named benchmark input: a replica grid of one scenario.
type workload struct {
	name string
	// replicas is the grid size; the grid runs on min(replicas, nproc)
	// workers. city-churn runs four because its simulated metrics vary
	// more from seed to seed.
	replicas int
	// arrivals is the number of circuits offered per replica.
	arrivals int
	// openEnded is the number of open-ended requests each replica submits
	// (they never complete and are excluded from request accounting).
	openEnded int
	// crossEngine runs the per-run cross-engine identity check.
	crossEngine bool
	// build returns the scenario at the given horizon (0 = the workload's
	// own). Seeds are set per replica by RunReplicated.
	build func(horizon sim.Duration) qnet.Scenario
	// probeBuild is the reduced scenario of the runner overhead probes.
	probeBuild func() qnet.Scenario
}

// City-churn shape: the quick `figures -fig city` study.
const (
	cityRows, cityCols = 10, 10
	cityArrivals       = 300
	cityHorizon        = 6 * sim.Second
	cityHold           = 5 * sim.Second / 2
	cityReqMean        = 100 * sim.Millisecond
	// cityProbeArrivals sizes the runner-probe variant: planning dominates
	// a city replica, so the probe offers a thirtieth of the arrivals.
	cityProbeArrivals = 10
)

// Dumbbell shape: the congested Fig. 9 point below the knee.
const (
	dumbbellInterval = 300 * sim.Millisecond
	dumbbellPairs    = 3
	exactHorizon     = 200 * sim.Second
	wernerHorizon    = 1000 * sim.Second
	probeHorizon     = 10 * sim.Second
)

// workloads lists every benchmark workload by name.
func workloads() []workload {
	return []workload{
		{
			name: "city-churn", replicas: 4, arrivals: cityArrivals,
			build: func(h sim.Duration) qnet.Scenario {
				if h == 0 {
					h = cityHorizon
				}
				return cityScenario(cityArrivals, h)
			},
			probeBuild: func() qnet.Scenario { return cityScenario(cityProbeArrivals, cityHorizon) },
		},
		dumbbellWorkload("dumbbell-exact", qnet.PhysicsExact, exactHorizon),
		dumbbellWorkload("dumbbell-werner", qnet.PhysicsWerner, wernerHorizon),
	}
}

// lookup returns the named workload.
func lookup(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// cityDemand is the MinEER each city circuit demands: 40% of the
// allocation the controller hands a single A0–B0 circuit on the dumbbell
// plant (the churn studies' demand). It is a pure function of the default
// hardware, computed once per process before any timing starts.
func cityDemand() float64 {
	cfg := qnet.DefaultConfig()
	cfg.EnforceEER = true
	net := qnet.Dumbbell(cfg)
	dec, _, err := net.Controller.Place(qnet.PlacementRequest{
		Src: "A0", Dst: "B0", Fidelity: targetF, Cutoff: qnet.CutoffShort, Probe: true,
	})
	if err != nil {
		panic(err)
	}
	return 0.4 * dec.Plan.MaxEER
}

var demand = cityDemand()

// cityScenario is a 10×10 grid under admission control: arrivals circuit
// arrivals uniform over the first 60% of the horizon, exponential holding,
// a MinEER demand, Poisson single-pair KEEP requests, streaming metrics,
// the exact engine and the short cutoff.
func cityScenario(arrivals int, horizon sim.Duration) qnet.Scenario {
	cfg := qnet.DefaultConfig()
	cfg.EnforceEER = true
	cfg.MetricsMode = qnet.MetricsStreaming
	return qnet.Scenario{
		Name:     "city-churn",
		Config:   cfg,
		Topology: qnet.GridTopo(cityRows, cityCols),
		Circuits: []qnet.CircuitSpec{{
			ID:             "vc",
			Select:         qnet.RandomPairs(arrivals),
			Fidelity:       targetF,
			Policy:         qnet.CutoffShort,
			Arrival:        qnet.Uniform(0, sim.Duration(float64(horizon)*0.6)),
			Holding:        qnet.Exponential(cityHold),
			MinEER:         demand,
			Workload:       qnet.PoissonKeep{Mean: cityReqMean, Pairs: 1},
			RecordFidelity: true,
			Optional:       true,
		}},
		Horizon: horizon,
	}
}

// dumbbellWorkload is the congested Fig. 9 point on one physics engine.
func dumbbellWorkload(name string, physics qnet.Physics, horizon sim.Duration) workload {
	return workload{
		name: name, replicas: 2, arrivals: 2, openEnded: 1, crossEngine: true,
		build: func(h sim.Duration) qnet.Scenario {
			if h == 0 {
				h = horizon
			}
			return dumbbellScenario(name, physics, h)
		},
		probeBuild: func() qnet.Scenario { return dumbbellScenario(name, physics, probeHorizon) },
	}
}

// dumbbellScenario issues 3-pair KEEP requests on A0–B0 every 0.3 s while an
// open-ended KEEP saturates A1–B1 (F=0.85, short cutoff).
func dumbbellScenario(name string, physics qnet.Physics, horizon sim.Duration) qnet.Scenario {
	cfg := qnet.DefaultConfig()
	cfg.Physics = physics
	return qnet.Scenario{
		Name:     name,
		Config:   cfg,
		Topology: qnet.DumbbellTopo(),
		Circuits: []qnet.CircuitSpec{
			{ID: "main", Src: "A0", Dst: "B0", Fidelity: targetF, Policy: qnet.CutoffShort, RecordFidelity: true,
				Workload: qnet.IntervalKeep{Interval: dumbbellInterval, Pairs: dumbbellPairs}},
			{ID: "other", Src: "A1", Dst: "B1", Fidelity: targetF, Policy: qnet.CutoffShort, RecordFidelity: true,
				Workload: qnet.ContinuousKeep{ID: "bg"}},
		},
		Horizon: horizon,
	}
}

// startHook wraps a circuit's workload to observe the moment its traffic
// opens; the scenario engine calls Start exactly then.
type startHook struct {
	inner   qnet.Workload
	onStart func()
}

// Immediate delegates to the wrapped workload.
func (h startHook) Immediate(ctx *qnet.WorkloadContext) []qnet.Request {
	return h.inner.Immediate(ctx)
}

// Start records the opening, then delegates.
func (h startHook) Start(ctx *qnet.WorkloadContext) {
	h.onStart()
	h.inner.Start(ctx)
}

// withStartHook returns sc with every circuit's workload wrapped so that
// onStart runs whenever a circuit's traffic opens.
func withStartHook(sc qnet.Scenario, onStart func()) qnet.Scenario {
	circs := make([]qnet.CircuitSpec, len(sc.Circuits))
	for i, c := range sc.Circuits {
		if c.Workload != nil {
			c.Workload = startHook{inner: c.Workload, onStart: onStart}
		}
		circs[i] = c
	}
	sc.Circuits = circs
	return sc
}
