package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"testing"

	"qnp/internal/runner"
	"qnp/internal/sim"
	"qnp/qnet"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// code under test re-executes itself: set-up probes and loopback Fleet
// workers.
func TestMain(m *testing.M) {
	runner.MaybeWorker()
	if len(os.Args) > 1 && os.Args[1] == "-setup-probe" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// short returns the named workload cut to a short horizon, for tests.
func short(t *testing.T, name string, horizon sim.Duration) workload {
	t.Helper()
	w, err := lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	full := w.build
	w.build = func(h sim.Duration) qnet.Scenario {
		if h == 0 {
			h = horizon
		}
		return full(h)
	}
	return w
}

// runOnce runs replica 0 of w's scenario.
func runOnce(t *testing.T, w workload, seed int64) *qnet.Metrics {
	t.Helper()
	ms, err := w.build(0).RunReplicated(qnet.ReplicaOptions{Replicas: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ms[0]
}

// roundTrip deep-copies metrics through their JSON wire form.
func roundTrip(t *testing.T, m *qnet.Metrics) *qnet.Metrics {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	out := new(qnet.Metrics)
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCheckRejectsCorruptedResult(t *testing.T) {
	city := short(t, "city-churn", 0)
	city.arrivals = 12
	city.build = func(sim.Duration) qnet.Scenario { return cityScenario(city.arrivals, cityHorizon) }
	dumbbell := short(t, "dumbbell-werner", 5*sim.Second)
	for _, w := range []workload{city, dumbbell} {
		good := runOnce(t, w, 3)
		if err := checkReplica(w, good); err != nil {
			t.Fatalf("%s: clean result rejected: %v", w.name, err)
		}
		corruptions := map[string]func(m *qnet.Metrics){
			"run error":          func(m *qnet.Metrics) { m.Err = "boom" },
			"lost circuit":       func(m *qnet.Metrics) { m.Circuits = m.Circuits[1:] },
			"admitted miscount":  func(m *qnet.Metrics) { m.Admitted++ },
			"rejected miscount":  func(m *qnet.Metrics) { m.RejectedAtAdmission++ },
			"phantom completion": func(m *qnet.Metrics) { m.Circuits[firstEstablished(m)].Completed += 1000 },
			"lost request":       func(m *qnet.Metrics) { m.Circuits[firstEstablished(m)].Submitted++ },
			"no deliveries": func(m *qnet.Metrics) {
				for _, c := range m.Circuits {
					c.Delivered = 0
				}
			},
			"low fidelity": func(m *qnet.Metrics) {
				for _, c := range m.Circuits {
					for i := range c.Fidelities {
						c.Fidelities[i] = 0.5
					}
					if c.FidelityAgg != nil {
						c.FidelityAgg.Add(-1e9)
					}
				}
			},
		}
		for name, corrupt := range corruptions {
			m := roundTrip(t, good)
			corrupt(m)
			if err := checkReplica(w, m); err == nil {
				t.Errorf("%s: %s accepted", w.name, name)
			}
		}
	}
}

func firstEstablished(m *qnet.Metrics) int {
	for i, c := range m.Circuits {
		if c.Established {
			return i
		}
	}
	return 0
}

func TestCrossEngineIdentity(t *testing.T) {
	w := short(t, "dumbbell-exact", 5*sim.Second)
	for _, seed := range []int64{1, 2} {
		if err := engineIdentity(w, seed, 5*sim.Second); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	a := counters{Events: 10, Attempts: 20, Pairs: 3, Delivered: 1, Messages: 7}
	b := a
	b.Messages++
	if err := compareTimeline(a, b); err == nil {
		t.Fatal("differing message counts accepted")
	}
}

func TestAttributeChargesEverySampleOnce(t *testing.T) {
	const traces = `File: qnpbench
Type: cpu
Duration: 1s, Total samples = 80ms ( 8.00%)
-----------+-------------------------------------------------------
      30ms   qnp/internal/linalg.MulInto
             qnp/internal/quantum.NoisyGate2W
             qnp/internal/routing.(*Controller).worstCase
-----------+-------------------------------------------------------
      10ms   runtime.mallocgc
             qnp/internal/core.(*Node).onPair.func1
             qnp/internal/sim.(*Simulation).fire
-----------+-------------------------------------------------------
      20ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   syscall.Syscall
             main.main
-----------+-------------------------------------------------------
      10ms   qnp/qnet.Scenario.Run
             main.endToEnd
-----------+-------------------------------------------------------
`
	a, err := attribute(strings.NewReader(traces))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"linalg": 0.03, "core": 0.01, "gc": 0.02, "other": 0.01, "qnet": 0.01}
	sum := 0.0
	for k, v := range a.selfS {
		sum += v
		if d := v - want[k]; d > 1e-12 || d < -1e-12 {
			t.Errorf("%s = %v, want %v", k, v, want[k])
		}
	}
	if a.samples != 8 || sum < a.totalS-1e-12 || sum > a.totalS+1e-12 {
		t.Fatalf("samples %d total %v sum %v, want 8 samples summing to the total", a.samples, a.totalS, sum)
	}
}

// declared reads BENCHMARK.json's metric names and units.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func TestEmittedMetricsAreDeclared(t *testing.T) {
	declE2E, declLayer := declared(t)
	w := short(t, "dumbbell-werner", 5*sim.Second)
	e2e, err := endToEnd(w, 2, 0.1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := layers(w, 2, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mode string
		res  result
		decl map[string]string
	}{{"end_to_end", e2e, declE2E}, {"per_layer", traced, declLayer}} {
		if !c.res.Correct || c.res.Failed != 0 || c.res.Attempted < 1 {
			t.Errorf("%s run not correct: %d of %d failed", c.mode, c.res.Failed, c.res.Attempted)
		}
		var emitted []string
		for name, m := range c.res.Metrics {
			emitted = append(emitted, name)
			if unit, ok := c.decl[name]; !ok {
				t.Errorf("%s metric %q not declared", c.mode, name)
			} else if unit != m.Unit {
				t.Errorf("%s metric %q has unit %q, declared %q", c.mode, name, m.Unit, unit)
			}
		}
		if len(emitted) != len(c.decl) {
			sort.Strings(emitted)
			t.Errorf("%s: emitted %d metrics, declared %d: %v", c.mode, len(emitted), len(c.decl), emitted)
		}
	}
}

func TestCommandLineRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "dumbbell-werner", "-trace", "2"},
	} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("run %v succeeded", args)
		}
	}
}
