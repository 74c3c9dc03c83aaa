package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"qnp/internal/runner"
	"qnp/qnet"
)

// runLayers are the modules on the run path, innermost-frame attribution
// targets of the traced run.
var runLayers = []string{
	"sim", "linalg", "quantum", "werner", "hardware", "device", "linklayer",
	"core", "signaling", "netsim", "routing", "qnet", "stats", "runner",
}

// buckets are the self-time buckets: the layers, then collector workers
// and everything else.
var buckets = append(append([]string(nil), runLayers...), "gc", "other")

// frameLayer returns the run-path layer a profile frame belongs to, or ""
// for frames outside them.
func frameLayer(fn string) string {
	var rest string
	switch {
	case strings.HasPrefix(fn, "qnp/qnet."):
		return "qnet"
	case strings.HasPrefix(fn, "qnp/internal/"):
		rest = strings.TrimPrefix(fn, "qnp/internal/")
	default:
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range runLayers {
		if l == rest {
			return l
		}
	}
	return ""
}

// gcFrame reports whether a frame roots a garbage-collector worker stack.
func gcFrame(fn string) bool {
	for _, p := range []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcMarkTermination", "runtime.gcStart"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// samplePeriod is the CPU profiler's sampling period at the runtime's
// default 100 Hz rate; pprof -traces prints identical stacks merged, with
// their summed sample time.
const samplePeriod = 10 * time.Millisecond

// attribution is a CPU profile's self time by layer.
type attribution struct {
	selfS   map[string]float64 // layer (or "gc", "other") → seconds
	samples int
	totalS  float64
}

// attribute reads `go tool pprof -traces` output and charges every sample
// to exactly one bucket: the innermost run-path layer frame on its stack;
// otherwise "gc" for a collector worker stack; otherwise "other".
func attribute(r io.Reader) (attribution, error) {
	a := attribution{selfS: make(map[string]float64)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var (
		inStack bool
		value   time.Duration
		frames  []string
	)
	flush := func() {
		if !inStack {
			return
		}
		bucket := ""
		for _, f := range frames { // innermost first
			if l := frameLayer(f); l != "" {
				bucket = l
				break
			}
		}
		if bucket == "" {
			bucket = "other"
			for _, f := range frames {
				if gcFrame(f) {
					bucket = "gc"
					break
				}
			}
		}
		a.selfS[bucket] += value.Seconds()
		a.totalS += value.Seconds()
		a.samples += int((value + samplePeriod/2) / samplePeriod)
		inStack, frames = false, frames[:0]
	}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if !inStack {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				continue // header lines
			}
			inStack, value, frames = true, d, append(frames, fields[1])
			continue
		}
		frames = append(frames, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return a, err
	}
	if a.samples == 0 {
		return a, fmt.Errorf("profile has no samples")
	}
	return a, nil
}

// profileGrid runs the grid once under a CPU profile written to path,
// capturing every replica's network for the layer counters.
func profileGrid(w workload, seed int64, path string) (grid, counters, error) {
	sc := w.build(0)
	var mu sync.Mutex
	var nets []*qnet.Network
	sc.Setup = func(n *qnet.Network) {
		mu.Lock()
		nets = append(nets, n)
		mu.Unlock()
	}
	f, err := os.Create(path)
	if err != nil {
		return grid{}, counters{}, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return grid{}, counters{}, err
	}
	g, err := runGrid(w, sc, seed)
	pprof.StopCPUProfile()
	if err != nil {
		return g, counters{}, err
	}
	if err := f.Close(); err != nil {
		return g, counters{}, err
	}
	var c counters
	for _, n := range nets {
		c.add(netCounters(n))
	}
	for _, m := range g.ms {
		if m != nil {
			c.add(metricCounters(m))
		}
	}
	return g, c, nil
}

// readProfile attributes a CPU profile with the toolchain's pprof.
func readProfile(path string) (attribution, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return attribution{}, fmt.Errorf("go tool pprof: %v: %s", err, errb.String())
	}
	return attribute(&out)
}

// layers is the traced run: one untraced grid, one grid under the CPU
// profile, then the per-call probes outside the profile.
func layers(w workload, seed int64, outDir string, log io.Writer) (result, error) {
	t := &tally{log: log}
	base := w.build(0)
	plain, err := runGrid(w, base, seed)
	if err != nil {
		return result{}, err
	}
	good := t.grid(w, plain.ms)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	path := filepath.Join(outDir, "cpu-"+w.name+".pprof")
	traced, c, err := profileGrid(w, seed, path)
	if err != nil {
		return result{}, err
	}
	t.grid(w, traced.ms)
	sum := summarize(w, plain.ms)
	if s := summarize(w, traced.ms); s != sum {
		t.note("traced grid", fmt.Errorf("traced run differs from untraced: %+v vs %+v", s, sum))
	}
	if w.crossEngine {
		t.note("cross-engine identity", engineIdentity(w, runner.DeriveSeed(seed, 0), checkHorizon))
	}
	attr, err := readProfile(path)
	if err != nil {
		return result{}, err
	}

	// The probes take their inputs from the first replica that passed the
	// output check.
	if good < 0 {
		return result{}, fmt.Errorf("no replica passed the output check, so the probes have no inputs")
	}
	m0 := plain.ms[good]
	place, err := placeProbe(base, m0)
	if err != nil {
		return result{}, err
	}
	linkF := 0.0
	for _, cm := range m0.Circuits {
		if cm.Established {
			linkF = cm.Plan.LinkFidelity
			break
		}
	}
	latMean := 0.0
	if agg := m0.LatencySummary(); agg.N() > 0 {
		latMean = agg.Mean()
	}
	depth := c.Pending / len(traced.ms)
	kp, err := runKernelProbes(base.Config, linkF, latMean, depth, seed)
	if err != nil {
		return result{}, err
	}
	rp, err := runRunnerProbes(w, seed, t)
	if err != nil {
		return result{}, err
	}

	inclusive := place.ns * float64(sum.PlaceCalls) / 1e9
	fmt.Fprintf(log, "# %s seed %d traced: %d profile samples, %.2f s CPU over %.2f s wall (untraced %.2f s)\n",
		w.name, seed, attr.samples, attr.totalS, traced.wall, plain.wall)
	fmt.Fprintf(log, "# self time charges each sample to its innermost run-path frame: the planner's\n")
	fmt.Fprintf(log, "# density-matrix work lands in quantum/linalg, not routing; routing's inclusive\n")
	fmt.Fprintf(log, "# cost is routing.place_ns x routing.place_calls = %.2f s (%d timed calls)\n", inclusive, place.n)
	for _, l := range buckets {
		fmt.Fprintf(log, "#   %-10s %7.2f s  %5.1f%%\n", l, attr.selfS[l], 100*attr.selfS[l]/attr.totalS)
	}

	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	mt := map[string]metric{
		"sim.events":                     {float64(c.Events), "count"},
		"sim.events_per_s":               {float64(c.Events) / plain.wall, "1/s"},
		"sim.step_ns":                    {kp.simStep.ns, "ns"},
		"sim.step_n":                     {float64(kp.simStep.n), "count"},
		"linklayer.attempts":             {float64(c.Attempts), "count"},
		"linklayer.pairs":                {float64(c.Pairs), "count"},
		"linklayer.rounds_aborted":       {float64(c.RoundsAborted), "count"},
		"linklayer.pair_yield":           {ratio(c.Pairs, c.Attempts), "frac"},
		"core.swaps":                     {float64(c.Swaps), "count"},
		"core.discards":                  {float64(c.Discards), "count"},
		"core.expires_sent":              {float64(c.ExpiresSent), "count"},
		"core.late_drops":                {float64(c.LateDrops), "count"},
		"core.discard_frac":              {ratio(c.Discards, c.Pairs), "frac"},
		"netsim.messages":                {float64(c.Messages), "count"},
		"routing.place_calls":            {float64(sum.PlaceCalls), "count"},
		"routing.place_ns":               {place.ns, "ns"},
		"routing.place_n":                {float64(place.n), "count"},
		"routing.inclusive_s":            {inclusive, "s"},
		"hardware.link_model_ns":         {kp.linkModel.ns, "ns"},
		"hardware.link_model_n":          {float64(kp.linkModel.n), "count"},
		"hardware.alpha_for_fidelity_ns": {kp.alphaForFidelity.ns, "ns"},
		"hardware.alpha_for_fidelity_n":  {float64(kp.alphaForFidelity.n), "count"},
		"quantum.swap_ns":                {kp.quantumSwap.ns, "ns"},
		"quantum.swap_n":                 {float64(kp.quantumSwap.n), "count"},
		"werner.swap_ns":                 {kp.wernerSwap.ns, "ns"},
		"werner.swap_n":                  {float64(kp.wernerSwap.n), "count"},
		"stats.add_ns":                   {kp.statsAdd.ns, "ns"},
		"stats.add_n":                    {float64(kp.statsAdd.n), "count"},
		"runner.replica_overhead_ms":     {rp.replicaMS, "ms"},
		"runner.fleet_overhead_ms":       {rp.fleetMS, "ms"},
		"runner.probe_replicas":          {float64(rp.replicas), "count"},
		"qnet.latency_p50_s":             {sum.LatP50, "sim_s"},
		"qnet.latency_p99_s":             {sum.LatP99, "sim_s"},
		"qnet.latency_n":                 {float64(sum.LatN), "count"},
		"gc.cycles":                      {float64(traced.gcs), "count"},
		"gc.pause_s":                     {traced.pauseS, "s"},
		"trace.overhead_frac":            {traced.wall/plain.wall - 1, "frac"},
		"trace.samples":                  {float64(attr.samples), "count"},
		"trace.sampled_s":                {attr.totalS, "s"},
	}
	for _, l := range buckets {
		mt[l+".self_s"] = metric{attr.selfS[l], "s"}
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: mt}, nil
}
