// Command benchdiff normalises `go test -bench -benchmem` output into the
// repository's BENCH_*.json format and compares two such files with
// benchstat-style regression thresholds. CI and developers run the same
// binary, so the gate that fails a pull request is exactly reproducible
// locally:
//
//	go test -run='^$' -bench='Fig|Topology|SwapHeavy' -benchtime=2x -benchmem . |
//	    go run ./cmd/benchdiff -parse -sha $(git rev-parse --short HEAD) -out BENCH_new.json
//	go run ./cmd/benchdiff -compare BENCH_baseline.json BENCH_new.json
//
// Compare exits non-zero when ns/op or allocs/op regress by more than the
// threshold (default 15%) on any benchmark present in both files.
// Benchmarks present only in the new file are listed as "new (no
// baseline)" without failing the gate; benchmarks that vanished from
// the new file fail it.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark's normalised numbers.
type Result struct {
	NsOp     float64            `json:"ns_op"`
	AllocsOp float64            `json:"allocs_op"`
	BytesOp  float64            `json:"bytes_op"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
}

// File is the BENCH_*.json schema.
type File struct {
	SHA        string            `json:"sha,omitempty"`
	Date       string            `json:"date,omitempty"`
	GoVersion  string            `json:"go_version,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	parse := flag.Bool("parse", false, "parse `go test -bench` output from stdin into JSON")
	compare := flag.Bool("compare", false, "compare two BENCH_*.json files: -compare old.json new.json")
	sha := flag.String("sha", "", "commit SHA recorded in parsed output")
	out := flag.String("out", "", "output file for -parse (default stdout)")
	threshold := flag.Float64("threshold", 0.15, "relative regression threshold for ns/op and allocs/op")
	flag.Parse()

	switch {
	case *parse:
		if err := runParse(*sha, *out); err != nil {
			fatal(err)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs exactly two files, got %d", flag.NArg()))
		}
		ok, err := runCompare(flag.Arg(0), flag.Arg(1), *threshold)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

// normalizeName strips the -GOMAXPROCS suffix so runs from machines with
// different core counts compare by benchmark identity.
func normalizeName(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// parseBench reads `go test -bench` text and returns the normalised results.
// A benchmark reported on several lines (`-count=N`) keeps the median of
// each number instead of the last line's.
func parseBench(r *bufio.Scanner) (map[string]Result, error) {
	runs := make(map[string][]Result)
	for r.Scan() {
		line := strings.TrimSpace(r.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then value/unit pairs.
		if len(fields) < 4 {
			continue
		}
		name := normalizeName(fields[0])
		res := Result{Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", line, fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsOp = v
			case "allocs/op":
				res.AllocsOp = v
			case "B/op":
				res.BytesOp = v
			default:
				res.Metrics[unit] = v
			}
		}
		runs[name] = append(runs[name], res)
	}
	results := make(map[string]Result, len(runs))
	for name, rs := range runs {
		results[name] = medianResult(rs)
	}
	return results, r.Err()
}

// medianResult combines repeated runs of one benchmark field by field. A
// custom metric takes the median over the runs that report it.
func medianResult(rs []Result) Result {
	field := func(get func(Result) float64) float64 {
		vs := make([]float64, len(rs))
		for i, r := range rs {
			vs[i] = get(r)
		}
		return median(vs)
	}
	out := Result{
		NsOp:     field(func(r Result) float64 { return r.NsOp }),
		AllocsOp: field(func(r Result) float64 { return r.AllocsOp }),
		BytesOp:  field(func(r Result) float64 { return r.BytesOp }),
	}
	metrics := make(map[string][]float64)
	for _, r := range rs {
		for unit, v := range r.Metrics {
			metrics[unit] = append(metrics[unit], v)
		}
	}
	if len(metrics) > 0 {
		out.Metrics = make(map[string]float64, len(metrics))
		for unit, vs := range metrics {
			out.Metrics[unit] = median(vs)
		}
	}
	return out
}

// median returns the middle value of vs (the mean of the two middle values
// for an even count). It sorts vs in place.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

func runParse(sha, out string) error {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	results, err := parseBench(sc)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return errors.New("no Benchmark lines found on stdin")
	}
	f := File{
		SHA:        sha,
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		Benchmarks: results,
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

func load(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// runCompare prints a delta table and reports whether the new results stay
// within the threshold on every benchmark both files share.
func runCompare(oldPath, newPath string, threshold float64) (bool, error) {
	oldF, err := load(oldPath)
	if err != nil {
		return false, err
	}
	newF, err := load(newPath)
	if err != nil {
		return false, err
	}
	var names, missing []string
	ok := true
	for name := range oldF.Benchmarks {
		if _, present := newF.Benchmarks[name]; present {
			names = append(names, name)
		} else {
			// A benchmark that vanished is a failure, not a warning: a
			// crashed or renamed bench must not slip past the gate green.
			missing = append(missing, name)
			ok = false
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Printf("FAIL  %-32s missing from %s\n", name, newPath)
	}
	// Benchmarks present only in the new run are reported, not gated:
	// freshly added benches have no baseline to regress against, but
	// listing them keeps the reviewer's cue to check one in visible —
	// silently ignoring them is how baselines go stale.
	var fresh []string
	for name := range newF.Benchmarks {
		if _, present := oldF.Benchmarks[name]; !present {
			fresh = append(fresh, name)
		}
	}
	sort.Strings(fresh)
	for _, name := range fresh {
		n := newF.Benchmarks[name]
		fmt.Printf("new   %-32s ns/op %14.0f                             allocs/op %10.0f   (no baseline in %s)\n",
			name, n.NsOp, n.AllocsOp, oldPath)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("no common benchmarks between %s and %s", oldPath, newPath)
	}
	for _, name := range names {
		o, n := oldF.Benchmarks[name], newF.Benchmarks[name]
		nsBad := exceeds(o.NsOp, n.NsOp, threshold)
		allocBad := exceeds(o.AllocsOp, n.AllocsOp, threshold)
		status := "ok  "
		if nsBad || allocBad {
			status = "FAIL"
			ok = false
		}
		fmt.Printf("%s  %-32s ns/op %14.0f -> %14.0f (%+6.1f%%)   allocs/op %10.0f -> %10.0f (%+6.1f%%)\n",
			status, name, o.NsOp, n.NsOp, delta(o.NsOp, n.NsOp),
			o.AllocsOp, n.AllocsOp, delta(o.AllocsOp, n.AllocsOp))
	}
	if !ok {
		fmt.Printf("\nregression beyond %.0f%% threshold vs %s\n", threshold*100, oldPath)
	}
	return ok, nil
}

// exceeds reports whether new regresses past the threshold. A zero baseline
// is a hard contract (a benchmark that reached 0 allocs/op must stay there),
// so any increase from 0 fails regardless of the relative threshold.
func exceeds(old, new, threshold float64) bool {
	if old <= 0 {
		return new > 0
	}
	return new > old*(1+threshold)
}

func delta(old, new float64) float64 {
	if old <= 0 {
		return 0
	}
	return (new - old) / old * 100
}
