package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, dir, name string, f File) string {
	t.Helper()
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// captureCompare runs runCompare with stdout captured.
func captureCompare(t *testing.T, oldPath, newPath string, threshold float64) (bool, string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	ok, cmpErr := runCompare(oldPath, newPath, threshold)
	os.Stdout = saved
	w.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	if cmpErr != nil {
		t.Fatalf("runCompare: %v", cmpErr)
	}
	return ok, sb.String()
}

// TestCompareReportsNewBenches: a benchmark present only in the new run
// must be listed as "new ... (no baseline ...)" without failing the gate,
// while regressions on shared benches still fail.
func TestCompareReportsNewBenches(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeFile(t, dir, "old.json", File{Benchmarks: map[string]Result{
		"BenchmarkShared": {NsOp: 100, AllocsOp: 10},
	}})
	newPath := writeFile(t, dir, "new.json", File{Benchmarks: map[string]Result{
		"BenchmarkShared": {NsOp: 105, AllocsOp: 10},
		"BenchmarkFresh":  {NsOp: 42, AllocsOp: 1},
	}})
	ok, out := captureCompare(t, oldPath, newPath, 0.15)
	if !ok {
		t.Errorf("compare failed; output:\n%s", out)
	}
	if !strings.Contains(out, "new ") || !strings.Contains(out, "BenchmarkFresh") || !strings.Contains(out, "no baseline") {
		t.Errorf("new-only bench not reported:\n%s", out)
	}
	if !strings.Contains(out, "ok    BenchmarkShared") {
		t.Errorf("shared bench line missing:\n%s", out)
	}
}

// TestCompareStillFailsOnMissingAndRegressed: vanished benches and
// threshold breaches keep failing the gate with the new-bench pass in
// place.
func TestCompareStillFailsOnMissingAndRegressed(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeFile(t, dir, "old.json", File{Benchmarks: map[string]Result{
		"BenchmarkGone":   {NsOp: 50, AllocsOp: 5},
		"BenchmarkShared": {NsOp: 100, AllocsOp: 10},
	}})
	newPath := writeFile(t, dir, "new.json", File{Benchmarks: map[string]Result{
		"BenchmarkShared": {NsOp: 200, AllocsOp: 10},
		"BenchmarkFresh":  {NsOp: 42, AllocsOp: 1},
	}})
	ok, out := captureCompare(t, oldPath, newPath, 0.15)
	if ok {
		t.Errorf("compare passed despite missing + regressed benches:\n%s", out)
	}
	if !strings.Contains(out, "missing from") {
		t.Errorf("vanished bench not flagged:\n%s", out)
	}
	if !strings.Contains(out, "FAIL  BenchmarkShared") {
		t.Errorf("regression not flagged:\n%s", out)
	}
}

// TestParseKeepsMedianOfRepeats: with -count=N a benchmark prints N result
// lines; the parsed result is the median of each number, not the last
// line, and custom metrics follow the same rule.
func TestParseKeepsMedianOfRepeats(t *testing.T) {
	in := `goos: linux
BenchmarkPlanCold-2   5   900 ns/op   10 B/op   3 allocs/op   7 events/s
BenchmarkPlanCold-2   5   100 ns/op   30 B/op   1 allocs/op   5 events/s
BenchmarkPlanCold-2   5   300 ns/op   20 B/op   2 allocs/op   9 events/s
BenchmarkPlanCold-2   5   200 ns/op   40 B/op   2 allocs/op
BenchmarkPlanCold-2   5   500 ns/op   50 B/op   2 allocs/op
BenchmarkOnce-2       1   42 ns/op
BenchmarkEven-2       1   10 ns/op
BenchmarkEven-2       1   20 ns/op
PASS
`
	got, err := parseBench(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	pc := got["BenchmarkPlanCold"]
	if pc.NsOp != 300 || pc.BytesOp != 30 || pc.AllocsOp != 2 {
		t.Errorf("PlanCold = %+v, want medians 300 ns/op, 30 B/op, 2 allocs/op", pc)
	}
	if pc.Metrics["events/s"] != 7 {
		t.Errorf("PlanCold events/s = %v, want the median of the three lines reporting it (7)", pc.Metrics["events/s"])
	}
	if got["BenchmarkOnce"].NsOp != 42 || got["BenchmarkOnce"].Metrics != nil {
		t.Errorf("single run = %+v, want 42 ns/op and no metrics", got["BenchmarkOnce"])
	}
	if got["BenchmarkEven"].NsOp != 15 {
		t.Errorf("even count = %v ns/op, want the middle mean 15", got["BenchmarkEven"].NsOp)
	}
}
