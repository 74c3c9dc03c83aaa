package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func init() {
	// test.stop-once: SIGSTOPs its own process on one replica, but only the
	// first time (a marker file remembers) — the injected silent worker for
	// the heartbeat-loss and request-timeout tests. A stopped process sends no frames and no
	// heartbeats but is still alive, which is exactly the failure mode the
	// heartbeat watchdog exists to catch.
	RegisterKind("test.stop-once", func(payload []byte, replica int, seed int64) ([]byte, error) {
		var p struct {
			Dir     string
			Replica int
		}
		if err := json.Unmarshal(payload, &p); err != nil {
			return nil, err
		}
		if replica == p.Replica {
			marker := filepath.Join(p.Dir, "stopped")
			if _, err := os.Stat(marker); os.IsNotExist(err) {
				os.WriteFile(marker, []byte("x"), 0o644)
				syscall.Kill(syscall.Getpid(), syscall.SIGSTOP)
				// The stop can land after kill returns; never answer from
				// the stopped attempt, or its result could still reach
				// the parent.
				time.Sleep(time.Hour)
			}
		}
		return json.Marshal(replica)
	})
	// test.echo-log: appends its replica index to a shared log before
	// echoing, so resume tests can prove which replicas actually executed
	// (journal-recovered ones must not).
	RegisterKind("test.echo-log", func(payload []byte, replica int, seed int64) ([]byte, error) {
		var p struct{ Dir string }
		if err := json.Unmarshal(payload, &p); err != nil {
			return nil, err
		}
		f, err := os.OpenFile(filepath.Join(p.Dir, "ran.log"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(f, "%d\n", replica)
		f.Close()
		return json.Marshal(fmt.Sprintf("r%d/s%d", replica, seed))
	})
}

// localEndpoints builds n loopback endpoints re-execing this test binary.
func localEndpoints(n int) []Endpoint {
	eps := make([]Endpoint, n)
	for i := range eps {
		eps[i] = Endpoint{Name: fmt.Sprintf("local-%d", i), Command: testWorkerCmd()}
	}
	return eps
}

// TestLocalFleet: the -shards N backend is N local endpoints sharing the
// worker budget, ⌈workers/N⌉ each, and it still matches the in-process
// pool when re-execing (here) the test binary.
func TestLocalFleet(t *testing.T) {
	for _, tc := range []struct{ n, workers, per int }{
		{1, 4, 4}, {3, 4, 2}, {3, 3, 1}, {4, 1, 1},
	} {
		fl := LocalFleet(tc.n, tc.workers)
		if len(fl.Endpoints) != tc.n {
			t.Fatalf("LocalFleet(%d, %d) has %d endpoints", tc.n, tc.workers, len(fl.Endpoints))
		}
		for _, ep := range fl.Endpoints {
			if ep.Workers != tc.per || len(ep.Command) != 0 {
				t.Errorf("LocalFleet(%d, %d) endpoint %+v, want %d workers re-execing this binary", tc.n, tc.workers, ep, tc.per)
			}
		}
	}
	const n = 7
	payload := []byte(`"local"`)
	want := executeAll(t, InProcess{}, Options{Seed: 13}, "test.echo", payload, n)
	got := executeAll(t, LocalFleet(3, 0), Options{Seed: 13}, "test.echo", payload, n)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("replica %d = %s, want %s", i, got[i], want[i])
		}
	}
}

// The TestSubprocess* tests pin what -shards N promises about its worker
// subprocesses, driven through LocalFleet exactly as the binaries build it
// (default chunking, split worker budget).

// TestSubprocessShardCountInvariance is the process-sharded analogue of
// worker-count invariance: any shard count, including more shards than
// replicas, yields byte-identical results in identical order.
func TestSubprocessShardCountInvariance(t *testing.T) {
	const n = 11
	payload := []byte(`"inv"`)
	want := executeAll(t, InProcess{}, Options{Seed: 7}, "test.echo", payload, n)
	for _, shards := range []int{1, 2, 3, 5, n + 3} {
		got := executeAll(t, LocalFleet(shards, 2), Options{Seed: 7}, "test.echo", payload, n)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("shards=%d: replica %d = %s, want %s", shards, i, got[i], want[i])
			}
		}
	}
}

// TestSubprocessProgressTicks: -shards N honours Options.Progress exactly
// like the in-process pool — one serialized tick per replica.
func TestSubprocessProgressTicks(t *testing.T) {
	const n = 9
	var mu sync.Mutex
	var ticks []int
	err := executeErr(LocalFleet(3, 0), Options{Seed: 1, Progress: func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if total != n {
			t.Errorf("progress total = %d, want %d", total, n)
		}
		ticks = append(ticks, done)
	}}, "test.echo", []byte(`"pg"`), n)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ticks) != n {
		t.Fatalf("progress ticked %d times, want %d (%v)", len(ticks), n, ticks)
	}
	for i, d := range ticks {
		if d != i+1 {
			t.Fatalf("tick %d reported done=%d, want %d", i, d, i+1)
		}
	}
}

func TestSubprocessCrashMidShardIsRetried(t *testing.T) {
	dir := t.TempDir()
	payload, _ := json.Marshal(struct {
		Dir     string
		Replica int
	}{dir, 4})
	got := executeAll(t, LocalFleet(3, 0), Options{Seed: 1}, "test.crash-once", payload, 9)
	for i := range got {
		var v int
		if err := json.Unmarshal(got[i], &v); err != nil || v != i {
			t.Errorf("replica %d = %s (err %v)", i, got[i], err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "crashed")); err != nil {
		t.Fatal("the injected crash never fired; the retry path was not exercised")
	}
}

func TestSubprocessPersistentCrashFailsTheRun(t *testing.T) {
	payload, _ := json.Marshal(2)
	err := executeErr(LocalFleet(2, 0), Options{Seed: 1}, "test.crash-always", payload, 6)
	if err == nil {
		t.Fatal("run succeeded despite a deterministic worker crash")
	}
	msg := err.Error()
	if !strings.Contains(msg, "failed after 3 attempts") || !strings.Contains(msg, "replicas 2-") {
		t.Errorf("error does not identify the failing chunk and attempts: %v", err)
	}
}

func TestSubprocessKindErrorFailsWithoutRetry(t *testing.T) {
	payload, _ := json.Marshal(3)
	err := executeErr(LocalFleet(1, 0), Options{Seed: 1}, "test.fail", payload, 5)
	if err == nil || !strings.Contains(err.Error(), "synthetic kind failure") {
		t.Fatalf("err = %v, want the replica's own failure", err)
	}
	if !strings.Contains(err.Error(), "replica 3") {
		t.Errorf("error does not name the failing replica: %v", err)
	}
}

// TestSubprocessInactivityTimeout: -worker-timeout on -shards bounds how
// long a worker may stay silent. A worker that SIGSTOPs itself sends
// neither results nor heartbeats; with retries off, the bound fails the
// run promptly.
func TestSubprocessInactivityTimeout(t *testing.T) {
	payload, _ := json.Marshal(struct {
		Dir     string
		Replica int
	}{t.TempDir(), 0})
	fl := LocalFleet(1, 1)
	fl.Heartbeat, fl.Retries = 300*time.Millisecond, -1
	start := time.Now()
	err := executeErr(fl, Options{Seed: 1}, "test.stop-once", payload, 1)
	if err == nil || !strings.Contains(err.Error(), "heartbeat lost") || !strings.Contains(err.Error(), "for 300ms") {
		t.Fatalf("err = %v, want an inactivity-timeout error", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("timeout took %v to fire", elapsed)
	}
}

func TestFleetNoEndpoints(t *testing.T) {
	_, err := Fleet{}.Dispatch(ExecRequest{Kind: "test.echo", Replicas: 1})
	if err == nil || !strings.Contains(err.Error(), "no endpoints") {
		t.Fatalf("err = %v, want a no-endpoints error", err)
	}
}

// TestFleetMatchesInProcess is the core invariant: a multi-endpoint
// work-stealing fleet produces byte-identical results in identical order to
// the in-process pool, for several endpoint and chunk geometries —
// including more endpoints than replicas.
func TestFleetMatchesInProcess(t *testing.T) {
	const n = 13
	payload := []byte(`"fleet"`)
	want := executeAll(t, InProcess{}, Options{Seed: 11}, "test.echo", payload, n)
	for _, tc := range []struct{ endpoints, chunk int }{
		{1, 0}, {2, 2}, {3, 1}, {4, 5}, {n + 3, 0},
	} {
		fl := Fleet{Endpoints: localEndpoints(tc.endpoints), ChunkSize: tc.chunk}
		got := executeAll(t, fl, Options{Seed: 11}, "test.echo", payload, n)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("endpoints=%d chunk=%d: replica %d = %s, want %s",
					tc.endpoints, tc.chunk, i, got[i], want[i])
			}
		}
	}
}

// TestFleetStealScheduleInvariance: one fast and one artificially slow
// endpoint produce the same bytes as two uniform endpoints — the steal
// schedule moves work between hosts but can never move results.
func TestFleetStealScheduleInvariance(t *testing.T) {
	const n = 12
	payload := []byte(`"steal"`)
	want := executeAll(t, InProcess{}, Options{Seed: 23}, "test.echo", payload, n)

	skewed := localEndpoints(2)
	skewed[1].Throttle = 40 * time.Millisecond
	for name, fl := range map[string]Fleet{
		"uniform": {Endpoints: localEndpoints(2), ChunkSize: 2},
		"skewed":  {Endpoints: skewed, ChunkSize: 2},
	} {
		ex, err := fl.Dispatch(ExecRequest{Kind: "test.echo", Payload: payload, Replicas: n, Options: Options{Seed: 23}})
		if err != nil {
			t.Fatal(err)
		}
		// Lease snapshots are monitoring-only; just check well-formedness.
		for _, l := range ex.Leases() {
			if l.Endpoint == "" || l.Count <= 0 || l.Start < 0 || l.Start+l.Count > n || l.Attempt < 1 {
				t.Errorf("%s: malformed lease %+v", name, l)
			}
		}
		got := make([][]byte, n)
		for r := range ex.Results() {
			got[r.Replica] = r.Data
		}
		if err := ex.Wait(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s: replica %d = %s, want %s", name, i, got[i], want[i])
			}
		}
	}
}

// TestFleetWorkerCrashMidGrid: killing a worker mid-run loses a lease, the
// chunk remainder returns to the queue, and the final results are identical
// to an undisturbed run.
func TestFleetWorkerCrashMidGrid(t *testing.T) {
	dir := t.TempDir()
	payload, _ := json.Marshal(struct {
		Dir     string
		Replica int
	}{dir, 5})
	const n = 9
	fl := Fleet{Endpoints: localEndpoints(2), ChunkSize: 3}
	got := executeAll(t, fl, Options{Seed: 1}, "test.crash-once", payload, n)
	for i := range got {
		want, _ := json.Marshal(i)
		if !bytes.Equal(got[i], want) {
			t.Errorf("replica %d = %s, want %s", i, got[i], want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "crashed")); err != nil {
		t.Fatal("the injected crash never fired; the lease-loss path was not exercised")
	}
}

// TestFleetHeartbeatLossRequeues: a worker that goes silent without dying
// (SIGSTOP) is declared lost via missed heartbeats, its chunk remainder is
// requeued, and the run still completes with correct results.
func TestFleetHeartbeatLossRequeues(t *testing.T) {
	dir := t.TempDir()
	payload, _ := json.Marshal(struct {
		Dir     string
		Replica int
	}{dir, 3})
	const n = 6
	fl := Fleet{Endpoints: localEndpoints(1), ChunkSize: 3, Heartbeat: 500 * time.Millisecond}
	got := executeAll(t, fl, Options{Seed: 2, Workers: 1}, "test.stop-once", payload, n)
	for i := range got {
		want, _ := json.Marshal(i)
		if !bytes.Equal(got[i], want) {
			t.Errorf("replica %d = %s, want %s", i, got[i], want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "stopped")); err != nil {
		t.Fatal("the injected stall never fired; the heartbeat-loss path was not exercised")
	}
}

// TestFleetContextCancelledBeforeDispatch: a run whose context is already
// done starts no chunk and reports the caller's context error.
func TestFleetContextCancelledBeforeDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fl := Fleet{Endpoints: localEndpoints(2)}
	ex, err := fl.Dispatch(ExecRequest{Kind: "test.echo", Payload: []byte(`"c"`), Replicas: 8, Options: Options{Seed: 1, Context: ctx}})
	if err != nil {
		t.Fatal(err)
	}
	for r := range ex.Results() {
		t.Errorf("cancelled run delivered replica %d", r.Replica)
	}
	if err := ex.Wait(); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFleetReapsWorkerStuckAfterResults: a worker that delivers every
// result but never exits is killed by the heartbeat bound, and its chunk
// counts as complete.
func TestFleetReapsWorkerStuckAfterResults(t *testing.T) {
	const n = 4
	payload := []byte(`"stuck"`)
	want := executeAll(t, InProcess{}, Options{Seed: 19}, "test.echo", payload, n)
	cmd := testWorkerCmd()
	eps := []Endpoint{{
		Name:    "stuck",
		Command: []string{"/bin/sh", "-c", `"$0" "$1"; exec sleep 3600`, cmd[0], cmd[1]},
	}}
	fl := Fleet{Endpoints: eps, ChunkSize: n, Heartbeat: 300 * time.Millisecond, Retries: -1}
	got := executeAll(t, fl, Options{Seed: 19}, "test.echo", payload, n)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("replica %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestFleetKindErrorFailsWithoutRetry(t *testing.T) {
	payload, _ := json.Marshal(3)
	fl := Fleet{Endpoints: localEndpoints(2), ChunkSize: 2}
	err := executeErr(fl, Options{Seed: 1}, "test.fail", payload, 6)
	if err == nil || !strings.Contains(err.Error(), "synthetic kind failure") {
		t.Fatalf("err = %v, want the replica's own failure", err)
	}
	if !strings.Contains(err.Error(), "replica 3") {
		t.Errorf("error does not name the failing replica: %v", err)
	}
}

func TestFleetPersistentCrashFailsTheRun(t *testing.T) {
	payload, _ := json.Marshal(2)
	fl := Fleet{Endpoints: localEndpoints(2), ChunkSize: 2}
	err := executeErr(fl, Options{Seed: 1}, "test.crash-always", payload, 6)
	if err == nil {
		t.Fatal("run succeeded despite a deterministic worker crash")
	}
	if !strings.Contains(err.Error(), "failed after 3 attempts") {
		t.Errorf("error does not report the exhausted attempts: %v", err)
	}
}

// TestFleetBadEndpointIsBenched: an endpoint that fails every chunk it
// touches is benched after a few strikes, and the remaining endpoints
// finish the queue — one bad host cannot take down the run.
func TestFleetBadEndpointIsBenched(t *testing.T) {
	const n = 12
	payload := []byte(`"bench"`)
	want := executeAll(t, InProcess{}, Options{Seed: 31}, "test.echo", payload, n)
	eps := []Endpoint{
		{Name: "good", Command: testWorkerCmd()},
		{Name: "broken", Command: []string{"/bin/false"}},
	}
	// ChunkSize 1 gives the broken endpoint many distinct chunks to fail,
	// so it strikes out before any single chunk exhausts its attempts.
	fl := Fleet{Endpoints: eps, ChunkSize: 1}
	got := executeAll(t, fl, Options{Seed: 31}, "test.echo", payload, n)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("replica %d = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestFleetRemoteStyleCommand runs an endpoint through a shell exec — the
// same shape as an ssh remote command — proving the protocol only needs a
// byte pipe, not a direct child process.
func TestFleetRemoteStyleCommand(t *testing.T) {
	const n = 8
	payload := []byte(`"remote"`)
	want := executeAll(t, InProcess{}, Options{Seed: 17}, "test.echo", payload, n)
	cmd := testWorkerCmd()
	eps := []Endpoint{{
		Name:    "sh-tunnel",
		Command: []string{"/bin/sh", "-c", `exec "$0" "$1"`, cmd[0], cmd[1]},
	}}
	fl := Fleet{Endpoints: eps, ChunkSize: 3}
	got := executeAll(t, fl, Options{Seed: 17}, "test.echo", payload, n)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("replica %d = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestFleetErrorCarriesWorkerStderr: a failed chunk's error quotes the
// worker's stderr, capped at maxStderr bytes so a chatty worker cannot
// grow the parent's memory.
func TestFleetErrorCarriesWorkerStderr(t *testing.T) {
	for _, tc := range []struct {
		name, script, want string
	}{
		{"short", `echo "worker exploded" >&2; exit 1`, "stderr: worker exploded"},
		{"long", `head -c 10000 /dev/zero | tr '\0' x >&2; exit 1`, strings.Repeat("x", maxStderr)},
	} {
		fl := Fleet{Endpoints: []Endpoint{{Name: tc.name, Command: []string{"/bin/sh", "-c", tc.script}}}, Retries: -1}
		err := executeErr(fl, Options{Seed: 1}, "test.echo", []byte(`"e"`), 2)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %.200v, want it to quote %.40q", tc.name, err, tc.want)
		}
		if strings.Contains(err.Error(), strings.Repeat("x", maxStderr+1)) {
			t.Errorf("%s: error quotes more than %d bytes of stderr", tc.name, maxStderr)
		}
	}
}

// readLog parses test.echo-log's executed-replica log.
func readLog(t *testing.T, dir string) []int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "ran.log"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		t.Fatal(err)
	}
	var out []int
	for _, line := range strings.Fields(string(data)) {
		var v int
		fmt.Sscanf(line, "%d", &v)
		out = append(out, v)
	}
	return out
}

// TestFleetJournalResume is the checkpoint/resume story end to end: a run
// cancelled partway leaves a journal; re-dispatching the same job resumes
// from it, re-running only the un-journaled replicas, and the combined
// output is byte-identical to an uninterrupted in-process run. A third
// dispatch on the now-complete journal succeeds with no live endpoint at
// all.
func TestFleetJournalResume(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")
	payload, _ := json.Marshal(struct{ Dir string }{dir})
	const n = 10
	want := executeAll(t, InProcess{}, Options{Seed: 5}, "test.echo-log", payload, n)
	os.Remove(filepath.Join(dir, "ran.log"))

	req := func(ctx context.Context, progress func(int, int)) ExecRequest {
		return ExecRequest{Kind: "test.echo-log", Payload: payload, Replicas: n,
			Options: Options{Seed: 5, Workers: 1, Context: ctx, Progress: progress}}
	}
	fl := Fleet{Endpoints: localEndpoints(1), ChunkSize: 2, Journal: jdir}

	// First run: cancel once a few replicas have completed (and therefore
	// hit the journal — every result is journaled before it is delivered).
	ctx, cancel := context.WithCancel(context.Background())
	ex, err := fl.Dispatch(req(ctx, func(done, total int) {
		if done >= 3 {
			cancel()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	for range ex.Results() {
	}
	if err := ex.Wait(); err != context.Canceled {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	cancel()

	// The journal now holds the completed prefix of the run.
	jr, journaled, err := openJournal(jdir, req(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	jr.close()
	if len(journaled) < 3 {
		t.Fatalf("journal holds %d replicas after 3 progress ticks", len(journaled))
	}
	ranBefore := readLog(t, dir)

	// Resume: same job, same journal directory. Only the complement of the
	// journaled set may execute.
	got := executeAll(t, fl, Options{Seed: 5, Workers: 1}, "test.echo-log", payload, n)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("resumed replica %d = %s, want %s", i, got[i], want[i])
		}
	}
	reran := readLog(t, dir)[len(ranBefore):]
	sort.Ints(reran)
	var wantReran []int
	for i := 0; i < n; i++ {
		if _, ok := journaled[i]; !ok {
			wantReran = append(wantReran, i)
		}
	}
	if fmt.Sprint(reran) != fmt.Sprint(wantReran) {
		t.Errorf("resume executed replicas %v, want exactly the un-journaled %v", reran, wantReran)
	}

	// With the journal complete, a fleet of only broken endpoints still
	// serves the whole job from disk.
	dead := Fleet{Endpoints: []Endpoint{{Name: "dead", Command: []string{"/bin/false"}}}, Journal: jdir}
	got = executeAll(t, dead, Options{Seed: 5, Workers: 1}, "test.echo-log", payload, n)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("journal-only replica %d = %s, want %s", i, got[i], want[i])
		}
	}
	if after := readLog(t, dir); len(after) != len(ranBefore)+len(reran) {
		t.Error("the journal-only dispatch executed replicas it should have recovered from disk")
	}
}

// journalFile finds the single journal file written under dir.
func journalFile(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.journal"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("journal dir holds %v (err %v), want exactly one file", matches, err)
	}
	return matches[0]
}

// completeJournal runs a job to completion under a fresh journal dir and
// returns the dir, the request, and the expected results.
func completeJournal(t *testing.T, seed int64) (string, ExecRequest, [][]byte) {
	t.Helper()
	jdir := t.TempDir()
	payload, _ := json.Marshal(fmt.Sprintf("j%d", seed))
	const n = 6
	fl := Fleet{Endpoints: localEndpoints(1), ChunkSize: 2, Journal: jdir}
	want := executeAll(t, fl, Options{Seed: seed}, "test.echo", payload, n)
	return jdir, ExecRequest{Kind: "test.echo", Payload: payload, Replicas: n, Options: Options{Seed: seed}}, want
}

// TestFleetJournalTornTailRecovered: a torn final record — the parent died
// mid-append — is truncated away and the journal stays usable.
func TestFleetJournalTornTailRecovered(t *testing.T) {
	jdir, req, want := completeJournal(t, 41)
	f, err := os.OpenFile(journalFile(t, jdir), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A frame header promising 100 bytes, followed by only 4: torn.
	f.Write([]byte{0, 0, 0, 100, 'x', 'x', 'x', 'x'})
	f.Close()

	dead := Fleet{Endpoints: []Endpoint{{Name: "dead", Command: []string{"/bin/false"}}}, Journal: jdir}
	got := executeAll(t, dead, req.Options, req.Kind, req.Payload, req.Replicas)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("replica %d = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestFleetJournalCorruptionDetected: a flipped byte inside a record is a
// hard, reported error — never silently wrong results.
func TestFleetJournalCorruptionDetected(t *testing.T) {
	jdir, req, _ := completeJournal(t, 43)
	path := journalFile(t, jdir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first record's Result payload (the header
	// frame ends at 4+len(header); the record's own framing starts there).
	idx := bytes.Index(data, []byte(`"Result":"`))
	if idx < 0 {
		t.Fatal("no Result field found in journal")
	}
	data[idx+len(`"Result":"`)] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	fl := Fleet{Endpoints: localEndpoints(1), Journal: jdir}
	_, err = fl.Dispatch(req)
	if err == nil || !strings.Contains(err.Error(), "corrupted") {
		t.Fatalf("err = %v, want a corruption report", err)
	}
}

// TestFleetJournalChecksumCatchesReplicaRemap: a record whose Replica field
// was altered (bytes still valid JSON) fails its checksum — the CRC covers
// the replica index, not just the result bytes.
func TestFleetJournalChecksumCatchesReplicaRemap(t *testing.T) {
	jdir, req, _ := completeJournal(t, 47)
	path := journalFile(t, jdir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the second record's replica index from 1 to 7: same length,
	// valid JSON, wrong identity.
	idx := bytes.Index(data, []byte(`"Replica":1,`))
	if idx < 0 {
		t.Fatal("no replica-1 record found in journal")
	}
	data[idx+len(`"Replica":`)] = '7'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	fl := Fleet{Endpoints: localEndpoints(1), Journal: jdir}
	_, err = fl.Dispatch(req)
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("err = %v, want a checksum failure", err)
	}
}

// TestFleetJournalJobMismatch: a journal copied under another job's name is
// refused — the header binds the file to the job that wrote it.
func TestFleetJournalJobMismatch(t *testing.T) {
	jdir, _, _ := completeJournal(t, 53)
	other := ExecRequest{Kind: "test.echo", Payload: []byte(`"different"`), Replicas: 6, Options: Options{Seed: 53}}
	src, _ := os.ReadFile(journalFile(t, jdir))
	if err := os.WriteFile(journalPath(jdir, other), src, 0o644); err != nil {
		t.Fatal(err)
	}
	fl := Fleet{Endpoints: localEndpoints(1), Journal: jdir}
	_, err := fl.Dispatch(other)
	if err == nil || !strings.Contains(err.Error(), "different job") {
		t.Fatalf("err = %v, want a job-mismatch report", err)
	}
}

// TestProgressSingleTickUnderShardRetry pins the Progress contract under
// retries: a re-leased chunk re-runs replicas whose results already arrived,
// and the collector must tick done exactly once per distinct replica — the
// sequence is 1..n with no repeats regardless of crash history.
func TestProgressSingleTickUnderShardRetry(t *testing.T) {
	t.Run("fleet", func(t *testing.T) {
		dir := t.TempDir()
		payload, _ := json.Marshal(struct {
			Dir     string
			Replica int
		}{dir, 4})
		const n = 9
		var mu sync.Mutex
		var ticks []int
		err := executeErr(Fleet{Endpoints: localEndpoints(2), ChunkSize: 3}, Options{Seed: 1, Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if total != n {
				t.Errorf("progress total = %d, want %d", total, n)
			}
			ticks = append(ticks, done)
		}}, "test.crash-once", payload, n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, "crashed")); err != nil {
			t.Fatal("the injected crash never fired; the retry path was not exercised")
		}
		mu.Lock()
		defer mu.Unlock()
		if len(ticks) != n {
			t.Fatalf("progress ticked %d times, want %d (%v)", len(ticks), n, ticks)
		}
		for i, d := range ticks {
			if d != i+1 {
				t.Fatalf("tick %d reported done=%d, want %d (a retried replica double-ticked)", i, d, i+1)
			}
		}
	})
}
