package runner

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestTimeoutResolution pins the one-knob liveness contract: the request's
// Timeout wins, then the backend's configured default, then the package
// default; negative at either level disables the watchdog.
func TestTimeoutResolution(t *testing.T) {
	for _, tc := range []struct {
		req, backend, want time.Duration
	}{
		{0, 0, defaultTimeout},
		{0, time.Minute, time.Minute},
		{time.Second, time.Minute, time.Second},
		{time.Second, 0, time.Second},
		{-1, time.Minute, 0},
		{-1, 0, 0},
		{0, -1, 0},
	} {
		got := ExecRequest{Timeout: tc.req}.timeout(tc.backend)
		if got != tc.want {
			t.Errorf("timeout(req=%v, backend=%v) = %v, want %v", tc.req, tc.backend, got, tc.want)
		}
	}
}

// TestRequestTimeoutOverridesBackend: an ExecRequest.Timeout beats the
// backend's own (here uselessly long) heartbeat bound. The replica SIGSTOPs
// its worker, silencing results and heartbeats alike, so only the
// request-level bound can end the run.
func TestRequestTimeoutOverridesBackend(t *testing.T) {
	payload, _ := json.Marshal(struct {
		Dir     string
		Replica int
	}{t.TempDir(), 0})
	fl := Fleet{Endpoints: localEndpoints(1), Heartbeat: time.Hour, Retries: -1}
	ex, err := fl.Dispatch(ExecRequest{Kind: "test.stop-once", Payload: payload, Replicas: 1, Options: Options{Seed: 1}, Timeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for range ex.Results() {
	}
	err = ex.Wait()
	if err == nil || !strings.Contains(err.Error(), "for 300ms") {
		t.Fatalf("err = %v, want the request-level 300ms heartbeat bound to fire", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("timeout took %v to fire", elapsed)
	}
}

// TestExecutionProgressAndLeases: the pull-style Execution observers. The
// stream-side Progress counts emitted results; backends without lease
// state answer Leases with nil.
func TestExecutionProgressAndLeases(t *testing.T) {
	const n = 5
	ex, err := InProcess{}.Dispatch(ExecRequest{Kind: "test.echo", Payload: []byte(`"o"`), Replicas: n, Options: Options{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Leases() != nil {
		t.Error("InProcess execution reports leases; only Fleet has lease state")
	}
	seen := 0
	for r := range ex.Results() {
		seen++
		done, total := ex.Progress()
		if total != n {
			t.Fatalf("Progress total = %d, want %d", total, n)
		}
		if done < seen {
			t.Fatalf("after receiving replica %d, Progress done = %d < %d received", r.Replica, done, seen)
		}
	}
	if err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	if done, _ := ex.Progress(); done != n {
		t.Errorf("final Progress done = %d, want %d", done, n)
	}
}

// TestDispatchZeroReplicas: an empty request is over before it begins on
// every backend — no results, no error, and no worker spawned (the fleet's
// only endpoint could not even start one).
func TestDispatchZeroReplicas(t *testing.T) {
	dead := Fleet{Endpoints: []Endpoint{{Name: "dead", Command: []string{"/nonexistent/worker"}}}}
	for name, b := range map[string]Backend{"in-process": InProcess{}, "fleet": dead} {
		ex, err := b.Dispatch(ExecRequest{Kind: "test.echo", Replicas: 0})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for r := range ex.Results() {
			t.Errorf("%s: empty run delivered replica %d", name, r.Replica)
		}
		if err := ex.Wait(); err != nil {
			t.Errorf("%s: Wait = %v", name, err)
		}
		if done, total := ex.Progress(); done != 0 || total != 0 {
			t.Errorf("%s: Progress = %d/%d, want 0/0", name, done, total)
		}
	}
}

// TestWaitWithoutDraining: the results channel is buffered for the full
// replica count, so Wait without consuming Results must not deadlock.
func TestWaitWithoutDraining(t *testing.T) {
	const n = 50
	ex, err := InProcess{}.Dispatch(ExecRequest{Kind: "test.echo", Payload: []byte(`"d"`), Replicas: n, Options: Options{Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	i := 0
	for r := range ex.Results() {
		want, _ := json.Marshal(fmt.Sprintf(`"d"/r%d/s%d`, i, DeriveSeed(4, i)))
		if r.Replica != i || string(r.Data) != string(want) {
			t.Fatalf("post-Wait result %d = {%d %s}, want {%d %s}", i, r.Replica, r.Data, i, want)
		}
		i++
	}
	if i != n {
		t.Fatalf("drained %d of %d buffered results after Wait", i, n)
	}
}
