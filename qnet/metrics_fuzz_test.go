package qnet

import (
	"bytes"
	"encoding/json"
	"testing"

	"qnp/internal/sim"
)

// metricsFuzzSeeds are the wire forms the round-trip tests produce: a
// full-mode and a streaming-mode run of the streaming round-trip scenario,
// the hand-built mid-run value of TestUnmarshalPendingState, and the null
// records that used to panic the decoder.
func metricsFuzzSeeds(f *testing.F) [][]byte {
	seeds := [][]byte{
		[]byte(`{"Circuits":[null]}`),
		[]byte(`{"Circuits":[{"ID":"c","Requests":[null]}]}`),
		[]byte(`{"Mode":1,"Circuits":[{"ID":"c","Delivered":2}]}`),
	}
	for _, mode := range []MetricsMode{MetricsFull, MetricsStreaming} {
		res, err := Scenario{
			Name:     "fuzz-seed",
			Config:   Config{Seed: 11, MetricsMode: mode},
			Topology: ChainTopo(3),
			Circuits: []CircuitSpec{{
				ID: "c", Src: "n0", Dst: "n2", Fidelity: 0.8,
				Workload: KeepBatch{Count: 2, Pairs: 3}, RecordFidelity: true,
			}},
			Horizon: 10 * sim.Second,
			WaitFor: []CircuitID{"c"},
		}.Run()
		if err != nil {
			f.Fatal(err)
		}
		blob, err := json.Marshal(res.Metrics)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, blob)
	}
	cm := newCircuitMetrics("c", "a", "b", MetricsFull)
	cm.Established = true
	cm.noteSubmit(&RequestMetrics{ID: "r0", SubmittedAt: 0, Pairs: 2})
	cm.PendingArrival = true
	blob, err := json.Marshal(&Metrics{Name: "pending", Circuits: []*CircuitMetrics{cm}})
	if err != nil {
		f.Fatal(err)
	}
	return append(seeds, blob)
}

// FuzzMetricsJSON: metrics decoded from a worker frame either fail with an
// error or answer every query without panicking, and re-encode to a stable
// wire form.
func FuzzMetricsJSON(f *testing.F) {
	for _, s := range metricsFuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var m Metrics
		if err := json.Unmarshal(b, &m); err != nil {
			return
		}
		ids := make([]CircuitID, 0, len(m.Circuits))
		for _, c := range m.Circuits {
			ids = append(ids, c.ID)
			if m.Circuit(c.ID) == nil {
				t.Fatalf("circuit %q missing from the decoded index", c.ID)
			}
			c.EER(m.Start, m.End)
			c.DeliveredSince(m.Start)
			c.Latencies(m.Start)
			c.MeanFidelity()
			c.AllComplete()
			c.Lifetime(m.End)
		}
		m.waitSatisfied(ids)
		m.TotalDelivered()
		m.AggregateEER()
		m.TimeWeightedEER()
		m.LatencySummary()
		m.FidelitySummary()
		MeanCircuitEER([]*Metrics{&m}, "c")

		enc, err := json.Marshal(&m)
		if err != nil {
			t.Fatalf("re-encoding decoded metrics: %v", err)
		}
		var again Metrics
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("decoding re-encoded metrics: %v\n%s", err, enc)
		}
		if enc2, err := json.Marshal(&again); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not stable (err=%v)\n%s\n%s", err, enc, enc2)
		}
	})
}

// TestUnmarshalRejectsMissingRecords: null circuit and request records,
// and a streaming circuit without its aggregates, decode to an error.
func TestUnmarshalRejectsMissingRecords(t *testing.T) {
	for _, blob := range []string{
		`{"Circuits":[null]}`,
		`{"Circuits":[{"ID":"c","Requests":[null]}]}`,
		`{"Mode":1,"Circuits":[{"ID":"c","Delivered":2}]}`,
	} {
		var m Metrics
		if err := json.Unmarshal([]byte(blob), &m); err == nil {
			t.Errorf("%s decoded without error", blob)
		}
	}
}
