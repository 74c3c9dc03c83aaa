package qnet

import (
	"encoding/json"
	"fmt"
	"math"

	"qnp/internal/quantum"
	"qnp/internal/runner"
	"qnp/internal/sim"
	"qnp/internal/stats"
)

// MetricsMode selects how a scenario records its metrics.
type MetricsMode int

const (
	// MetricsFull (the default) keeps every per-delivery and per-request
	// record: DeliveryTimes, Fidelities, States and Requests hold one
	// entry per event, so any window or distribution can be queried
	// exactly after the run. Memory is O(deliveries + requests).
	MetricsFull MetricsMode = iota
	// MetricsStreaming drops the per-delivery and per-request records and
	// feeds the same observations into mergeable constant-memory
	// aggregates (DeliveryAgg, LatencyAgg, FidelityAgg) instead: memory
	// is independent of the delivery count, which is what makes
	// city-scale runs (hundreds of nodes, millions of deliveries)
	// possible. Counters and mean-style statistics stay exact;
	// percentile, CDF and sub-window queries are histogram-approximated
	// once a series exceeds stats.ExactThreshold samples (see the
	// internal/stats package comment for the bucket policy). Recording
	// mode never changes the simulation itself: the event sequence, and
	// therefore every counter, is bit-identical between modes.
	MetricsStreaming
)

// streamingMode reports whether the mode drops records for aggregates.
func (m MetricsMode) streaming() bool { return m == MetricsStreaming }

// RequestMetrics records one request submitted through a scenario workload.
type RequestMetrics struct {
	ID          RequestID
	SubmittedAt sim.Time
	CompletedAt sim.Time
	// Done reports head-end completion (OnComplete fired).
	Done bool
	// Rejected reports that policing refused the request (OnReject fired).
	Rejected bool
	// Pairs is the request's NumPairs (0 for open-ended requests).
	Pairs int
}

// CircuitMetrics aggregates what one circuit of a scenario did. Counters
// are taken at the circuit's head-end, the same vantage point the paper's
// evaluation measures from; Expired sums both ends.
type CircuitMetrics struct {
	ID   CircuitID
	Src  string
	Dst  string
	Path []string
	// Established reports whether the circuit installed; when false, Err
	// holds the routing/signalling error and all counters stay zero.
	Established bool
	Err         string
	Plan        Plan
	// CandidateIndex is the k-shortest-path candidate the controller placed
	// the circuit on: 0 is the shortest path (and the only possibility
	// unless CircuitSpec.Candidates > 1), >0 a re-route around contention.
	CandidateIndex int `json:",omitempty"`

	// Lifetime stamps for churn scenarios. ArrivedAt is when the scenario
	// offered the circuit (for pre-installed circuits, when its installation
	// began); EstablishedAt is when its CONFIRM returned to the head-end;
	// TornDownAt is when it departed (zero = it lived to the end of the
	// run). AdmissionRejected marks arrivals that admission control refused
	// — the circuit never installs, Established stays false, and Err holds
	// the allocation-versus-demand detail.
	ArrivedAt         sim.Time
	EstablishedAt     sim.Time
	TornDownAt        sim.Time
	AdmissionRejected bool

	// Delivered counts head-end pair (or measurement) deliveries. In
	// MetricsFull the delivery times ride along in order, and with
	// CircuitSpec.RecordFidelity so do the exact pair fidelity and
	// declared Bell state at each delivery. In MetricsStreaming these
	// slices stay nil and the aggregates below hold the same series.
	Delivered      int
	DeliveryTimes  []sim.Time          `json:",omitempty"`
	Fidelities     []float64           `json:",omitempty"`
	States         []quantum.BellIndex `json:",omitempty"`
	EarlyDelivered int
	Expired        int
	Rejected       int
	// Requests holds the per-request records (MetricsFull only).
	Requests []*RequestMetrics `json:",omitempty"`

	// Submitted and Completed count workload request submissions and
	// head-end completions — maintained in both modes, they are the
	// request totals that survive MetricsStreaming.
	Submitted int
	Completed int

	// Streaming aggregates (MetricsStreaming only): constant-memory
	// summaries of delivery times (seconds), request completion latencies
	// (seconds) and recorded per-delivery fidelities. Bell states are not
	// aggregated — a state histogram has no mean, and the per-delivery
	// pairing with fidelity is exactly the record MetricsStreaming drops.
	DeliveryAgg *stats.Agg `json:",omitempty"`
	LatencyAgg  *stats.Agg `json:",omitempty"`
	FidelityAgg *stats.Agg `json:",omitempty"`

	// PendingFinite counts finite requests submitted but not yet
	// completed or rejected — the scenario wait loop's early-stop state.
	// Exported (and serialized) so a decoded Metrics answers
	// waitSatisfied and AllComplete exactly like the original; on decode
	// of a MetricsFull value it is cross-checked against Requests.
	PendingFinite int `json:",omitempty"`
	// PendingArrival marks a scheduled (churn) circuit whose arrival has
	// not resolved yet — WaitFor treats it as incomplete. True in a
	// completed run only for arrivals the horizon cut off before they
	// fired; serialized so the wait state survives the wire (see
	// Metrics.UnmarshalJSON).
	PendingArrival bool `json:",omitempty"`

	reqByID map[RequestID]*RequestMetrics
	// streaming mirrors Metrics.Mode for the recording fast path.
	streaming bool
}

// newCircuitMetrics builds the per-circuit recording state for a mode.
func newCircuitMetrics(id CircuitID, src, dst string, mode MetricsMode) *CircuitMetrics {
	cm := &CircuitMetrics{
		ID: id, Src: src, Dst: dst,
		reqByID:   make(map[RequestID]*RequestMetrics),
		streaming: mode.streaming(),
	}
	if cm.streaming {
		cm.DeliveryAgg = new(stats.Agg)
		cm.LatencyAgg = new(stats.Agg)
	}
	return cm
}

// noteSubmit records a workload request submission. Both modes keep the
// live in-flight index (completion and rejection look requests up by ID);
// only MetricsFull keeps the record itself.
func (c *CircuitMetrics) noteSubmit(rm *RequestMetrics) {
	c.Submitted++
	if !c.streaming {
		c.Requests = append(c.Requests, rm)
	}
	c.reqByID[rm.ID] = rm
	if rm.Pairs > 0 {
		c.PendingFinite++
	}
}

// noteDelivery records one head-end delivery; with record set, the pair
// fidelity and declared Bell state ride along.
func (c *CircuitMetrics) noteDelivery(at sim.Time, record bool, f float64, state quantum.BellIndex) {
	c.Delivered++
	if c.streaming {
		c.DeliveryAgg.Add(at.Seconds())
		if record {
			if c.FidelityAgg == nil {
				c.FidelityAgg = new(stats.Agg)
			}
			c.FidelityAgg.Add(f)
		}
		return
	}
	c.DeliveryTimes = append(c.DeliveryTimes, at)
	if record {
		c.Fidelities = append(c.Fidelities, f)
		c.States = append(c.States, state)
	}
}

// noteComplete records a head-end request completion at now. In
// MetricsStreaming the completion latency feeds LatencyAgg and the
// in-flight entry is dropped — memory tracks the in-flight request count,
// not the submission total.
func (c *CircuitMetrics) noteComplete(id RequestID, now sim.Time) {
	rm := c.request(id)
	if rm == nil || rm.Done {
		return
	}
	rm.Done = true
	rm.CompletedAt = now
	c.Completed++
	if rm.Pairs > 0 {
		c.PendingFinite--
	}
	if c.streaming {
		c.LatencyAgg.Add(now.Sub(rm.SubmittedAt).Seconds())
		delete(c.reqByID, id)
	}
}

// noteReject records a policing rejection of a submitted request.
func (c *CircuitMetrics) noteReject(id RequestID) {
	c.Rejected++
	rm := c.request(id)
	if rm == nil || rm.Rejected {
		return
	}
	rm.Rejected = true
	if rm.Pairs > 0 && !rm.Done {
		c.PendingFinite--
	}
	if c.streaming {
		delete(c.reqByID, id)
	}
}

// Lifetime is the circuit's established lifespan: EstablishedAt to
// TornDownAt, the latter defaulting to end (the run's End) for circuits
// that never departed. Zero for circuits that never established.
func (c *CircuitMetrics) Lifetime(end sim.Time) sim.Duration {
	if !c.Established {
		return 0
	}
	to := c.TornDownAt
	if to == 0 {
		to = end
	}
	return to.Sub(c.EstablishedAt)
}

// DeliveredSince counts deliveries at or after from — the steady-state
// window used by latency-versus-throughput scenarios. Exact in
// MetricsFull; in MetricsStreaming it is exact when from precedes the
// first delivery and histogram-approximated otherwise.
func (c *CircuitMetrics) DeliveredSince(from sim.Time) int {
	if c.streaming {
		if c.Delivered == 0 {
			return 0
		}
		return int(c.DeliveryAgg.CountAtOrAbove(from.Seconds()))
	}
	n := 0
	for _, t := range c.DeliveryTimes {
		if t >= from {
			n++
		}
	}
	return n
}

// DeliveredBetween counts deliveries in the window [from, to]. Exactness
// matches DeliveredSince: MetricsStreaming is exact when the window
// covers every delivery (the usual [Start, End] query) and
// histogram-approximated for narrower windows.
func (c *CircuitMetrics) DeliveredBetween(from, to sim.Time) int {
	if to < from {
		return 0
	}
	if c.streaming {
		if c.Delivered == 0 {
			return 0
		}
		n := c.DeliveryAgg.CountAtOrAbove(from.Seconds())
		if to.Seconds() >= c.DeliveryAgg.Max {
			return int(n)
		}
		return int(n - c.DeliveryAgg.CountAtOrAbove(math.Nextafter(to.Seconds(), math.Inf(1))))
	}
	n := 0
	for _, t := range c.DeliveryTimes {
		if t >= from && t <= to {
			n++
		}
	}
	return n
}

// EER is the measured entanglement end-to-end rate: deliveries in the
// window [from, to] per second. Deliveries outside the window — possible
// past to when an early-stop run overshoots its horizon — are excluded.
func (c *CircuitMetrics) EER(from, to sim.Time) float64 {
	w := to.Sub(from).Seconds()
	if w <= 0 {
		return 0
	}
	return float64(c.DeliveredBetween(from, to)) / w
}

// Latencies returns the completion latencies (seconds) of finished requests
// submitted at or after from, in submission order. MetricsFull only: in
// MetricsStreaming the per-request records do not exist and the result is
// nil — query LatencyAgg (or Metrics.LatencySummary) instead.
func (c *CircuitMetrics) Latencies(from sim.Time) []float64 {
	var out []float64
	for _, r := range c.Requests {
		if r.Done && r.SubmittedAt >= from {
			out = append(out, r.CompletedAt.Sub(r.SubmittedAt).Seconds())
		}
	}
	return out
}

// MeanFidelity averages the recorded per-delivery fidelities (0 when the
// scenario did not record them). Both modes divide the correctly rounded
// exact sum by the count, so they agree bit for bit: full mode folds its
// records into a stats.Agg, streaming mode reads its FidelityAgg.
func (c *CircuitMetrics) MeanFidelity() float64 {
	if c.streaming {
		if c.FidelityAgg == nil {
			return 0
		}
		return c.FidelityAgg.Mean()
	}
	var agg stats.Agg
	for _, f := range c.Fidelities {
		agg.Add(f)
	}
	return agg.Mean()
}

// AllComplete reports whether every submitted finite request finished. In
// MetricsStreaming, where per-request records are gone, it reports that
// no finite request is pending and none was rejected — identical unless a
// rejected open-ended request is in play (a rejected finite request makes
// both modes report false forever).
func (c *CircuitMetrics) AllComplete() bool {
	if !c.Established {
		return false
	}
	if c.streaming {
		return c.PendingFinite == 0 && c.Rejected == 0
	}
	for _, r := range c.Requests {
		if r.Pairs > 0 && !r.Done {
			return false
		}
	}
	return true
}

// request looks up the bookkeeping record for a workload-submitted request.
func (c *CircuitMetrics) request(id RequestID) *RequestMetrics {
	if c.reqByID == nil {
		return nil
	}
	return c.reqByID[id]
}

// Metrics is a scenario run's unified result: per-circuit delivery,
// latency, fidelity and policing counters plus network-wide totals.
type Metrics struct {
	Name string
	// Mode records how the run's metrics were captured (MetricsFull keeps
	// records, MetricsStreaming keeps aggregates); helpers branch on it.
	Mode MetricsMode `json:",omitempty"`
	// Start is the virtual time traffic opened (after circuit
	// installation); End is where the run stopped. The measurement window
	// for rate helpers is [Start, End].
	Start sim.Time
	End   sim.Time
	// Err is set on replicas that failed to run (RunReplicated keeps going).
	Err string

	Circuits []*CircuitMetrics
	byID     map[CircuitID]*CircuitMetrics

	// Admission outcomes across circuit arrivals: Admitted counts circuits
	// that established, RejectedAtAdmission those the admission control
	// refused (allocation below their MinEER demand). Circuits that failed
	// for other reasons (no feasible plan) count toward neither.
	Admitted            int
	RejectedAtAdmission int

	Nodes             int
	Links             int
	ClassicalMessages uint64
	// NodeStats holds every node's data-plane counters (swaps, discards,
	// expiries) keyed by node ID.
	NodeStats map[string]NodeStats
}

// Circuit returns a circuit's metrics, or nil for unknown IDs.
func (m *Metrics) Circuit(id CircuitID) *CircuitMetrics { return m.byID[id] }

// UnmarshalJSON decodes metrics produced by a worker process (the default
// encoding covers every exported field exactly: counters are integers or
// float64s, which Go's JSON codec round-trips bit-identically, and the
// streaming aggregates define their own exact wire form) and rebuilds the
// unexported lookup indexes, so a decoded Metrics answers Circuit and
// request queries like the original.
//
// The wait-loop state (PendingFinite, PendingArrival) is serialized
// verbatim, so even a Metrics captured mid-run decodes into the same wait
// state — historically PendingArrival was silently dropped, letting a
// mid-run serialization decode into a value whose waitSatisfied answer
// differed from the original's. Workers only serialize completed runs,
// and for MetricsFull values that invariant is enforced: PendingFinite is
// recomputed from the request records and a mismatch (a hand-edited or
// corrupt stream) is rejected rather than decoded into a wrong wait
// state. MetricsStreaming carries no records to check against, so its
// counters are trusted as serialized.
//
// A null circuit or request record, and a streaming circuit without its
// delivery and latency aggregates, are rejected too: no encoder writes
// them, and the queries would dereference them.
func (m *Metrics) UnmarshalJSON(b []byte) error {
	type plain Metrics // shed the method set to avoid recursion
	if err := json.Unmarshal(b, (*plain)(m)); err != nil {
		return err
	}
	m.byID = make(map[CircuitID]*CircuitMetrics, len(m.Circuits))
	for i, cm := range m.Circuits {
		if cm == nil {
			return fmt.Errorf("qnet: circuit record %d is null", i)
		}
		m.byID[cm.ID] = cm
		cm.streaming = m.Mode.streaming()
		if cm.streaming && (cm.DeliveryAgg == nil || cm.LatencyAgg == nil) {
			return fmt.Errorf("qnet: streaming circuit %q lacks its delivery or latency aggregate", cm.ID)
		}
		cm.reqByID = make(map[RequestID]*RequestMetrics, len(cm.Requests))
		pending := 0
		for j, rm := range cm.Requests {
			if rm == nil {
				return fmt.Errorf("qnet: circuit %q: request record %d is null", cm.ID, j)
			}
			cm.reqByID[rm.ID] = rm
			if rm.Pairs > 0 && !rm.Done && !rm.Rejected {
				pending++
			}
		}
		if !cm.streaming && pending != cm.PendingFinite {
			return fmt.Errorf("qnet: circuit %q: PendingFinite %d does not match its %d pending request records", cm.ID, cm.PendingFinite, pending)
		}
	}
	return nil
}

// TotalDelivered sums deliveries over all circuits.
func (m *Metrics) TotalDelivered() int {
	n := 0
	for _, c := range m.Circuits {
		n += c.Delivered
	}
	return n
}

// AggregateEER is the network-wide delivered pair rate over the run window.
func (m *Metrics) AggregateEER() float64 {
	w := m.End.Sub(m.Start).Seconds()
	if w <= 0 {
		return 0
	}
	return float64(m.TotalDelivered()) / w
}

// TimeWeightedEER is the delivered pair rate per circuit-second of
// established lifetime: total deliveries divided by the summed lifetimes of
// the circuits that carried them. Under churn this weighs each circuit by
// how long it actually held its links, where AggregateEER (which divides by
// the whole run window) under-reports scenarios whose circuits live
// briefly. With every circuit alive for the full window the two agree up to
// the number of circuits.
func (m *Metrics) TimeWeightedEER() float64 {
	var life float64
	for _, c := range m.Circuits {
		life += c.Lifetime(m.End).Seconds()
	}
	if life <= 0 {
		return 0
	}
	return float64(m.TotalDelivered()) / life
}

// LatencySummary aggregates every circuit's completion latencies
// (seconds) into one mergeable summary, in circuit declaration order: the
// per-request records in MetricsFull, the merged LatencyAggs in
// MetricsStreaming. Mean and count are exact in both modes; percentiles
// are exact until the series outgrows stats.ExactThreshold.
func (m *Metrics) LatencySummary() *stats.Agg {
	agg := new(stats.Agg)
	for _, c := range m.Circuits {
		if c.streaming {
			agg.Merge(c.LatencyAgg)
			continue
		}
		for _, r := range c.Requests {
			if r.Done {
				agg.Add(r.CompletedAt.Sub(r.SubmittedAt).Seconds())
			}
		}
	}
	return agg
}

// FidelitySummary aggregates every circuit's recorded per-delivery
// fidelities into one mergeable summary, in circuit declaration order;
// empty when no circuit set RecordFidelity.
func (m *Metrics) FidelitySummary() *stats.Agg {
	agg := new(stats.Agg)
	for _, c := range m.Circuits {
		if c.streaming {
			agg.Merge(c.FidelityAgg)
			continue
		}
		for _, f := range c.Fidelities {
			agg.Add(f)
		}
	}
	return agg
}

// waitSatisfied reports whether every listed circuit has no finite request
// still pending — the scenario's early-stop condition. A scheduled (churn)
// circuit is unsatisfied until its arrival resolves; a departed circuit is
// always satisfied (its unfinished requests died with it).
func (m *Metrics) waitSatisfied(ids []CircuitID) bool {
	for _, id := range ids {
		c := m.byID[id]
		if c == nil {
			continue
		}
		if c.PendingArrival {
			return false
		}
		if c.TornDownAt == 0 && c.Established && c.PendingFinite > 0 {
			return false
		}
	}
	return true
}

// MeanCircuitEER averages one circuit's full-window EER across replicas,
// skipping failed replicas — the natural aggregate for RunReplicated.
func MeanCircuitEER(ms []*Metrics, id CircuitID) float64 {
	var s runner.Stats
	for _, m := range ms {
		if m == nil || m.Err != "" {
			continue
		}
		if c := m.Circuit(id); c != nil {
			s.Add(c.EER(m.Start, m.End))
		}
	}
	return s.Mean()
}

// MeanAggregateEER averages the network-wide EER across replicas, skipping
// failed replicas.
func MeanAggregateEER(ms []*Metrics) float64 {
	var s runner.Stats
	for _, m := range ms {
		if m == nil || m.Err != "" {
			continue
		}
		s.Add(m.AggregateEER())
	}
	return s.Mean()
}
