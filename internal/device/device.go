package device

import (
	"fmt"
	"math"
	"math/rand"

	"qnp/internal/hardware"
	"qnp/internal/linalg"
	"qnp/internal/quantum"
	"qnp/internal/sim"
	"qnp/internal/werner"
)

// Physics selects the pair-state engine a device (and the pairs it creates)
// runs on.
type Physics int

// The two physics engines.
const (
	// PhysicsExact tracks every pair as a 4×4 density matrix through the
	// exact channel models in internal/quantum. The default.
	PhysicsExact Physics = iota
	// PhysicsWerner tracks a single Werner parameter per pair using the
	// closed forms in internal/werner — O(1) per operation instead of
	// O(d²) matrix algebra, at the cost of re-twirling the state to Werner
	// form after each step. RNG draw order matches the exact engine, so
	// the event timeline is identical under both settings.
	PhysicsWerner
)

func (p Physics) String() string {
	if p == PhysicsWerner {
		return "werner"
	}
	return "exact"
}

// Device is one node's quantum hardware: its qubit memory (managed QMM-style
// with alloc/free), its serial operation timeline (the quantum task
// scheduler of Fig. 4 — current platforms execute one local quantum
// operation at a time), and the hardware parameter set.
type Device struct {
	id      string
	params  hardware.Params
	physics Physics
	sim     *sim.Simulation
	rng     *rand.Rand
	qubits  []*Qubit
	// links groups the communication qubits by the link they serve (the
	// shared pool under the empty name), with a free count each, so the
	// link layer's per-dispatch memory check (LinkMemory) is O(1).
	links []*commLink
	// busyUntil is the quantum task scheduler's horizon: local operations
	// submitted while another runs queue behind it.
	busyUntil sim.Time
	onFree    []func()
	// notifying guards against re-entrant free-notification storms.
	notifying bool
	// ws pools the small matrices the device's quantum operations burn
	// through. One workspace per device is safe: all devices of a network
	// live on one simulation goroutine, and buffers may migrate freely
	// between the pools of devices in the same simulation.
	ws *linalg.Workspace
	// swapFx is the exact engine's entanglement swap for params, built on
	// the first exact swap.
	swapFx *quantum.SwapEffects
	// freeSwaps recycles the records of swaps on the task scheduler.
	freeSwaps *swapOp
}

// commLink is the set of communication qubits dedicated to one link (or
// shared across links, under the empty name), in allocation order.
type commLink struct {
	name   string
	qubits []*Qubit
	free   int
}

// findLink returns the group for link, or nil if the device has none.
func (d *Device) findLink(link string) *commLink {
	for _, cl := range d.links {
		if cl.name == link {
			return cl
		}
	}
	return nil
}

// commLink returns the group for link, creating an empty one if the device
// has none yet (qubits added later join it).
func (d *Device) commLink(link string) *commLink {
	if cl := d.findLink(link); cl != nil {
		return cl
	}
	cl := &commLink{name: link}
	d.links = append(d.links, cl)
	return cl
}

// LinkMemory is the communication memory a device offers one link: the
// qubits dedicated to the link first, then the shared ones. The link layer
// resolves it once per engine, so its per-dispatch memory checks are O(1)
// and do no lookups.
type LinkMemory struct {
	own, shared *commLink
}

// LinkMemory resolves the communication memory usable on link.
func (d *Device) LinkMemory(link string) LinkMemory {
	m := LinkMemory{own: d.commLink(link)}
	if link != "" {
		m.shared = d.commLink("")
	}
	return m
}

// Free reports the number of free communication qubits usable on the link.
func (m LinkMemory) Free() int { return m.own.freeCount() + m.shared.freeCount() }

// freeCount is the group's free count (0 for a nil group).
func (cl *commLink) freeCount() int {
	if cl == nil {
		return 0
	}
	return cl.free
}

// Alloc allocates a free communication qubit usable on the link: first a
// link-dedicated one, then a shared one.
func (m LinkMemory) Alloc() (*Qubit, bool) {
	if q := m.own.alloc(); q != nil {
		return q, true
	}
	if q := m.shared.alloc(); q != nil {
		return q, true
	}
	return nil, false
}

// New creates a device for node id with the given hardware parameters,
// running the exact density-matrix engine.
func New(s *sim.Simulation, id string, params hardware.Params) *Device {
	return NewWithPhysics(s, id, params, PhysicsExact)
}

// NewWithPhysics creates a device running the given pair-state engine.
func NewWithPhysics(s *sim.Simulation, id string, params hardware.Params, ph Physics) *Device {
	return &Device{
		id:      id,
		params:  params,
		physics: ph,
		sim:     s,
		rng:     s.Rand(),
		ws:      linalg.NewWorkspace(),
	}
}

// Physics returns the pair-state engine this device runs on.
func (d *Device) Physics() Physics { return d.physics }

// Workspace exposes the device's matrix pool so co-located layers (the link
// layer materialising fresh pair states) can share it.
func (d *Device) Workspace() *linalg.Workspace { return d.ws }

// ID returns the node ID.
func (d *Device) ID() string { return d.id }

// Params returns the hardware parameter set.
func (d *Device) Params() hardware.Params { return d.params }

// AddCommQubits adds n communication qubits dedicated to the named link
// (empty string = shared across links, as on the near-term single-electron
// platform).
func (d *Device) AddCommQubits(link string, n int) {
	cl := d.commLink(link)
	for i := 0; i < n; i++ {
		q := &Qubit{
			dev:       d,
			id:        len(d.qubits),
			kind:      Communication,
			link:      cl,
			lifetimes: Lifetimes(d.params.Electron),
			free:      true,
		}
		d.qubits = append(d.qubits, q)
		cl.qubits = append(cl.qubits, q)
		cl.free++
	}
}

// AddStorageQubits adds n storage (carbon) qubits.
func (d *Device) AddStorageQubits(n int) {
	for i := 0; i < n; i++ {
		d.qubits = append(d.qubits, &Qubit{
			dev:       d,
			id:        len(d.qubits),
			kind:      Storage,
			lifetimes: Lifetimes(d.params.Carbon),
			free:      true,
		})
	}
}

// AllocComm allocates a free communication qubit usable on the given link:
// first a link-dedicated one, then a shared one.
func (d *Device) AllocComm(link string) (*Qubit, bool) {
	return d.LinkMemory(link).Alloc()
}

// alloc takes the group's first free qubit, or returns nil (also for a nil
// group).
func (cl *commLink) alloc() *Qubit {
	if cl == nil || cl.free == 0 {
		return nil
	}
	for _, q := range cl.qubits {
		if q.free {
			q.free = false
			cl.free--
			return q
		}
	}
	panic(fmt.Sprintf("device: link %q counts %d free qubits but holds none", cl.name, cl.free))
}

// AllocStorage allocates a free storage qubit.
func (d *Device) AllocStorage() (*Qubit, bool) {
	for _, q := range d.qubits {
		if q.free && q.kind == Storage {
			q.free = false
			return q, true
		}
	}
	return nil, false
}

// FreeCommCount reports the number of free communication qubits usable on
// the given link.
func (d *Device) FreeCommCount(link string) int {
	// A query resolves without creating groups for links it names.
	m := LinkMemory{own: d.findLink(link)}
	if link != "" {
		m.shared = d.findLink("")
	}
	return m.Free()
}

// free returns a qubit to the pool and fires free-notifications. It resets
// the qubit's lifetimes to its native kind (a carbon that held a moved state
// stays carbon; an electron stays electron).
func (d *Device) free(q *Qubit) {
	if q.free {
		return
	}
	q.free = true
	q.pair = nil
	if q.link != nil {
		q.link.free++
	}
	if q.kind == Communication {
		q.lifetimes = Lifetimes(d.params.Electron)
	} else {
		q.lifetimes = Lifetimes(d.params.Carbon)
	}
	d.notifyFree()
}

func (d *Device) notifyFree() {
	if d.notifying {
		return
	}
	d.notifying = true
	for _, fn := range d.onFree {
		fn()
	}
	d.notifying = false
}

// Free releases an allocated qubit that holds no pair (or discards the
// pair's local half if it does).
func (d *Device) Free(q *Qubit) {
	if q.pair != nil {
		d.Discard(q.pair)
		return
	}
	d.free(q)
}

// OnFree registers a callback invoked whenever a qubit becomes free — the
// link layer uses it to resume blocked generation.
func (d *Device) OnFree(fn func()) { d.onFree = append(d.onFree, fn) }

// Discard releases this node's half of a pair (cutoff expiry or protocol
// discard). The pair is marked broken; the remote half is untouched — the
// remote node discards on its own timer or on an EXPIRE message, exactly the
// window the paper's end-node rule exists to close.
func (d *Device) Discard(p *Pair) {
	s := p.LocalSide(d.id)
	if s < 0 {
		return
	}
	p.broken = true
	p.releaseHalf(s)
}

// SubmitOp enqueues a local quantum operation of the given duration on the
// task scheduler; fn runs at its completion time. The returned time is when
// the operation completes.
func (d *Device) SubmitOp(dur sim.Duration, fn func()) sim.Time {
	return d.submitAction(dur, sim.Func(fn))
}

// submitAction is SubmitOp for an Action: a fires at the operation's
// completion time.
func (d *Device) submitAction(dur sim.Duration, a sim.Action) sim.Time {
	start := d.sim.Now()
	if d.busyUntil > start {
		start = d.busyUntil
	}
	end := start.Add(dur)
	d.busyUntil = end
	d.sim.ScheduleActionAt(end, a)
	return end
}

// BusyUntil reports the task scheduler's current horizon.
func (d *Device) BusyUntil() sim.Time { return d.busyUntil }

// SwapDone receives the result of an entanglement swap: the merged pair and
// the announced two-bit outcome.
type SwapDone interface {
	Swapped(merged *Pair, outcome quantum.BellIndex)
}

// swapFunc adapts a callback to SwapDone.
type swapFunc func(merged *Pair, outcome quantum.BellIndex)

func (f swapFunc) Swapped(merged *Pair, outcome quantum.BellIndex) { f(merged, outcome) }

// Swap schedules an entanglement swap between the pairs whose local halves
// live on qubits q1 and q2, handing the result to done (see SwapTo).
func (d *Device) Swap(q1, q2 *Qubit, done func(merged *Pair, outcome quantum.BellIndex)) {
	d.SwapTo(q1, q2, swapFunc(done))
}

// SwapTo schedules an entanglement swap between the pairs whose local halves
// live on qubits q1 and q2. The pairs are resolved from the qubits at
// *completion* time: a concurrent swap at a neighbouring node may merge a
// shared pair mid-flight, rewiring the qubit to the merged pair — the
// physical qubit, not the pair object, is the stable identity. At completion
// the two local qubits are freed, the remote qubits are rewired into the
// merged pair, and done receives the merged pair plus the announced two-bit
// outcome. The operation's record is pooled per device, so a swap whose done
// is a long-lived value allocates nothing but the merged pair.
func (d *Device) SwapTo(q1, q2 *Qubit, done SwapDone) {
	if q1.pair == nil || q2.pair == nil {
		panic(fmt.Sprintf("device %s: swap on qubits without pairs", d.id))
	}
	op := d.freeSwaps
	if op != nil {
		d.freeSwaps = op.next
	} else {
		op = &swapOp{d: d}
	}
	op.q1, op.q2, op.done, op.next = q1, q2, done, nil
	d.submitAction(d.params.SwapDuration(), op)
}

// swapOp is one swap waiting on the task scheduler.
type swapOp struct {
	d      *Device
	q1, q2 *Qubit
	done   SwapDone
	next   *swapOp
}

// Fire recycles the record, then completes the swap.
func (op *swapOp) Fire() {
	d, q1, q2, done := op.d, op.q1, op.q2, op.done
	op.q1, op.q2, op.done = nil, nil, nil
	op.next = d.freeSwaps
	d.freeSwaps = op
	d.completeSwap(q1, q2, done)
}

// completeSwap performs the Bell measurement of a swap at its completion
// time.
func (d *Device) completeSwap(q1, q2 *Qubit, done SwapDone) {
	now := d.sim.Now()
	p1, p2 := q1.pair, q2.pair
	s1, s2 := p1.LocalSide(d.id), p2.LocalSide(d.id)
	if s1 < 0 || s2 < 0 {
		panic(fmt.Sprintf("device %s: swap halves vanished mid-flight", d.id))
	}
	p1.AdvanceTo(now)
	p2.AdvanceTo(now)
	if p1.scalar != p2.scalar {
		panic(fmt.Sprintf("device %s: swap across physics engines", d.id))
	}
	var (
		mergedRho *linalg.Matrix
		mergedW   float64
		outcome   quantum.BellIndex
	)
	if p1.scalar {
		// Werner states are symmetric under qubit exchange, so no
		// orientation is needed; the closed form consumes the same four
		// RNG draws as the exact Bell measurement below.
		sres := werner.Swap(p1.w, p2.w, d.params.SwapConfig(), d.rng)
		mergedW, outcome = sres.W, sres.Outcome
	} else {
		if d.swapFx == nil {
			d.swapFx = quantum.NewSwapEffects(d.params.SwapConfig())
		}
		// The local halves are the measured qubits: side s1 of the first
		// pair, s2 of the second. The contraction reads each pair in
		// whichever order it is stored, and the merged pair keeps the
		// first pair's remote qubit first. Exchanging the qubits of a
		// Bell-diagnosable state keeps its Bell index (|Ψ−> only changes
		// global phase).
		res := d.swapFx.Swap(d.ws, p1.rho, s1, p2.rho, s2, d.rng)
		// The Bell measurement consumed both input pairs: recycle their
		// states and nil the fields so a stale read fails fast instead of
		// observing a recycled buffer.
		d.ws.Put(p1.rho)
		p1.rho = nil
		d.ws.Put(p2.rho)
		p2.rho = nil
		mergedRho, outcome = res.Rho, res.Outcome
	}

	remote1 := p1.halves[1-s1]
	remote2 := p2.halves[1-s2]
	created := p1.createdAt
	if p2.createdAt < created {
		created = p2.createdAt
	}
	merged := &Pair{
		rho:        mergedRho,
		scalar:     p1.scalar,
		w:          mergedW,
		ws:         d.ws,
		trueIdx:    quantum.Combine(p1.trueIdx, p2.trueIdx, outcome),
		createdAt:  created,
		lastUpdate: now,
	}
	merged.consumed[0] = p1.consumed[1-s1]
	merged.consumed[1] = p2.consumed[1-s2]
	merged.halves[0] = remote1
	merged.halves[1] = remote2
	if remote1 != nil {
		remote1.pair, remote1.side = merged, 0
	}
	if remote2 != nil {
		remote2.pair, remote2.side = merged, 1
	}
	// Free this node's qubits: the Bell measurement consumed them.
	p1.releaseHalf(s1)
	p2.releaseHalf(s2)
	done.Swapped(merged, outcome)
}

// MoveToStorage transfers the pair half held by communication qubit q into a
// storage qubit (the near-term platform's mandatory step before the electron
// can generate on another link). The transfer costs MoveDuration and applies
// depolarising noise from the two-qubit gate and carbon initialisation. done
// receives the storage qubit now holding the half, or ok=false if no storage
// qubit is free. The pair is resolved from the qubit at completion,
// surviving concurrent remote merges.
func (d *Device) MoveToStorage(q *Qubit, done func(newQ *Qubit, ok bool)) {
	if q.pair == nil {
		panic(fmt.Sprintf("device %s: move on qubit without pair", d.id))
	}
	storage, ok := d.AllocStorage()
	if !ok {
		done(nil, false)
		return
	}
	d.SubmitOp(d.params.MoveDuration(), func() {
		now := d.sim.Now()
		p := q.pair
		if p == nil || p.LocalSide(d.id) < 0 {
			d.free(storage)
			done(nil, false)
			return
		}
		s := p.LocalSide(d.id)
		p.AdvanceTo(now)
		pNoise := 1 - d.params.Gates.TwoQubitFidelity*d.params.Gates.CarbonInitFidelity
		p.applyDepol1(s, pNoise)
		old := p.halves[s]
		storage.pair, storage.side = p, s
		p.halves[s] = storage
		old.pair = nil
		d.free(old)
		done(storage, true)
	})
}

// MeasureHalf measures the pair half held by qubit q in the given basis
// after the readout duration, frees the qubit, and hands the reported bit to
// done. The remote half retains the (collapsed) conditional state — this is
// what makes the paper's "early delivery" MEASURE mode physically sound: the
// effect propagates through later swaps. The pair is resolved from the qubit
// at completion time.
func (d *Device) MeasureHalf(q *Qubit, basis quantum.Basis, done func(bit int)) {
	if q.pair == nil {
		panic(fmt.Sprintf("device %s: measure on qubit without pair", d.id))
	}
	d.SubmitOp(d.params.Gates.ReadoutTime, func() {
		now := d.sim.Now()
		p := q.pair
		s := p.LocalSide(d.id)
		if s < 0 {
			panic(fmt.Sprintf("device %s: measured half vanished mid-flight", d.id))
		}
		p.AdvanceTo(now)
		var bit int
		if p.scalar {
			// The Werner marginal is I/2 in every basis: the scalar engine
			// draws the same truth coin and readout flip as the exact
			// measurement. The surviving half keeps the maximally mixed
			// conditional state (w = 0) — the Werner twirl of the collapsed
			// remote qubit.
			bit = werner.Measure(d.params.Gates.Readout, d.rng)
			p.w = 0
		} else {
			var post *linalg.Matrix
			bit, post = quantum.MeasureInBasisW(d.ws, p.rho, s, 2, basis, d.params.Gates.Readout, d.rng)
			d.ws.Put(p.rho)
			p.rho = post
		}
		p.consumed[s] = true
		p.releaseHalf(s)
		done(bit)
	})
}

// ApplyAttemptDephasing models the nuclear-spin dephasing of stored carbon
// qubits caused by k entanglement generation attempts on this node's
// electron (§5.3 / Kalb et al.). Each stored pair half takes a phase-flip
// channel with the k-attempt accumulated probability.
func (d *Device) ApplyAttemptDephasing(k int) {
	per := d.params.AttemptDephasingProb
	if per <= 0 || k <= 0 {
		return
	}
	// k compositions of a phase flip with probability per:
	// p_k = (1 − (1−2·per)^k)/2.
	pk := (1 - math.Pow(1-2*per, float64(k))) / 2
	for _, q := range d.qubits {
		if q.free || q.kind != Storage || q.pair == nil {
			continue
		}
		q.pair.AdvanceTo(d.sim.Now())
		q.pair.applyPhaseFlip(q.side, pk)
	}
}

// Qubits exposes the memory for inspection in tests.
func (d *Device) Qubits() []*Qubit { return d.qubits }
