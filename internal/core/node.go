package core

import (
	"fmt"

	"qnp/internal/device"
	"qnp/internal/linklayer"
	"qnp/internal/netsim"
	"qnp/internal/quantum"
	"qnp/internal/sim"
)

// Delivered is handed to the application when a pair (or a measurement
// outcome) is delivered at an end-node.
type Delivered struct {
	Circuit CircuitID
	Request RequestID
	// Seq numbers deliveries within the request at this end.
	Seq int
	// Corr is the entangled pair identifier of §3.2: the head-end-side
	// chain correlator, identical at both end-nodes (the tail learns it
	// from the head's TRACK message Origin field).
	Corr linklayer.Correlator
	// LocalCorr is this end's own link-pair correlator for the chain; EARLY
	// hand-offs and EXPIRE notices are keyed by it.
	LocalCorr linklayer.Correlator
	// Pair is the live end-to-end pair (nil for Measure deliveries).
	Pair *device.Pair
	// State is the protocol's declared Bell state for the pair.
	State quantum.BellIndex
	// Bit is the measurement outcome for Measure requests.
	Bit  int
	Type RequestType
	At   sim.Time
}

// TestEstimate reports the running fidelity estimate from test rounds.
type TestEstimate struct {
	Circuit  CircuitID
	Samples  int
	Estimate float64
}

// AppCallbacks connect an end-node's QNP to the local application.
// Unset callbacks are ignored.
type AppCallbacks struct {
	// OnPair delivers confirmed pairs (KEEP), tracking confirmations
	// (EARLY) and withheld measurement results (MEASURE).
	OnPair func(Delivered)
	// OnEarlyPair hands over the qubit as soon as it is available (EARLY
	// requests); tracking info follows via OnPair.
	OnEarlyPair func(Delivered)
	// OnExpire notifies that an early-delivered or in-flight pair's chain
	// broke (the application must discard its early qubit).
	OnExpire func(CircuitID, RequestID, linklayer.Correlator)
	// OnComplete fires at the head-end when a request finishes.
	OnComplete func(CircuitID, RequestID)
	// OnReject fires when policing rejects a request.
	OnReject func(Request, string)
	// OnTestEstimate reports fidelity test-round statistics (head-end).
	OnTestEstimate func(TestEstimate)
}

// pairSlot tracks one local link-pair half at a node. The qubit is the
// stable handle: remote entanglement swaps rewire qubit→pair bindings, so
// the current (possibly multi-hop) pair is always qubit.Pair().
//
// An intermediate node's slots cycle through the node's free list (see
// newSlot and releaseSlot); the slot itself is the cutoff timer's Action and
// the swap's SwapDone, so neither allocates. An end-node slot lives inside
// its inTransitEntry instead: measurement callbacks outlive the entry's
// map slot.
type pairSlot struct {
	corr   linklayer.Correlator
	idx    quantum.BellIndex // heralded link-pair Bell state
	qubit  *device.Qubit
	cutoff sim.Event
	// moving marks a half mid-transfer to a storage qubit (near-term
	// platform); it cannot be swapped until the move completes.
	moving bool

	// Intermediate slots only: the owning node and circuit, the queue the
	// slot joined, and (on the upstream slot of a swap in flight) the
	// downstream partner.
	node         *Node
	cs           *circuit
	fromUpstream bool
	partner      *pairSlot
	// abandoned marks a moving slot that expired or whose circuit was
	// uninstalled mid-move: the move's completion frees the half and
	// releases the slot.
	abandoned bool
	// free and next are the free-list state.
	free bool
	next *pairSlot
}

func (s *pairSlot) pair() *device.Pair { return s.qubit.Pair() }

// Fire is the slot's cutoff timer (Algorithm 9).
func (s *pairSlot) Fire() { s.node.expiryRule(s.cs, s, s.fromUpstream) }

// Swapped completes the swap of this upstream slot with its partner.
func (s *pairSlot) Swapped(_ *device.Pair, outcome quantum.BellIndex) {
	s.node.swapDone(s.cs, s, s.partner, outcome)
}

// newSlot takes an intermediate slot from the node's free list.
func (n *Node) newSlot() *pairSlot {
	s := n.freeSlots
	if s == nil {
		return &pairSlot{node: n}
	}
	n.freeSlots = s.next
	s.next, s.free = nil, false
	return s
}

// releaseSlot returns an intermediate slot to the free list once nothing
// refers to it: its cutoff fired or was cancelled, and it left its queue
// (or its circuit was torn down). Releasing a free slot panics.
func (n *Node) releaseSlot(s *pairSlot) {
	if s.free {
		panic(fmt.Sprintf("core %s: pair slot released twice", n.id))
	}
	*s = pairSlot{node: n, free: true, next: n.freeSlots}
	n.freeSlots = s
}

// swapRecord is the temporary record logged after every entanglement swap
// (§4.1 "Swap records"): the partner pair's correlator and heralded state
// plus the two-bit swap outcome. Records are soft state: chains whose both
// ends were drained never send a TRACK to consume them, so a TTL sweep
// reclaims them (at is the creation time).
type swapRecord struct {
	otherCorr linklayer.Correlator
	otherIdx  quantum.BellIndex
	outcome   quantum.BellIndex
	at        sim.Time
}

// parkedTrack is a TRACK waiting at a node for its swap to complete. It
// holds a copy: the delivered record goes back to the pool.
type parkedTrack struct {
	msg TrackMsg
	at  sim.Time
}

// inTransitEntry is an end-node's record of a local pair assigned to a
// request and awaiting tracking confirmation.
type inTransitEntry struct {
	rs   *reqState
	slot pairSlot
	// test marks head-chosen fidelity test rounds.
	test      bool
	testBasis quantum.Basis
	// measured holds the outcome of an already-performed measurement
	// (Measure requests and test rounds).
	measured     bool
	measuredBit  int
	trackArrived bool
	trackState   quantum.BellIndex
	earlyGiven   bool
	// chainCorr is the canonical (head-side) chain identifier, learned from
	// the confirming TRACK.
	chainCorr linklayer.Correlator
}

// testStats accumulates fidelity test-round correlators at the head-end.
type testStats struct {
	// sum of ±1 outcome products per basis, sign-adjusted to the Φ+ frame.
	sum   [3]float64
	count [3]int
	// issued counts test rounds designated so far (for basis cycling).
	issued int
	// pending head measurements/tail results keyed by origin correlator.
	headBits map[linklayer.Correlator]headTestBit
}

type headTestBit struct {
	basis   quantum.Basis
	bit     int
	haveBit bool
	// tailBit arrives via TestResultMsg.
	tailBit     int
	haveTailBit bool
	idx         quantum.BellIndex
	haveIdx     bool
}

// circuit is the per-node state of one virtual circuit.
type circuit struct {
	entry RoutingEntry
	role  Role

	// Intermediate node state (Appendix C Algorithms 7–9). All maps are
	// soft state with TTL reclamation (see sweep).
	upQ, downQ             []*pairSlot
	upRecord, downRecord   map[linklayer.Correlator]swapRecord
	upTrack, downTrack     map[linklayer.Correlator]parkedTrack
	upExpired, downExpired map[linklayer.Correlator]sim.Time

	// End-node state (Algorithms 1–6).
	dmx        *demux
	inTransit  map[linklayer.Correlator]*inTransitEntry
	endExpired map[linklayer.Correlator]sim.Time
	queued     []*reqState // shaped (delayed) requests, head-end only
	tests      testStats

	// Link layer registration state.
	upRegistered, downRegistered bool
	// up and down are the classical ports toward the neighbours.
	up, down netsim.Port

	// Stats.
	swaps, discards, expiresSent, trackMismatch uint64
}

// Node is one network node's QNP engine. It owns the node's circuits,
// consumes link layer deliveries, exchanges FORWARD/COMPLETE/TRACK/EXPIRE
// messages with its neighbours, and applies the Appendix C rules.
type Node struct {
	id     netsim.NodeID
	sim    *sim.Simulation
	net    *netsim.Network
	dev    *device.Device
	fabric *linklayer.Fabric

	circuits map[CircuitID]*circuit
	apps     AppCallbacks
	// torn tombstones recently uninstalled circuits (keyed by teardown
	// time): the teardown wave races in-flight data-plane messages, so a
	// TRACK or EXPIRE arriving for a tombstoned circuit is dropped as a
	// legitimate late straggler rather than treated as a signalling bug.
	// The GC sweep reclaims old tombstones.
	torn map[CircuitID]sim.Time
	// lateDrops counts messages dropped against tombstones.
	lateDrops uint64
	// eerUpdates counts allocation re-fits applied at this node — the
	// observable footprint of UpdateMsg refit traffic (a non-enforcing
	// network must keep it at zero).
	eerUpdates uint64
	// gcRunning marks the periodic soft-state sweep as started.
	gcRunning bool
	// freeSlots is the free list of intermediate pair slots.
	freeSlots *pairSlot
	// tracks is the classical network's pool of TRACK records, shared by
	// every node on it.
	tracks *TrackPool
}

// NewNode creates the QNP engine for a node and hooks it into the classical
// network's message dispatch. tracks is the network's TRACK pool: build one
// per classical network and hand it to every node on it.
func NewNode(s *sim.Simulation, net *netsim.Network, dev *device.Device, fabric *linklayer.Fabric, tracks *TrackPool) *Node {
	if tracks == nil {
		panic(fmt.Sprintf("core: node %s built without a TRACK pool", dev.ID()))
	}
	n := &Node{
		id:       netsim.NodeID(dev.ID()),
		sim:      s,
		net:      net,
		dev:      dev,
		fabric:   fabric,
		circuits: make(map[CircuitID]*circuit),
		torn:     make(map[CircuitID]sim.Time),
		tracks:   tracks,
	}
	net.Handle(n.id, n.handleMessage)
	return n
}

// ID returns the node's network ID.
func (n *Node) ID() netsim.NodeID { return n.id }

// Device returns the node's quantum device.
func (n *Node) Device() *device.Device { return n.dev }

// SetCallbacks installs the application callbacks (end-nodes).
func (n *Node) SetCallbacks(cb AppCallbacks) { n.apps = cb }

// InstallCircuit installs the routing-table entry for a circuit at this
// node — the signalling protocol's job (§3.3).
func (n *Node) InstallCircuit(e RoutingEntry) {
	if _, ok := n.circuits[e.Circuit]; ok {
		panic(fmt.Sprintf("core %s: circuit %q already installed", n.id, e.Circuit))
	}
	cs := &circuit{
		entry:       e,
		role:        e.Role(),
		upRecord:    make(map[linklayer.Correlator]swapRecord),
		downRecord:  make(map[linklayer.Correlator]swapRecord),
		upTrack:     make(map[linklayer.Correlator]parkedTrack),
		downTrack:   make(map[linklayer.Correlator]parkedTrack),
		upExpired:   make(map[linklayer.Correlator]sim.Time),
		downExpired: make(map[linklayer.Correlator]sim.Time),
		inTransit:   make(map[linklayer.Correlator]*inTransitEntry),
		endExpired:  make(map[linklayer.Correlator]sim.Time),
	}
	cs.tests.headBits = make(map[linklayer.Correlator]headTestBit)
	if e.Upstream != "" {
		cs.up = n.net.Port(n.id, e.Upstream)
	}
	if e.Downstream != "" {
		cs.down = n.net.Port(n.id, e.Downstream)
	}
	if cs.role != RoleIntermediate {
		cs.dmx = newDemux()
	}
	n.circuits[e.Circuit] = cs
	delete(n.torn, e.Circuit) // a reinstalled ID is live again
	if !n.gcRunning {
		n.gcRunning = true
		n.sim.Schedule(gcInterval, n.gcSweep)
	}
}

// Soft-state reclamation: swap records, discard records, end-node
// tombstones and parked TRACKs all describe chains whose resolution
// messages normally consume them — but a chain whose both ends were drained
// (e.g. pairs arriving after a request completed) never resolves. The sweep
// drops entries older than several cutoff intervals; any TRACK that would
// have consumed them has long since been answered or abandoned.
const gcInterval = 5 * sim.Second

func (n *Node) gcTTL(cs *circuit) sim.Duration {
	ttl := 10 * cs.entry.Cutoff
	if ttl < 2*gcInterval {
		ttl = 2 * gcInterval
	}
	return ttl
}

func (n *Node) gcSweep() {
	now := n.sim.Now()
	for _, cs := range n.circuits {
		cutoff := now.Add(-n.gcTTL(cs))
		for k, v := range cs.upRecord {
			if v.at < cutoff {
				delete(cs.upRecord, k)
			}
		}
		for k, v := range cs.downRecord {
			if v.at < cutoff {
				delete(cs.downRecord, k)
			}
		}
		for k, v := range cs.upTrack {
			if v.at < cutoff {
				delete(cs.upTrack, k)
			}
		}
		for k, v := range cs.downTrack {
			if v.at < cutoff {
				delete(cs.downTrack, k)
			}
		}
		for k, v := range cs.upExpired {
			if v < cutoff {
				delete(cs.upExpired, k)
			}
		}
		for k, v := range cs.downExpired {
			if v < cutoff {
				delete(cs.downExpired, k)
			}
		}
		for k, v := range cs.endExpired {
			if v < cutoff {
				delete(cs.endExpired, k)
			}
		}
	}
	// Teardown tombstones outlive any in-flight message by orders of
	// magnitude before reclamation (message latencies are sub-second).
	tombCutoff := now.Add(-2 * gcInterval)
	for id, at := range n.torn {
		if at < tombCutoff {
			delete(n.torn, id)
		}
	}
	n.sim.Schedule(gcInterval, n.gcSweep)
}

// UninstallCircuit tears a circuit down at this node: link layer requests
// are deactivated, queued pairs and cutoff timers are released, and the
// routing-table entry is removed (§4.1: "If a circuit goes down due to loss
// of connectivity, the protocol aborts all requests").
func (n *Node) UninstallCircuit(id CircuitID) {
	cs, ok := n.circuits[id]
	if !ok {
		return
	}
	n.deactivateLinks(cs)
	for _, q := range [][]*pairSlot{cs.upQ, cs.downQ} {
		for _, slot := range q {
			n.sim.Cancel(slot.cutoff)
			if slot.moving {
				slot.abandoned = true // the move's completion releases it
				continue
			}
			n.dev.Free(slot.qubit)
			n.releaseSlot(slot)
		}
	}
	cs.upQ, cs.downQ = nil, nil
	for _, it := range cs.inTransit {
		if !it.measured && !it.earlyGiven {
			if p := it.slot.pair(); p != nil && p.LocalSide(string(n.id)) >= 0 {
				n.dev.Free(it.slot.qubit)
			}
		}
	}
	delete(n.circuits, id)
	n.torn[id] = n.sim.Now()
}

// UpdateCircuitEER re-fits the circuit's end-to-end rate allocation at this
// node (§4.4: the controller recomputes allocations as circuits join and
// leave; the signalling protocol propagates the new value along the path).
// The head-end re-derives its link pacing from the new allocation and
// re-examines shaped requests, which may now fit.
func (n *Node) UpdateCircuitEER(id CircuitID, maxEER float64) {
	n.eerUpdates++
	cs, ok := n.circuits[id]
	if !ok {
		return // circuit mid-teardown: the update raced its departure
	}
	cs.entry.MaxEER = maxEER
	if cs.role != RoleHead {
		return
	}
	if rate := n.requestedRate(cs); rate != 0 && cs.downRegistered {
		n.registerLinks(cs, rate)
	}
	n.admitQueued(cs)
}

// Circuit returns the routing entry installed for a circuit.
func (n *Node) Circuit(id CircuitID) (RoutingEntry, bool) {
	cs, ok := n.circuits[id]
	if !ok {
		return RoutingEntry{}, false
	}
	return cs.entry, true
}

// --- Message plumbing -----------------------------------------------------

func (n *Node) handleMessage(from netsim.NodeID, msg netsim.Message) {
	switch m := msg.(type) {
	case ForwardMsg:
		if cs := n.liveCircuit(m.Circuit); cs != nil {
			n.onForward(cs, m)
		}
	case CompleteMsg:
		if cs := n.liveCircuit(m.Circuit); cs != nil {
			n.onComplete(cs, m)
		}
	case *TrackMsg:
		if cs := n.liveCircuit(m.Circuit); cs != nil {
			n.onTrack(cs, m)
		}
	case ExpireMsg:
		if cs := n.liveCircuit(m.Circuit); cs != nil {
			n.onExpire(cs, m)
		}
	case TestResultMsg:
		if cs := n.liveCircuit(m.Circuit); cs != nil {
			n.onTestResult(cs, m)
		}
	}
}

// liveCircuit resolves a data-plane message's circuit with one lookup. It
// returns nil (and counts a late drop) for a circuit that has already torn
// down at this node — the teardown wave races in-flight messages, so
// stragglers are a legitimate outcome, not a signalling bug — and panics
// for a circuit never installed, which does indicate one.
func (n *Node) liveCircuit(id CircuitID) *circuit {
	if cs, ok := n.circuits[id]; ok {
		return cs
	}
	if _, gone := n.torn[id]; gone {
		n.lateDrops++
		return nil
	}
	panic(fmt.Sprintf("core %s: message for uninstalled circuit %q", n.id, id))
}

func (n *Node) sendUp(cs *circuit, msg netsim.Message) { cs.up.Send(msg) }

func (n *Node) sendDown(cs *circuit, msg netsim.Message) { cs.down.Send(msg) }

// TrackPool recycles TRACK records across every node of one classical
// network; the zero value is ready to use. A TRACK travels by pointer; the
// network recycles the record once the receiving node's handlers return,
// and a node that forwards or parks a TRACK copies it. The pool is per
// network, not per node: end-nodes receive more TRACKs than they send, so
// per-node free lists would grow without bound there.
type TrackPool struct {
	free []*TrackMsg
	// made counts the records ever allocated; those not on the free list
	// are in flight.
	made int
}

// sendTrackUp sends a copy of m upstream in a pooled record.
func (n *Node) sendTrackUp(cs *circuit, m TrackMsg) { n.sendUp(cs, n.tracks.get(m)) }

// sendTrackDown sends a copy of m downstream in a pooled record.
func (n *Node) sendTrackDown(cs *circuit, m TrackMsg) { n.sendDown(cs, n.tracks.get(m)) }

// get returns a record holding m.
func (p *TrackPool) get(m TrackMsg) *TrackMsg {
	var rec *TrackMsg
	if k := len(p.free); k > 0 {
		rec = p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
	} else {
		rec = new(TrackMsg)
		p.made++
	}
	*rec = m
	rec.pool, rec.free = p, false
	return rec
}

// --- Link layer management ------------------------------------------------

// registerLinks (re-)activates the circuit's link layer requests at this
// node per the FORWARD's rate field.
func (n *Node) registerLinks(cs *circuit, rate float64) {
	e := cs.entry
	if e.Downstream != "" {
		eng := n.fabric.Between(string(n.id), string(e.Downstream))
		lpr := n.effectiveLPR(cs, rate)
		if !cs.downRegistered {
			label := e.DownLabel
			if err := eng.Register(string(n.id), label, e.DownMinFidelity, lpr, func(d linklayer.Delivery) {
				n.onLinkPair(cs, d, false)
			}); err != nil {
				panic(fmt.Sprintf("core %s: link register: %v", n.id, err))
			}
			cs.downRegistered = true
		} else {
			eng.UpdateRate(e.DownLabel, lpr)
		}
		if cs.role == RoleHead && e.MaxEER > 0 {
			// Shaping (§4.1): under admission control the head-end caps its
			// first hop at the admitted end-to-end rate. Every end-to-end
			// pair consumes one head-link pair, so pacing here bounds the
			// circuit's measured EER by its allocation regardless of how
			// idle the rest of the plant is.
			pace := 0.0
			if rate != maxLPRSentinel {
				pace = rate
			}
			eng.SetPace(string(n.id), e.DownLabel, pace)
		}
	}
	if e.Upstream != "" && !cs.upRegistered {
		eng := n.fabric.Between(string(n.id), string(e.Upstream))
		// The upstream neighbour owns this link's fidelity/rate settings
		// (its DownMinFidelity); we register with the same values, which
		// the routing table guarantees to match: our upstream link is the
		// neighbour's downstream link.
		if err := eng.Register(string(n.id), e.UpLabel, e.UpMinFidelity, e.UpMaxLPR, func(d linklayer.Delivery) {
			n.onLinkPair(cs, d, true)
		}); err != nil {
			panic(fmt.Sprintf("core %s: link register: %v", n.id, err))
		}
		cs.upRegistered = true
	}
}

// effectiveLPR maps the circuit's current requested EER to the link-pair
// rate to ask of the link layer: the max LPR unless only rate-based
// requests are active, in which case the proportional fraction (§4.1
// "Continuous link generation").
func (n *Node) effectiveLPR(cs *circuit, rate float64) float64 {
	e := cs.entry
	if rate == maxLPRSentinel || e.MaxEER <= 0 {
		return e.DownMaxLPR
	}
	lpr := e.DownMaxLPR * rate / e.MaxEER
	if lpr > e.DownMaxLPR {
		lpr = e.DownMaxLPR
	}
	if lpr < 0 {
		lpr = 0
	}
	return lpr
}

// deactivateLinks pauses the circuit's generation at this node when no
// requests remain.
func (n *Node) deactivateLinks(cs *circuit) {
	e := cs.entry
	if cs.downRegistered {
		n.fabric.Between(string(n.id), string(e.Downstream)).Deactivate(string(n.id), e.DownLabel)
		cs.downRegistered = false
	}
	if cs.upRegistered {
		n.fabric.Between(string(n.id), string(e.Upstream)).Deactivate(string(n.id), e.UpLabel)
		cs.upRegistered = false
	}
}

// --- FORWARD / COMPLETE ---------------------------------------------------

func (n *Node) onForward(cs *circuit, m ForwardMsg) {
	n.registerLinks(cs, m.Rate)
	if cs.role == RoleTail {
		// Tail book-keeping: a new epoch with the request added.
		rs := &reqState{
			req: Request{
				ID:           m.Request,
				Circuit:      m.Circuit,
				Type:         m.Type,
				MeasureBasis: m.MeasureBasis,
				NumPairs:     m.NumPairs,
				FinalState:   m.FinalState,
				TestEvery:    m.TestEvery,
			},
			submittedAt: n.sim.Now(),
		}
		cs.dmx.add(rs)
		return
	}
	n.sendDown(cs, m)
}

func (n *Node) onComplete(cs *circuit, m CompleteMsg) {
	if cs.role == RoleTail {
		cs.dmx.remove(m.Request)
		if m.Rate == 0 {
			n.deactivateLinks(cs)
		}
		return
	}
	if m.Rate == 0 {
		n.deactivateLinks(cs)
	} else {
		n.registerLinks(cs, m.Rate)
	}
	n.sendDown(cs, m)
}

// --- LINK rules -----------------------------------------------------------

// onLinkPair dispatches a link layer delivery to the role-specific rule.
func (n *Node) onLinkPair(cs *circuit, d linklayer.Delivery, fromUpstream bool) {
	q := d.Pair.Half(d.Pair.LocalSide(string(n.id)))
	if cs.role != RoleIntermediate {
		n.endLinkRule(cs, d.Corr, d.Idx, q)
		return
	}
	slot := n.newSlot()
	slot.corr, slot.idx, slot.qubit = d.Corr, d.Idx, q
	slot.cs, slot.fromUpstream = cs, fromUpstream
	n.intermediateLinkRule(cs, slot, fromUpstream)
}

// intermediateLinkRule is Algorithm 7: queue the pair, arm its cutoff, and
// swap as soon as an upstream and a downstream pair are both available.
// Swaps always take the oldest unexpired pairs (§5 evaluation setup).
//
// On carbon-storage platforms (§5.3) the freshly delivered half sits on the
// node's only communication qubit; it is first moved into a storage qubit so
// the electron can generate on the other link. The slot is not swappable
// until the move completes.
func (n *Node) intermediateLinkRule(cs *circuit, slot *pairSlot, fromUpstream bool) {
	if cs.entry.Cutoff > 0 {
		slot.cutoff = n.sim.ScheduleAction(cs.entry.Cutoff, slot)
	}
	if fromUpstream {
		cs.upQ = append(cs.upQ, slot)
	} else {
		cs.downQ = append(cs.downQ, slot)
	}
	if n.dev.Params().HasCarbon && slot.qubit.Kind() == device.Communication {
		slot.moving = true
		n.dev.MoveToStorage(slot.qubit, func(newQ *device.Qubit, ok bool) {
			slot.moving = false
			if slot.abandoned {
				// The pair expired or its circuit was uninstalled mid-move:
				// free the storage qubit now holding the half (a failed
				// move left no half of ours to free).
				if ok {
					n.dev.Free(newQ)
				}
				n.releaseSlot(slot)
				return
			}
			if !ok {
				// No storage space: treat like a cutoff discard so the
				// tracking machinery cleans the chain up.
				n.sim.Cancel(slot.cutoff)
				n.expiryRule(cs, slot, fromUpstream)
				return
			}
			slot.qubit = newQ
			n.trySwap(cs)
		})
		return
	}
	n.trySwap(cs)
}

// swappable finds the oldest slot in q that is ready for a swap.
func swappable(q []*pairSlot) *pairSlot {
	for _, s := range q {
		if !s.moving {
			return s
		}
	}
	return nil
}

func (n *Node) trySwap(cs *circuit) {
	for {
		up := swappable(cs.upQ)
		down := swappable(cs.downQ)
		if up == nil || down == nil {
			return
		}
		cs.upQ = removeSlot(cs.upQ, up)
		cs.downQ = removeSlot(cs.downQ, down)
		n.sim.Cancel(up.cutoff)
		n.sim.Cancel(down.cutoff)
		up.partner = down
		n.dev.SwapTo(up.qubit, down.qubit, up)
	}
}

// swapDone logs swap records and forwards any parked TRACKs (the tail halves
// of Algorithm 7), then releases both slots.
func (n *Node) swapDone(cs *circuit, up, down *pairSlot, outcome quantum.BellIndex) {
	cs.swaps++
	if pt, ok := cs.upTrack[up.corr]; ok {
		delete(cs.upTrack, up.corr)
		tm := pt.msg
		tm.LinkCorr = down.corr
		tm.Outcome = quantum.Combine(tm.Outcome, down.idx, outcome)
		n.sendTrackDown(cs, tm)
	} else {
		cs.upRecord[up.corr] = swapRecord{otherCorr: down.corr, otherIdx: down.idx, outcome: outcome, at: n.sim.Now()}
	}
	if pt, ok := cs.downTrack[down.corr]; ok {
		delete(cs.downTrack, down.corr)
		tm := pt.msg
		tm.LinkCorr = up.corr
		tm.Outcome = quantum.Combine(tm.Outcome, up.idx, outcome)
		n.sendTrackUp(cs, tm)
	} else {
		cs.downRecord[down.corr] = swapRecord{otherCorr: up.corr, otherIdx: up.idx, outcome: outcome, at: n.sim.Now()}
	}
	n.releaseSlot(up)
	n.releaseSlot(down)
}

// expiryRule is Algorithm 9: the cutoff timer popped for a queued pair. The
// slot is released, or, mid-move, left for the move's completion to
// release.
func (n *Node) expiryRule(cs *circuit, slot *pairSlot, fromUpstream bool) {
	if fromUpstream {
		cs.upQ = removeSlot(cs.upQ, slot)
	} else {
		cs.downQ = removeSlot(cs.downQ, slot)
	}
	cs.discards++
	corr := slot.corr
	if slot.moving {
		slot.abandoned = true // the move's completion frees and releases it
	} else {
		n.dev.Free(slot.qubit)
		n.releaseSlot(slot)
	}
	if fromUpstream {
		if pt, ok := cs.upTrack[corr]; ok {
			delete(cs.upTrack, corr)
			n.sendUp(cs, ExpireMsg{Circuit: cs.entry.Circuit, Origin: pt.msg.Origin, ToHead: true})
			cs.expiresSent++
		} else {
			cs.upExpired[corr] = n.sim.Now()
		}
		return
	}
	if pt, ok := cs.downTrack[corr]; ok {
		delete(cs.downTrack, corr)
		n.sendDown(cs, ExpireMsg{Circuit: cs.entry.Circuit, Origin: pt.msg.Origin, ToHead: false})
		cs.expiresSent++
	} else {
		cs.downExpired[corr] = n.sim.Now()
	}
}

func removeSlot(q []*pairSlot, s *pairSlot) []*pairSlot {
	for i, x := range q {
		if x == s {
			return append(q[:i], q[i+1:]...)
		}
	}
	return q
}

// --- TRACK rules ----------------------------------------------------------

func (n *Node) onTrack(cs *circuit, m *TrackMsg) {
	if cs.role == RoleIntermediate {
		n.intermediateTrackRule(cs, *m)
		return
	}
	n.endTrackRule(cs, m)
}

// intermediateTrackRule is Algorithm 8: resolve the TRACK against a swap
// record, an expiry record, or park it until the swap completes. m is a
// copy of the delivered record, which returns to the pool.
func (n *Node) intermediateTrackRule(cs *circuit, m TrackMsg) {
	if m.FromHead {
		if rec, ok := cs.upRecord[m.LinkCorr]; ok {
			delete(cs.upRecord, m.LinkCorr)
			m.LinkCorr = rec.otherCorr
			m.Outcome = quantum.Combine(m.Outcome, rec.otherIdx, rec.outcome)
			n.sendTrackDown(cs, m)
			return
		}
		if _, dead := cs.upExpired[m.LinkCorr]; dead {
			delete(cs.upExpired, m.LinkCorr)
			n.sendUp(cs, ExpireMsg{Circuit: cs.entry.Circuit, Origin: m.Origin, ToHead: true})
			cs.expiresSent++
			return
		}
		cs.upTrack[m.LinkCorr] = parkedTrack{msg: m, at: n.sim.Now()}
		return
	}
	if rec, ok := cs.downRecord[m.LinkCorr]; ok {
		delete(cs.downRecord, m.LinkCorr)
		m.LinkCorr = rec.otherCorr
		m.Outcome = quantum.Combine(m.Outcome, rec.otherIdx, rec.outcome)
		n.sendTrackUp(cs, m)
		return
	}
	if _, dead := cs.downExpired[m.LinkCorr]; dead {
		delete(cs.downExpired, m.LinkCorr)
		n.sendDown(cs, ExpireMsg{Circuit: cs.entry.Circuit, Origin: m.Origin, ToHead: false})
		cs.expiresSent++
		return
	}
	cs.downTrack[m.LinkCorr] = parkedTrack{msg: m, at: n.sim.Now()}
}

// --- EXPIRE / TestResult relay ---------------------------------------------

func (n *Node) onExpire(cs *circuit, m ExpireMsg) {
	if cs.role == RoleIntermediate {
		if m.ToHead {
			n.sendUp(cs, m)
		} else {
			n.sendDown(cs, m)
		}
		return
	}
	n.endExpireRule(cs, m)
}

func (n *Node) onTestResult(cs *circuit, m TestResultMsg) {
	if cs.role == RoleIntermediate {
		if m.ToHead {
			n.sendUp(cs, m)
		} else {
			n.sendDown(cs, m)
		}
		return
	}
	n.headRecordTestResult(cs, m)
}
