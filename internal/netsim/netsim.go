// Package netsim provides the classical message plane of the simulated
// quantum network: nodes joined by bidirectional channels that deliver
// messages reliably and in order after a propagation delay.
//
// The paper's QNP "requires that all its control messages are transmitted
// reliably and in order ... we may simply rely on a transport protocol to
// provide these guarantees (e.g. TCP or QUIC)". This package is that
// abstraction: no loss, no reordering, plus a configurable processing delay
// so the Fig. 10c experiment can sweep "the time between the sending of any
// QNP message to the moment that message is processed at the next node".
package netsim

import (
	"fmt"
	"sort"

	"qnp/internal/sim"
)

// NodeID names a node. IDs are unique within a Network.
type NodeID string

// Message is any protocol payload. Handlers type-switch on the concrete
// type, the same way a demultiplexing transport hands frames to protocols.
type Message any

// Recycler is implemented by pooled message records (core's TRACK). The
// network hands such a record back through Recycle once every handler at
// the receiving node has returned; a handler that keeps or forwards the
// message copies its contents first.
type Recycler interface{ Recycle() }

// Handler consumes messages delivered to a node.
type Handler func(from NodeID, msg Message)

type channel struct {
	delay sim.Duration
}

// endpoint is a registered node: its handlers in registration order.
type endpoint struct {
	handlers []Handler
}

type linkKey struct{ a, b NodeID }

func keyFor(a, b NodeID) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// Stats counts classical-plane activity.
type Stats struct {
	MessagesSent uint64
}

// Network is the classical plane. All methods must be called from the
// simulation goroutine (the simulator is single-threaded by design).
type Network struct {
	sim      *sim.Simulation
	channels map[linkKey]*channel
	nodes    map[NodeID]*endpoint
	// processing is the extra per-hop delay added to every delivery — the
	// Fig. 10c knob.
	processing sim.Duration
	stats      Stats
	// free is the network's free list of in-flight delivery records.
	free *delivery
}

// New creates an empty classical network on the given simulation.
func New(s *sim.Simulation) *Network {
	return &Network{
		sim:      s,
		channels: make(map[linkKey]*channel),
		nodes:    make(map[NodeID]*endpoint),
	}
}

// AddNode registers a node. Adding the same node twice panics — topology is
// static configuration, and a duplicate always means a miswired experiment.
func (n *Network) AddNode(id NodeID) {
	if _, ok := n.nodes[id]; ok {
		panic(fmt.Sprintf("netsim: duplicate node %q", id))
	}
	n.nodes[id] = &endpoint{}
}

// HasNode reports whether id is registered.
func (n *Network) HasNode(id NodeID) bool {
	_, ok := n.nodes[id]
	return ok
}

// Connect joins two registered nodes with a bidirectional channel of the
// given one-way propagation delay.
func (n *Network) Connect(a, b NodeID, delay sim.Duration) {
	if !n.HasNode(a) || !n.HasNode(b) {
		panic(fmt.Sprintf("netsim: Connect %q-%q with unregistered node", a, b))
	}
	if a == b {
		panic("netsim: self-loop")
	}
	k := keyFor(a, b)
	if _, ok := n.channels[k]; ok {
		panic(fmt.Sprintf("netsim: duplicate channel %q-%q", a, b))
	}
	n.channels[k] = &channel{delay: delay}
}

// Connected reports whether a and b share a channel.
func (n *Network) Connected(a, b NodeID) bool {
	_, ok := n.channels[keyFor(a, b)]
	return ok
}

// Delay returns the one-way propagation delay of the a-b channel.
func (n *Network) Delay(a, b NodeID) sim.Duration {
	c, ok := n.channels[keyFor(a, b)]
	if !ok {
		panic(fmt.Sprintf("netsim: no channel %q-%q", a, b))
	}
	return c.delay
}

// SetProcessingDelay sets the extra per-hop delay applied to every message
// from now on (it does not affect messages already in flight).
func (n *Network) SetProcessingDelay(d sim.Duration) { n.processing = d }

// ProcessingDelay returns the current per-hop processing delay.
func (n *Network) ProcessingDelay() sim.Duration { return n.processing }

// Handle registers a message handler at a node. Multiple handlers receive
// every message in registration order; protocols filter by message type.
func (n *Network) Handle(id NodeID, h Handler) {
	ep, ok := n.nodes[id]
	if !ok {
		panic(fmt.Sprintf("netsim: Handle on unregistered node %q", id))
	}
	ep.handlers = append(ep.handlers, h)
}

// Port is one node's sending end of a channel, resolved once so that hot
// senders skip the channel and node lookups. The zero Port sends nothing
// and panics if used.
type Port struct {
	net  *Network
	from NodeID
	to   *endpoint
	ch   *channel
}

// Port resolves the channel from one node to an adjacent node.
func (n *Network) Port(from, to NodeID) Port {
	c, ok := n.channels[keyFor(from, to)]
	if !ok {
		panic(fmt.Sprintf("netsim: Send %q→%q without channel", from, to))
	}
	return Port{net: n, from: from, to: n.nodes[to], ch: c}
}

// Send transmits msg over the port's channel (see Network.Send).
func (p Port) Send(msg Message) {
	n := p.net
	n.stats.MessagesSent++
	d := n.free
	if d != nil {
		n.free = d.next
		d.next = nil
	} else {
		d = &delivery{net: n}
	}
	d.from, d.to, d.msg, d.free = p.from, p.to, msg, false
	n.sim.ScheduleAction(p.ch.delay+n.processing, d)
}

// Send transmits msg from one node to an adjacent node. Delivery happens
// after the channel's propagation delay plus the processing delay; messages
// between the same pair of nodes are never reordered (the event queue is
// FIFO at equal timestamps and delays are constant per channel).
func (n *Network) Send(from, to NodeID, msg Message) {
	n.Port(from, to).Send(msg)
}

// delivery is one message in flight: the event that hands it to the
// receiving node's handlers. Records cycle through the network's free list.
type delivery struct {
	net  *Network
	from NodeID
	to   *endpoint
	msg  Message
	next *delivery
	free bool
}

// Fire releases the record (so the handlers' own sends can reuse it), runs
// the receiving node's handlers, then recycles a pooled message.
func (d *delivery) Fire() {
	n, from, to, msg := d.net, d.from, d.to, d.msg
	n.release(d)
	for _, h := range to.handlers {
		h(from, msg)
	}
	if r, ok := msg.(Recycler); ok {
		r.Recycle()
	}
}

// release returns d to the free list. Releasing a free record panics: it
// would hand one record to two in-flight messages.
func (n *Network) release(d *delivery) {
	if d.free {
		panic("netsim: delivery record released twice")
	}
	d.free = true
	d.from, d.to, d.msg = "", nil, nil
	d.next = n.free
	n.free = d
}

// Stats returns counters accumulated so far.
func (n *Network) Stats() Stats { return n.stats }

// Neighbors returns the nodes adjacent to id, in lexicographic order.
func (n *Network) Neighbors(id NodeID) []NodeID {
	var out []NodeID
	for k := range n.channels {
		switch id {
		case k.a:
			out = append(out, k.b)
		case k.b:
			out = append(out, k.a)
		}
	}
	// The channel map's iteration order is random per run; callers walking
	// the topology must see a stable adjacency list.
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PathDelay sums the propagation delays along a node path.
func (n *Network) PathDelay(path []NodeID) sim.Duration {
	var d sim.Duration
	for i := 0; i+1 < len(path); i++ {
		d += n.Delay(path[i], path[i+1])
	}
	return d
}
