package core

import (
	"strings"
	"testing"

	"qnp/internal/device"
	"qnp/internal/hardware"
	"qnp/internal/sim"
)

// queuedAtIntermediates counts the pair slots waiting in the swap queues of
// the chain's intermediate nodes.
func (c *chain) queuedAtIntermediates() int {
	n := 0
	for _, node := range c.nodes[1 : len(c.nodes)-1] {
		for _, cs := range node.circuits {
			n += len(cs.upQ) + len(cs.downQ)
		}
	}
	return n
}

// inFlight counts the pool's records that are handed out and not yet
// recycled: TRACKs in flight.
func (p *TrackPool) inFlight() int { return p.made - len(p.free) }

// busyQubits lists the allocated qubits across the chain.
func (c *chain) busyQubits() []string {
	var busy []string
	for _, node := range c.nodes {
		for _, q := range node.Device().Qubits() {
			if !q.Free() {
				busy = append(busy, q.Node())
			}
		}
	}
	return busy
}

// TestTeardownWithTracksInFlight tears a circuit down while TRACK records
// are in flight and pairs are queued at intermediate nodes, then reinstalls
// the same circuit ID at once, so stale TRACKs and swap completions of the
// old incarnation land on the new one. The pooled records must survive it:
// the new request completes at both ends, every TRACK record returns to the
// network's pool, and every qubit is free once the chains drain.
func TestTeardownWithTracksInFlight(t *testing.T) {
	for _, ph := range []device.Physics{device.PhysicsExact, device.PhysicsWerner} {
		t.Run(ph.String(), func(t *testing.T) {
			cfg := defaultChainConfig(5)
			cfg.physics = ph
			c := buildChain(t, cfg)
			hc := newCollector(c, c.head())
			tc := newCollector(c, c.tail())
			pool := c.head().tracks
			if err := c.head().Submit(Request{ID: "open", Circuit: "vc", Type: Keep}); err != nil {
				t.Fatal(err)
			}
			for c.queuedAtIntermediates() < 2 || pool.inFlight() < 2 {
				if c.sim.Now() > sim.Time(5*sim.Second) || !c.sim.Step() {
					t.Fatal("never saw queued pairs with TRACKs in flight")
				}
			}
			inFlight := pool.inFlight()
			for _, n := range c.nodes {
				n.UninstallCircuit("vc")
			}
			c.install(cfg)
			if err := c.head().Submit(Request{ID: "again", Circuit: "vc", Type: Keep, NumPairs: 5}); err != nil {
				t.Fatal(err)
			}
			c.sim.RunFor(10 * sim.Second)
			count := func(col *collector) int {
				n := 0
				for _, d := range col.pairs {
					if d.Request == "again" {
						n++
					}
				}
				return n
			}
			if h, tl := count(hc), count(tc); h != 5 || tl != 5 {
				t.Fatalf("reinstalled circuit delivered %d/%d pairs, want 5/5", h, tl)
			}
			if len(hc.completed) != 1 || hc.completed[0] != "again" {
				t.Fatalf("completions %v, want [again]", hc.completed)
			}
			// No traffic remains: the request completed and the links
			// deactivated, so the cutoffs drain every queue.
			c.sim.RunFor(10 * sim.Second)
			if pool.inFlight() != 0 {
				t.Errorf("%d TRACK records never returned to the pool (%d were in flight at teardown)", pool.inFlight(), inFlight)
			}
			if q := c.queuedAtIntermediates(); q != 0 {
				t.Errorf("%d pair slots still queued", q)
			}
			if busy := c.busyQubits(); len(busy) != 0 {
				t.Errorf("qubits still allocated at %s", strings.Join(busy, ","))
			}
		})
	}
}

// expectPanic runs fn and fails unless it panics with a message containing
// want.
func expectPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want %q", r, want)
		}
	}()
	fn()
}

// TestPoolDoubleReleasePanics pins the pools' plain safety check: handing a
// record back twice would give it to two owners, so it panics.
func TestPoolDoubleReleasePanics(t *testing.T) {
	c := buildChain(t, defaultChainConfig(3))
	mid := c.nodes[1]
	slot := mid.newSlot()
	mid.releaseSlot(slot)
	expectPanic(t, "pair slot released twice", func() { mid.releaseSlot(slot) })

	rec := mid.tracks.get(TrackMsg{Circuit: "vc"})
	rec.Recycle()
	expectPanic(t, "TRACK record released twice", func() { rec.Recycle() })

	// A TRACK value built outside the pool is not pooled: Recycle is a
	// no-op, however often it runs.
	var plain TrackMsg
	plain.Recycle()
	plain.Recycle()
	if mid.tracks.inFlight() != 0 {
		t.Fatalf("pool counts %d live records, want 0", mid.tracks.inFlight())
	}
}

// movingSlots counts intermediate slots whose half is mid-move to storage.
func (c *chain) movingSlots() int {
	n := 0
	for _, node := range c.nodes[1 : len(c.nodes)-1] {
		for _, cs := range node.circuits {
			for _, q := range [][]*pairSlot{cs.upQ, cs.downQ} {
				for _, s := range q {
					if s.moving {
						n++
					}
				}
			}
		}
	}
	return n
}

// TestMovingSlotsReleasedByMoveCompletion covers the near-term platform,
// where an intermediate node moves each fresh half into carbon storage
// before it can swap. A slot whose pair expires, or whose circuit is torn
// down, while the move is in flight is released by the move's completion
// and not before: the move still refers to it. With a cutoff shorter than
// the 800 µs move, every moved pair expires mid-move.
func TestMovingSlotsReleasedByMoveCompletion(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cutoff   sim.Duration
		teardown bool
	}{
		{"expiry", 300 * sim.Microsecond, false},
		{"teardown", 2 * sim.Second, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := defaultChainConfig(3)
			cfg.params = hardware.NearTerm()
			cfg.linkF = 0.8
			cfg.qubits = 1
			cfg.cutoff = tc.cutoff
			c := buildChain(t, cfg)
			c.nodes[1].Device().AddStorageQubits(2)
			newCollector(c, c.head())
			newCollector(c, c.tail())
			if err := c.head().Submit(Request{ID: "open", Circuit: "vc", Type: Keep}); err != nil {
				t.Fatal(err)
			}
			for c.movingSlots() == 0 {
				if c.sim.Now() > sim.Time(5*sim.Second) || !c.sim.Step() {
					t.Fatal("no half ever moved to storage")
				}
			}
			if tc.teardown {
				for _, n := range c.nodes {
					n.UninstallCircuit("vc")
				}
			} else {
				c.sim.RunFor(sim.Second)
				if d := c.nodes[1].Stats().Discards; d == 0 {
					t.Fatal("no pair expired mid-move")
				}
				if err := c.head().Cancel("vc", "open"); err != nil {
					t.Fatal(err)
				}
			}
			c.sim.RunFor(10 * sim.Second)
			if m := c.movingSlots() + c.queuedAtIntermediates(); m != 0 {
				t.Errorf("%d slots still queued", m)
			}
			if busy := c.busyQubits(); len(busy) != 0 {
				t.Errorf("qubits still allocated at %s", strings.Join(busy, ","))
			}
			if live := c.head().tracks.inFlight(); live != 0 {
				t.Errorf("%d TRACK records never returned to the pool", live)
			}
		})
	}
}
