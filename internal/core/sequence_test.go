package core

import (
	"testing"

	"qnp/internal/netsim"
	"qnp/internal/sim"
)

// TestSequenceDiagramFig6 checks the paper's Fig. 6 message flow on a
// four-node circuit: a FORWARD wave head→tail, TRACK messages in both
// directions collecting swap records, delivery at both ends, and a COMPLETE
// wave after the last pair.
func TestSequenceDiagramFig6(t *testing.T) {
	cfg := defaultChainConfig(4)
	cfg.perfectRO = true
	c := buildChain(t, cfg)

	// Tap every node's classical handler to build the event log.
	type event struct {
		node netsim.NodeID
		kind string
	}
	var log []event
	for _, id := range c.ids {
		id := id
		c.net.Handle(id, func(_ netsim.NodeID, msg netsim.Message) {
			switch m := msg.(type) {
			case ForwardMsg:
				log = append(log, event{id, "FORWARD"})
			case CompleteMsg:
				log = append(log, event{id, "COMPLETE"})
			case *TrackMsg:
				// TRACKs travel by pointer in pooled records; read the
				// record before the network recycles it.
				dir := "TRACK↓"
				if !m.FromHead {
					dir = "TRACK↑"
				}
				log = append(log, event{id, dir})
			case ExpireMsg:
				log = append(log, event{id, "EXPIRE"})
			case TrackMsg:
				t.Errorf("node %s received a TRACK by value", id)
			}
		})
	}
	hc := newCollector(c, c.head())
	tc := newCollector(c, c.tail())
	if err := c.head().Submit(Request{ID: "r", Circuit: "vc", Type: Keep, NumPairs: 1}); err != nil {
		t.Fatal(err)
	}
	c.sim.RunFor(10 * sim.Second)
	if len(hc.pairs) != 1 || len(tc.pairs) != 1 {
		t.Fatalf("deliveries %d/%d", len(hc.pairs), len(tc.pairs))
	}

	pos := func(node netsim.NodeID, kind string) int {
		for i, e := range log {
			if e.node == node && e.kind == kind {
				return i
			}
		}
		return -1
	}
	last := func(node netsim.NodeID, kind string) int {
		p := -1
		for i, e := range log {
			if e.node == node && e.kind == kind {
				p = i
			}
		}
		return p
	}

	// FORWARD wave traverses n1 → n2 → n3 in order.
	f1, f2, f3 := pos("n1", "FORWARD"), pos("n2", "FORWARD"), pos("n3", "FORWARD")
	if f1 < 0 || f2 < 0 || f3 < 0 || !(f1 < f2 && f2 < f3) {
		t.Fatalf("FORWARD wave out of order: %d %d %d", f1, f2, f3)
	}
	// The head's TRACK reaches the tail, and the tail's TRACK reaches the
	// head — both after the FORWARD wave began.
	td := pos("n3", "TRACK↓")
	tu := pos("n0", "TRACK↑")
	if td < 0 || tu < 0 {
		t.Fatalf("missing end-to-end TRACKs: down@n3=%d up@n0=%d", td, tu)
	}
	if td < f3 {
		t.Error("tail received TRACK before FORWARD")
	}
	// COMPLETE wave follows the final delivery, traversing in order.
	c1, c2, c3 := last("n1", "COMPLETE"), last("n2", "COMPLETE"), last("n3", "COMPLETE")
	if c1 < 0 || c2 < 0 || c3 < 0 || !(c1 < c2 && c2 < c3) {
		t.Fatalf("COMPLETE wave out of order: %d %d %d", c1, c2, c3)
	}
	if c1 < td || c1 < tu {
		t.Error("COMPLETE sent before the pair resolved at both ends")
	}
	// Intermediate nodes saw TRACKs in both directions.
	for _, mid := range []netsim.NodeID{"n1", "n2"} {
		if pos(mid, "TRACK↓") < 0 || pos(mid, "TRACK↑") < 0 {
			t.Errorf("node %s missing a TRACK direction", mid)
		}
	}
	// Render the observed sequence on failure.
	if t.Failed() {
		for i, e := range log {
			t.Logf("%3d %-3s %s", i, e.node, e.kind)
		}
	}
}
