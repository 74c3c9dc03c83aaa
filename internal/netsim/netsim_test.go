package netsim

import (
	"testing"

	"qnp/internal/sim"
)

func build(t *testing.T) (*sim.Simulation, *Network) {
	t.Helper()
	s := sim.New(1)
	n := New(s)
	for _, id := range []NodeID{"a", "b", "c"} {
		n.AddNode(id)
	}
	n.Connect("a", "b", 10*sim.Microsecond)
	n.Connect("b", "c", 20*sim.Microsecond)
	return s, n
}

func TestDeliveryWithDelay(t *testing.T) {
	s, n := build(t)
	var gotAt sim.Time
	var gotFrom NodeID
	var gotMsg Message
	n.Handle("b", func(from NodeID, msg Message) {
		gotAt, gotFrom, gotMsg = s.Now(), from, msg
	})
	n.Send("a", "b", "hello")
	s.Run()
	if gotAt != sim.Time(10*sim.Microsecond) {
		t.Errorf("delivered at %v, want 10µs", gotAt)
	}
	if gotFrom != "a" || gotMsg != "hello" {
		t.Errorf("got %v from %v", gotMsg, gotFrom)
	}
}

func TestInOrderDelivery(t *testing.T) {
	s, n := build(t)
	var got []int
	n.Handle("b", func(_ NodeID, msg Message) { got = append(got, msg.(int)) })
	for i := 0; i < 20; i++ {
		n.Send("a", "b", i)
	}
	s.Run()
	if len(got) != 20 {
		t.Fatalf("delivered %d messages", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("reordered delivery: %v", got)
		}
	}
}

func TestProcessingDelayKnob(t *testing.T) {
	s, n := build(t)
	var gotAt sim.Time
	n.Handle("b", func(NodeID, Message) { gotAt = s.Now() })
	n.SetProcessingDelay(5 * sim.Millisecond)
	if n.ProcessingDelay() != 5*sim.Millisecond {
		t.Error("ProcessingDelay readback wrong")
	}
	n.Send("a", "b", 1)
	s.Run()
	want := sim.Time(10*sim.Microsecond + 5*sim.Millisecond)
	if gotAt != want {
		t.Errorf("delivered at %v, want %v", gotAt, want)
	}
}

func TestMultipleHandlers(t *testing.T) {
	s, n := build(t)
	calls := 0
	n.Handle("b", func(NodeID, Message) { calls++ })
	n.Handle("b", func(NodeID, Message) { calls++ })
	n.Send("a", "b", 1)
	s.Run()
	if calls != 2 {
		t.Errorf("handler calls = %d, want 2", calls)
	}
}

func TestTopologyQueries(t *testing.T) {
	_, n := build(t)
	if !n.Connected("a", "b") || !n.Connected("b", "a") {
		t.Error("Connected symmetric lookup failed")
	}
	if n.Connected("a", "c") {
		t.Error("a-c should not be connected")
	}
	if n.Delay("b", "c") != 20*sim.Microsecond {
		t.Error("Delay lookup wrong")
	}
	nb := n.Neighbors("b")
	if len(nb) != 2 {
		t.Errorf("Neighbors(b) = %v", nb)
	}
	if got := n.PathDelay([]NodeID{"a", "b", "c"}); got != 30*sim.Microsecond {
		t.Errorf("PathDelay = %v", got)
	}
	if !n.HasNode("a") || n.HasNode("zz") {
		t.Error("HasNode wrong")
	}
}

func TestSendWithoutChannelPanics(t *testing.T) {
	_, n := build(t)
	defer func() {
		if recover() == nil {
			t.Error("Send without channel did not panic")
		}
	}()
	n.Send("a", "c", 1)
}

func TestDuplicateNodePanics(t *testing.T) {
	_, n := build(t)
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddNode did not panic")
		}
	}()
	n.AddNode("a")
}

func TestDuplicateChannelPanics(t *testing.T) {
	_, n := build(t)
	defer func() {
		if recover() == nil {
			t.Error("duplicate Connect did not panic")
		}
	}()
	n.Connect("b", "a", sim.Microsecond)
}

func TestStatsCount(t *testing.T) {
	s, n := build(t)
	n.Handle("b", func(NodeID, Message) {})
	for i := 0; i < 7; i++ {
		n.Send("a", "b", i)
	}
	s.Run()
	if n.Stats().MessagesSent != 7 {
		t.Errorf("MessagesSent = %d", n.Stats().MessagesSent)
	}
}

func TestBidirectional(t *testing.T) {
	s, n := build(t)
	got := map[NodeID]bool{}
	n.Handle("a", func(from NodeID, _ Message) { got["a<-"+from] = true })
	n.Handle("b", func(from NodeID, _ Message) { got["b<-"+from] = true })
	n.Send("a", "b", 1)
	n.Send("b", "a", 2)
	s.Run()
	if !got["a<-b"] || !got["b<-a"] {
		t.Errorf("bidirectional delivery failed: %v", got)
	}
}

// recycled is a pooled test message that counts its recycles and records
// whether every handler had run by then.
type recycled struct {
	handled, recycles int
	handledAtRecycle  int
}

func (r *recycled) Recycle() {
	r.recycles++
	r.handledAtRecycle = r.handled
}

// TestRecycleAfterAllHandlers pins the pooled-message contract: a Recycler
// goes back exactly once per delivery, after every handler at the receiving
// node has returned.
func TestRecycleAfterAllHandlers(t *testing.T) {
	s, n := build(t)
	msg := &recycled{}
	for i := 0; i < 2; i++ {
		n.Handle("b", func(_ NodeID, m Message) { m.(*recycled).handled++ })
	}
	n.Send("a", "b", msg)
	s.Run()
	if msg.recycles != 1 || msg.handledAtRecycle != 2 {
		t.Fatalf("recycled %d times after %d handlers, want once after 2", msg.recycles, msg.handledAtRecycle)
	}
}

// TestPortMatchesSend checks that a resolved Port delivers exactly as Send
// does, and that the per-network delivery records are reused.
func TestPortMatchesSend(t *testing.T) {
	s, n := build(t)
	var got []any
	var at []sim.Time
	n.Handle("c", func(from NodeID, m Message) {
		got = append(got, m)
		at = append(at, s.Now())
	})
	p := n.Port("b", "c")
	p.Send(1)
	n.Send("b", "c", 2)
	s.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 || at[0] != at[1] {
		t.Fatalf("port and Send delivered %v at %v", got, at)
	}
	if n.free == nil || n.free.next == nil {
		t.Fatal("delivery records were not returned to the free list")
	}
	defer func() {
		if recover() == nil {
			t.Error("Port over a missing channel did not panic")
		}
	}()
	n.Port("a", "c")
}

// TestDeliveryDoubleReleasePanics pins the free list's safety check.
func TestDeliveryDoubleReleasePanics(t *testing.T) {
	_, n := build(t)
	d := &delivery{net: n}
	n.release(d)
	defer func() {
		if r := recover(); r == nil {
			t.Error("releasing a free delivery record did not panic")
		}
	}()
	n.release(d)
}
