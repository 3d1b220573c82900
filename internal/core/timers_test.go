package core

import (
	"slices"
	"testing"
	"time"

	"bbcast/internal/wire"
)

// TestRecoveryTimersFireInArmOrder: recovery timers are values that the clock
// pops one per event, by (due, arm order), just as it orders its own events.
// Requests armed at one instant with one delay go out in the order they were
// armed, whatever their ids; a shorter delay armed later goes out first. The
// heap outlives Rejoin: timers armed before it pop their own stale entries as
// no-ops, so each request and deferred reply armed after it goes out at its
// own deadline.
func TestRecoveryTimersFireInArmOrder(t *testing.T) {
	cfg := DefaultConfig()
	h := newHarness(t, 0, cfg)
	type sent struct {
		at   time.Duration
		kind wire.Kind
		id   wire.MsgID
		to   wire.NodeID
	}
	var got []sent
	h.p.deps.Send = func(pkt *wire.Packet) {
		if pkt.Kind == wire.KindRequest || pkt.Kind == wire.KindFindMissing {
			got = append(got, sent{h.eng.Now(), pkt.Kind, pkt.ID(), pkt.Target})
		}
	}
	rd := cfg.RequestDelay
	id := func(origin wire.NodeID, seq wire.Seq) wire.MsgID { return wire.MsgID{Origin: origin, Seq: seq} }
	relay := replyCases[2] // a FIND_MISSING this passive node relays

	// Five requests to gossiper 2, advertised out of id order, then one to
	// the origin itself, which waits twice as long.
	batch := []wire.MsgID{id(7, 3), id(7, 1), id(7, 5), id(7, 2), id(7, 4)}
	h.p.HandlePacket(h.gossipFrom(2, batch...))
	h.p.HandlePacket(h.gossipFrom(3, id(3, 1)))
	h.run(rd / 2)
	h.p.HandlePacket(h.gossipFrom(4, id(7, 6)))
	var want []sent
	for _, m := range batch {
		want = append(want, sent{rd, wire.KindRequest, m, 2})
	}
	want = append(want,
		sent{rd * 3 / 2, wire.KindRequest, id(7, 6), 4},
		sent{2 * rd, wire.KindRequest, id(3, 1), 3})
	h.run(2 * rd) // the retry chains fire 800 ms or more after the first requests
	if !slices.Equal(got, want) {
		t.Fatalf("before Rejoin sent\n%v\nwant\n%v", got, want)
	}

	// Across Rejoin: a request and a deferred relay armed before it, two
	// more armed after it.
	got = nil
	at := h.eng.Now()
	h.p.HandlePacket(h.gossipFrom(5, id(8, 1)))
	h.p.HandlePacket(h.ask(relay, id(8, 2), 9))
	h.run(time.Millisecond)
	h.p.Rejoin()
	h.run(time.Millisecond)
	h.p.HandlePacket(h.gossipFrom(5, id(8, 3)))
	h.p.HandlePacket(h.ask(relay, id(8, 4), 9))
	h.run(rd + time.Millisecond)
	want = []sent{
		{at + 2*time.Millisecond + h.p.replyBackoff(id(8, 4)), wire.KindFindMissing, id(8, 4), 9},
		{at + 2*time.Millisecond + rd, wire.KindRequest, id(8, 3), 5},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("across Rejoin sent\n%v\nwant\n%v", got, want)
	}
}
