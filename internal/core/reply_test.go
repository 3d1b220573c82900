package core

import (
	"testing"
	"time"

	"bbcast/internal/wire"
)

// replyCase is one of the four recovery replies a node may owe nobody in
// particular: the frame that asks for it and the kind of frame it sends.
type replyCase struct {
	name    string
	held    bool      // the node holds the message when asked
	overlay bool      // the node is an overlay node
	ask     wire.Kind // REQUEST or FIND_MISSING
	want    wire.Kind // what the reply sends
}

var replyCases = []replyCase{
	{"request-answer", true, true, wire.KindRequest, wire.KindData},          // Figure 4 line 48
	{"find-dispatch", false, true, wire.KindRequest, wire.KindFindMissing},   // line 52
	{"find-relay", false, false, wire.KindFindMissing, wire.KindFindMissing}, // lines 63–66
	{"find-answer", true, true, wire.KindFindMissing, wire.KindData},         // lines 73/75
}

var replyID = wire.MsgID{Origin: 1, Seq: 1}

// replyRig makes node 5 an overlay node or a passive one under dominator 9,
// holding replyID or not, as c says, with nothing sent yet.
func replyRig(t *testing.T, c replyCase, cfg Config) *harness {
	t.Helper()
	h := newHarness(t, 5, cfg)
	if c.overlay {
		h.makeOverlay()
	} else {
		h.introduceNeighbors(map[wire.NodeID]*wire.OverlayState{
			9: {Active: true, Dominator: true, Neighbors: []wire.NodeID{5}},
		})
		h.run(4 * time.Second)
		if h.p.InOverlay() {
			t.Fatal("node joined the overlay despite a higher dominator neighbour")
		}
	}
	if c.held {
		h.p.HandlePacket(h.dataFrom(1, 1, []byte("m")))
	}
	h.sent = nil
	return h
}

// ask builds c's asking frame for id, sent by 3 and addressed to target.
func (h *harness) ask(c replyCase, id wire.MsgID, target wire.NodeID) *wire.Packet {
	ttl := uint8(1)
	if c.ask == wire.KindFindMissing {
		ttl = 2
	}
	return &wire.Packet{
		Kind: c.ask, Sender: 3, TTL: ttl, Target: target,
		Origin: id.Origin, Seq: id.Seq,
		Sig: h.scheme.Sign(uint32(id.Origin), wire.HeaderSigBytes(id)),
	}
}

// TestDeferredReplyAddressedAnswersAtOnce: the node a request names answers
// in the step that delivered it, and nothing it later overhears counts as a
// suppressed reply.
func TestDeferredReplyAddressedAnswersAtOnce(t *testing.T) {
	for _, c := range replyCases {
		t.Run(c.name, func(t *testing.T) {
			h := replyRig(t, c, DefaultConfig())
			h.p.HandlePacket(h.ask(c, replyID, 5))
			if got := h.sentOfKind(c.want); len(got) != 1 {
				t.Fatalf("addressed node sent %d %v frames in the receiving step, want 1", len(got), c.want)
			}
			h.p.HandlePacket(forwardedBy(h.dataFrom(1, 1, []byte("m")), 2))
			if n := h.p.Stats().RepliesSuppressed; n != 0 {
				t.Fatalf("RepliesSuppressed = %d after an addressed reply, want 0", n)
			}
		})
	}
}

// TestDeferredReplyMuteGossiperStillServed: when the named gossiper stays
// silent, every unaddressed reply still goes out, no sooner than
// RequestDelay/8 and no later than RequestDelay/4 after the request.
func TestDeferredReplyMuteGossiperStillServed(t *testing.T) {
	cfg := DefaultConfig()
	for _, c := range replyCases {
		t.Run(c.name, func(t *testing.T) {
			h := replyRig(t, c, cfg)
			h.p.HandlePacket(h.ask(c, replyID, 2))
			h.run(cfg.RequestDelay/8 - time.Nanosecond)
			if got := h.sentOfKind(c.want); len(got) != 0 {
				t.Fatalf("unaddressed reply sent before RequestDelay/8: %v", got)
			}
			h.run(cfg.RequestDelay/4 - cfg.RequestDelay/8 + time.Nanosecond)
			if got := h.sentOfKind(c.want); len(got) != 1 {
				t.Fatalf("mute gossiper: %d %v frames within RequestDelay/4, want 1", len(got), c.want)
			}
			if n := len(h.p.replies); n != 0 {
				t.Fatalf("%d deferred replies left after firing, want 0", n)
			}
		})
	}
}

// TestDeferredReplyCancelledByOverheardData: a valid data frame for the id,
// here the gossiper's own answer, drops every pending unaddressed reply.
func TestDeferredReplyCancelledByOverheardData(t *testing.T) {
	cfg := DefaultConfig()
	for _, c := range replyCases {
		t.Run(c.name, func(t *testing.T) {
			h := replyRig(t, c, cfg)
			h.p.HandlePacket(h.ask(c, replyID, 2))
			h.run(cfg.RequestDelay / 16)
			h.p.HandlePacket(forwardedBy(h.dataFrom(1, 1, []byte("m")), 2))
			h.run(cfg.RequestDelay)
			if got := h.sentOfKind(c.want); c.want != wire.KindData && len(got) != 0 {
				t.Fatalf("search sent though the data was overheard: %v", got)
			}
			for _, pkt := range h.sentOfKind(wire.KindData) {
				if pkt.Meta.Cause == wire.CauseGossipRecovery {
					t.Fatalf("answer sent though the gossiper's was overheard: %+v", pkt)
				}
			}
			if n := h.p.Stats().RepliesSuppressed; n != 1 {
				t.Fatalf("RepliesSuppressed = %d, want 1", n)
			}
		})
	}
}

// TestDeferredReplyNotCancelledByForgedFrame: a data frame for the id whose
// signature does not verify silences nothing.
func TestDeferredReplyNotCancelledByForgedFrame(t *testing.T) {
	cfg := DefaultConfig()
	for _, c := range replyCases {
		t.Run(c.name, func(t *testing.T) {
			h := replyRig(t, c, cfg)
			h.p.HandlePacket(h.ask(c, replyID, 2))
			forged := forwardedBy(h.dataFrom(1, 1, []byte("m")), 2)
			forged.Payload[0] ^= 0xFF
			h.p.HandlePacket(forged)
			h.run(cfg.RequestDelay / 4)
			if got := h.sentOfKind(c.want); len(got) != 1 {
				t.Fatalf("forged frame silenced the reply: %d %v frames, want 1", len(got), c.want)
			}
			if n := h.p.Stats().RepliesSuppressed; n != 0 {
				t.Fatalf("RepliesSuppressed = %d, want 0", n)
			}
		})
	}
}

// TestDeferredReplyOnePerID: one broadcast answers every asker in range, so a
// second request for a pending id adds no reply.
func TestDeferredReplyOnePerID(t *testing.T) {
	cfg := DefaultConfig()
	for _, c := range replyCases {
		t.Run(c.name, func(t *testing.T) {
			h := replyRig(t, c, cfg)
			first := h.ask(c, replyID, 2)
			second := first.Clone()
			second.Sender = 4
			h.p.HandlePacket(first)
			h.p.HandlePacket(second)
			h.run(cfg.RequestDelay / 4)
			if got := h.sentOfKind(c.want); len(got) != 1 {
				t.Fatalf("%d %v frames for two askers of one id, want 1", len(got), c.want)
			}
		})
	}
}

// TestDeferredReplyDroppedWhenAddressed: a node that replies at once to a
// request naming it drops the reply it had deferred for the same id.
func TestDeferredReplyDroppedWhenAddressed(t *testing.T) {
	cfg := DefaultConfig()
	for _, c := range replyCases {
		t.Run(c.name, func(t *testing.T) {
			h := replyRig(t, c, cfg)
			h.p.HandlePacket(h.ask(c, replyID, 2))
			h.p.HandlePacket(h.ask(c, replyID, 5))
			h.run(cfg.RequestDelay / 4)
			if got := h.sentOfKind(c.want); len(got) != 1 {
				t.Fatalf("%d %v frames, want the addressed reply only", len(got), c.want)
			}
			if n := h.p.Stats().RepliesSuppressed; n != 1 {
				t.Fatalf("RepliesSuppressed = %d, want 1", n)
			}
		})
	}
}

// TestDeferredReplyAtCapAnswersAtOnce:the table of deferred replies holds at
// most MaxReqSeen ids; past that the node answers as if it never deferred.
func TestDeferredReplyAtCapAnswersAtOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxReqSeen = 2
	c := replyCases[0]
	h := replyRig(t, c, cfg)
	for seq := wire.Seq(1); seq <= 3; seq++ {
		h.p.HandlePacket(h.dataFrom(1, seq, []byte("m")))
	}
	h.sent = nil
	for seq := wire.Seq(1); seq <= 3; seq++ {
		h.p.HandlePacket(h.ask(c, wire.MsgID{Origin: 1, Seq: seq}, 2))
		if n := len(h.p.replies); n > cfg.MaxReqSeen {
			t.Fatalf("%d deferred replies, cap %d", n, cfg.MaxReqSeen)
		}
	}
	if got := h.sentOfKind(wire.KindData); len(got) != 1 || got[0].Seq != 3 {
		t.Fatalf("at the cap: sent %v in the receiving step, want the answer for seq 3", got)
	}
	h.run(cfg.RequestDelay / 4)
	if got := h.sentOfKind(wire.KindData); len(got) != 3 {
		t.Fatalf("%d answers after the backoff, want 3", len(got))
	}
}

// TestDeferredReplyTimerFindsOnlyItsOwnEntry: a dropped reply's timer still
// fires, and must not send a later reply deferred for the same id before that
// reply's own deadline.
func TestDeferredReplyTimerFindsOnlyItsOwnEntry(t *testing.T) {
	cfg := DefaultConfig()
	c := replyCases[0]
	h := replyRig(t, c, cfg)
	backoff := h.p.replyBackoff(replyID)
	first := h.ask(c, replyID, 2)
	h.p.HandlePacket(first)
	h.run(backoff / 4)
	h.p.HandlePacket(forwardedBy(h.dataFrom(1, 1, []byte("m")), 2))
	h.run(backoff / 4)
	second := first.Clone()
	second.Sender = 4
	h.p.HandlePacket(second) // deadline 2·backoff/4 after the first's
	h.run(backoff/2 + time.Nanosecond)
	if got := h.sentOfKind(c.want); len(got) != 0 {
		t.Fatalf("the dropped reply's timer sent %d answers at its own deadline", len(got))
	}
	h.run(backoff / 2)
	if got := h.sentOfKind(c.want); len(got) != 1 || got[0].Target != 4 {
		t.Fatalf("sent %v at the second reply's deadline, want one answer to 4", got)
	}
}
