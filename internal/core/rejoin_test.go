package core

import (
	"testing"
	"time"

	"bbcast/internal/persist"
	"bbcast/internal/wire"
)

// newPersistHarness is newHarness with a MemDevice-backed durable store
// attached, the way the runner attaches one when Config.Persist is on.
func newPersistHarness(t *testing.T, selfID wire.NodeID, cfg Config) (*harness, *persist.MemDevice) {
	t.Helper()
	cfg.Persist = true
	dev := &persist.MemDevice{}
	st, err := persist.Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	return newHarnessWith(t, selfID, cfg, func(d *Deps) { d.Store = st }), dev
}

func TestRejoinRestoresSeqAndDedup(t *testing.T) {
	h, dev := newPersistHarness(t, 0, DefaultConfig())
	a := h.p.Broadcast([]byte("one"))
	b := h.p.Broadcast([]byte("two"))
	foreign := h.dataFrom(3, 1, []byte("from elsewhere"))
	h.p.HandlePacket(foreign)
	if len(h.delivered) != 3 {
		t.Fatalf("delivered %d messages before the crash, want 3", len(h.delivered))
	}

	// The amnesiac reboot: volatile state gone, the device re-opened.
	st, err := persist.Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	h.p.SetStore(st)
	h.p.Rejoin()
	h.delivered = nil

	c := h.p.Broadcast([]byte("after"))
	if c.Seq <= b.Seq {
		t.Fatalf("sequence went backwards across rejoin: %d after %d (ids %v %v)", c.Seq, b.Seq, a, c)
	}
	h.delivered = nil
	h.p.HandlePacket(foreign)
	if len(h.delivered) != 0 {
		t.Fatalf("restored tombstones did not stop re-delivery: %v", h.delivered)
	}
}

func TestRejoinWithoutStoreIsAmnesiac(t *testing.T) {
	h := newHarness(t, 0, DefaultConfig())
	a := h.p.Broadcast([]byte("one"))
	foreign := h.dataFrom(3, 1, []byte("from elsewhere"))
	h.p.HandlePacket(foreign)

	h.p.Rejoin()
	h.delivered = nil

	if b := h.p.Broadcast([]byte("again")); b.Seq != a.Seq {
		t.Fatalf("amnesiac node should reuse seq %d, got %d", a.Seq, b.Seq)
	}
	h.p.HandlePacket(foreign)
	found := false
	for _, id := range h.delivered {
		if id == foreign.ID() {
			found = true
		}
	}
	if !found {
		t.Fatal("truly amnesiac node should have re-delivered the old message")
	}
}

// TestRejoinSilencesArmedRequests: a first request and a retry are armed when
// the node rejoins, and the same id is advertised again afterwards by a third
// gossiper. Only the new entry's requests go out: the old timers find their
// entry gone with the old table.
func TestRejoinSilencesArmedRequests(t *testing.T) {
	cfg := DefaultConfig()
	h := newHarness(t, 0, cfg)
	id := wire.MsgID{Origin: 1, Seq: 7}
	h.p.HandlePacket(h.gossipFrom(2, id))
	h.run(cfg.RequestDelay + 50*time.Millisecond) // request to 2 sent, retry armed
	h.p.HandlePacket(h.gossipFrom(3, id))         // request to 3 armed
	if got := len(h.sentOfKind(wire.KindRequest)); got != 1 {
		t.Fatalf("requests before rejoin = %d, want 1", got)
	}
	h.p.Rejoin()
	h.sent = nil
	h.p.HandlePacket(h.gossipFrom(4, id))
	h.run(2 * time.Minute)

	// The new entry asks gossiper 4 until it reaches RequestTolerance.
	reqs := h.sentOfKind(wire.KindRequest)
	if len(reqs) != cfg.RequestTolerance {
		t.Fatalf("requests after rejoin = %d, want the new entry's %d", len(reqs), cfg.RequestTolerance)
	}
	for _, r := range reqs {
		if r.Target != 4 {
			t.Fatalf("request to %d after rejoin: a timer armed before it fired", r.Target)
		}
	}
}

func TestSyncReqServedWithMissingEntries(t *testing.T) {
	h := newHarness(t, 0, DefaultConfig())
	held := h.p.Broadcast([]byte("you missed this"))
	known := h.p.Broadcast([]byte("you have this"))
	h.introduceNeighbors(map[wire.NodeID]*wire.OverlayState{5: {}})
	h.sent = nil

	h.p.HandlePacket(&wire.Packet{
		Kind:   wire.KindSyncReq,
		Sender: 5,
		TTL:    1,
		Target: 0,
		Origin: wire.NoNode,
		Sync:   &wire.SyncBody{Have: []wire.MsgID{known}},
	})
	resps := h.sentOfKind(wire.KindSyncResp)
	if len(resps) != 1 {
		t.Fatalf("sent %d sync responses, want 1", len(resps))
	}
	resp := resps[0]
	if resp.Target != 5 {
		t.Fatalf("response targeted %d, want 5", resp.Target)
	}
	served := resp.SyncEntries()
	if len(served) != 1 || served[0].ID != held {
		t.Fatalf("response entries %v, want exactly %v", served, held)
	}
	if !h.scheme.Verify(0, wire.DataSigBytes(held, served[0].Payload), served[0].Sig) {
		t.Fatal("served entry's data signature does not verify")
	}
}

func TestCatchUpSyncRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CatchUpSync = true
	h := newHarness(t, 0, cfg)
	h.p.Rejoin()
	if h.p.Synced() {
		t.Fatal("rejoin with CatchUpSync should arm the sync loop")
	}
	// The rejoiner hears its neighbourhood again, then the first sync round
	// fires after the retry delay.
	h.introduceNeighbors(map[wire.NodeID]*wire.OverlayState{3: {}})
	h.sent = nil
	h.run(syncRetryDelay + 100*time.Millisecond)
	reqs := h.sentOfKind(wire.KindSyncReq)
	if len(reqs) == 0 {
		t.Fatal("armed rejoiner with an admitted neighbour never sent a SYNC-REQ")
	}
	if reqs[0].Target != 3 {
		t.Fatalf("SYNC-REQ targeted %d, want 3", reqs[0].Target)
	}

	id := wire.MsgID{Origin: 4, Seq: 9}
	payload := []byte("missed while down")
	h.delivered = nil
	h.p.HandlePacket(&wire.Packet{
		Kind:   wire.KindSyncResp,
		Sender: 3,
		TTL:    1,
		Target: 0,
		Origin: wire.NoNode,
		Sync: &wire.SyncBody{Entries: []wire.SyncEntry{{
			ID:        id,
			Payload:   payload,
			Sig:       h.scheme.Sign(4, wire.DataSigBytes(id, payload)),
			HeaderSig: h.scheme.Sign(4, wire.HeaderSigBytes(id)),
		}}},
	})
	if len(h.delivered) != 1 || h.delivered[0] != id {
		t.Fatalf("sync response not applied: delivered %v", h.delivered)
	}
	if !h.p.Holds(id) {
		t.Fatal("applied sync entry not held")
	}
	// A short batch means the neighbour had nothing else: caught up.
	if !h.p.Synced() {
		t.Fatal("short batch should complete catch-up")
	}
}

func TestSyncRespWithBadSignatureRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CatchUpSync = true
	h := newHarness(t, 0, cfg)
	h.p.Rejoin()
	id := wire.MsgID{Origin: 4, Seq: 9}
	h.p.HandlePacket(&wire.Packet{
		Kind:   wire.KindSyncResp,
		Sender: 3,
		TTL:    1,
		Target: 0,
		Origin: wire.NoNode,
		Sync: &wire.SyncBody{Entries: []wire.SyncEntry{{
			ID:      id,
			Payload: []byte("forged"),
			Sig:     []byte("not a signature"),
		}}},
	})
	if len(h.delivered) != 0 {
		t.Fatalf("forged sync entry delivered: %v", h.delivered)
	}
	if h.p.Holds(id) {
		t.Fatal("forged sync entry stored")
	}
}

// TestRejoinDropsDeferredReplies: a FIND dispatch deferred before Rejoin
// never goes out, though the rejoined node still lacks the message.
func TestRejoinDropsDeferredReplies(t *testing.T) {
	cfg := DefaultConfig()
	c := replyCases[1] // find-dispatch
	h := replyRig(t, c, cfg)
	h.p.HandlePacket(h.ask(c, replyID, 2))
	h.p.Rejoin()
	h.run(cfg.RequestDelay / 4)
	if h.p.Holds(replyID) {
		t.Fatal("the rejoined node holds the message")
	}
	if got := h.sentOfKind(wire.KindFindMissing); len(got) != 0 {
		t.Fatalf("a search deferred before Rejoin went out after it: %v", got)
	}
}
