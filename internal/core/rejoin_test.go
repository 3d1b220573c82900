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

func TestSyncReqServedWithMissingEntries(t *testing.T) {
	h := newHarness(t, 0, DefaultConfig())
	held := h.p.Broadcast([]byte("you missed this"))
	known := h.p.Broadcast([]byte("you have this"))
	h.introduceNeighbors(map[wire.NodeID]*wire.OverlayState{5: {}})
	h.sent = nil

	h.p.HandlePacket(&wire.Packet{
		Kind:     wire.KindSyncReq,
		Sender:   5,
		TTL:      1,
		Target:   0,
		Origin:   wire.NoNode,
		SyncHave: []wire.MsgID{known},
	})
	resps := h.sentOfKind(wire.KindSyncResp)
	if len(resps) != 1 {
		t.Fatalf("sent %d sync responses, want 1", len(resps))
	}
	resp := resps[0]
	if resp.Target != 5 {
		t.Fatalf("response targeted %d, want 5", resp.Target)
	}
	if len(resp.SyncEntries) != 1 || resp.SyncEntries[0].ID != held {
		t.Fatalf("response entries %v, want exactly %v", resp.SyncEntries, held)
	}
	if !h.scheme.Verify(0, wire.DataSigBytes(held, resp.SyncEntries[0].Payload), resp.SyncEntries[0].Sig) {
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
		SyncEntries: []wire.SyncEntry{{
			ID:        id,
			Payload:   payload,
			Sig:       h.scheme.Sign(4, wire.DataSigBytes(id, payload)),
			HeaderSig: h.scheme.Sign(4, wire.HeaderSigBytes(id)),
		}},
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
		SyncEntries: []wire.SyncEntry{{
			ID:      id,
			Payload: []byte("forged"),
			Sig:     []byte("not a signature"),
		}},
	})
	if len(h.delivered) != 0 {
		t.Fatalf("forged sync entry delivered: %v", h.delivered)
	}
	if h.p.Holds(id) {
		t.Fatal("forged sync entry stored")
	}
}
