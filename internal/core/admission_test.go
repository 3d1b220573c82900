package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"bbcast/internal/wire"
)

// Admission-control and state-GC tests: every bound from ISSUE 4 — token
// bucket, dedup-before-verify, neighbour/store/missing/reqSeen caps,
// tombstone quiescence — exercised directly against one protocol instance.

// admitTestConfig disables rate limiting so tests of the other bounds can
// send back-to-back packets without tripping the bucket.
func admitTestConfig() Config {
	cfg := DefaultConfig()
	cfg.AdmitRate = 0
	return cfg
}

func TestAdmissionBucketShedsFlood(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AdmitRate = 2
	cfg.AdmitBurst = 4
	h := newHarness(t, 0, cfg)

	// Ten back-to-back packets from one sender: the first burst-worth are
	// admitted (and accepted — all are validly signed), the rest shed before
	// any signature check.
	for seq := wire.Seq(1); seq <= 10; seq++ {
		h.p.HandlePacket(h.dataFrom(1, seq, []byte("flood")))
	}
	st := h.p.Stats()
	if st.Accepted != 4 {
		t.Fatalf("accepted %d of a 10-packet burst, want burst size 4", st.Accepted)
	}
	if st.RateLimited != 6 {
		t.Fatalf("rate-limited %d, want 6", st.RateLimited)
	}

	// The bucket refills at AdmitRate: two seconds buy four more tokens.
	h.run(2 * time.Second)
	h.p.HandlePacket(h.dataFrom(1, 11, []byte("later")))
	if got := h.p.Stats(); got.Accepted != 5 || got.RateLimited != 6 {
		t.Fatalf("after refill: accepted=%d rate-limited=%d, want 5 and 6",
			got.Accepted, got.RateLimited)
	}
}

func TestDuplicateDataVerifiedByByteEquality(t *testing.T) {
	h := newHarness(t, 0, admitTestConfig())
	h.p.HandlePacket(h.dataFrom(1, 1, []byte("payload")))
	h.p.HandlePacket(h.dataFrom(1, 1, []byte("payload"))) // byte-identical replay
	st := h.p.Stats()
	if st.Accepted != 1 || st.Duplicates != 1 {
		t.Fatalf("accepted=%d duplicates=%d, want 1 and 1", st.Accepted, st.Duplicates)
	}
	if st.DedupSkips != 1 {
		t.Fatalf("dedup-skips=%d, want 1 (replay must not cost a verification)", st.DedupSkips)
	}
}

func TestGossipReplayVerifiedByByteEquality(t *testing.T) {
	h := newHarness(t, 0, admitTestConfig())
	id := wire.MsgID{Origin: 2, Seq: 9}
	h.p.HandlePacket(h.gossipFrom(1, id))
	if len(h.p.missing) != 1 {
		t.Fatalf("missing table has %d entries, want 1", len(h.p.missing))
	}
	// The identical advertisement again (same header signature): matched
	// against the tracked entry by byte equality, not re-verified.
	h.p.HandlePacket(h.gossipFrom(1, id))
	if st := h.p.Stats(); st.DedupSkips != 1 || st.BadSignatures != 0 {
		t.Fatalf("dedup-skips=%d bad-sigs=%d, want 1 and 0", st.DedupSkips, st.BadSignatures)
	}
}

func TestGossipBatchTrimmedToRxCap(t *testing.T) {
	cfg := admitTestConfig()
	cfg.GossipMaxEntries = 2 // a receiver reads twice what a sender packs
	h := newHarness(t, 0, cfg)
	ids := make([]wire.MsgID, 10)
	for i := range ids {
		ids[i] = wire.MsgID{Origin: 2, Seq: wire.Seq(i + 1)}
	}
	h.p.HandlePacket(h.gossipFrom(1, ids...))
	if len(h.p.missing) != 4 {
		t.Fatalf("missing table has %d entries after a 10-entry batch, want the rx cap 4",
			len(h.p.missing))
	}
}

func TestForgedGossipEntryRejected(t *testing.T) {
	h := newHarness(t, 0, admitTestConfig())
	pkt := &wire.Packet{
		Kind: wire.KindGossip, Sender: 1, TTL: 1, Target: wire.NoNode, Origin: wire.NoNode,
		Gossip: []wire.GossipEntry{{
			ID:  wire.MsgID{Origin: 2, Seq: 1},
			Sig: []byte("not a signature"),
		}},
	}
	h.p.HandlePacket(pkt)
	if st := h.p.Stats(); st.BadSignatures != 1 {
		t.Fatalf("bad-signatures=%d, want 1", st.BadSignatures)
	}
	if len(h.p.missing) != 0 {
		t.Fatal("forged advertisement must not be tracked as missing")
	}
}

func TestNeighborTableEvictsLRU(t *testing.T) {
	cfg := admitTestConfig()
	cfg.MaxNeighbors = 4
	h := newHarness(t, 0, cfg)
	for i := 1; i <= 8; i++ {
		h.p.HandlePacket(h.dataFrom(wire.NodeID(i), 1, []byte("x")))
		h.run(10 * time.Millisecond) // distinct lastHeard per sender
	}
	if n := h.p.NeighborCount(); n != 4 {
		t.Fatalf("neighbour table has %d entries, want cap 4", n)
	}
	for i := 1; i <= 4; i++ {
		if h.p.neighbors[wire.NodeID(i)] != nil {
			t.Fatalf("stale neighbour %d survived LRU eviction", i)
		}
	}
	for i := 5; i <= 8; i++ {
		if h.p.neighbors[wire.NodeID(i)] == nil {
			t.Fatalf("recent neighbour %d was evicted", i)
		}
	}
	if st := h.p.Stats(); st.Evictions != 4 {
		t.Fatalf("evictions=%d, want 4", st.Evictions)
	}
}

func TestStoreCapEvictsTombstonesFirst(t *testing.T) {
	cfg := admitTestConfig()
	cfg.MaxStore = 2
	h := newHarness(t, 0, cfg)
	a := wire.MsgID{Origin: 1, Seq: 1}
	b := wire.MsgID{Origin: 1, Seq: 2}
	h.p.HandlePacket(h.dataFrom(1, 1, []byte("a")))
	h.run(10 * time.Millisecond)
	h.p.HandlePacket(h.dataFrom(1, 2, []byte("b")))
	// Tombstone the older entry as the purge task would: at the cap it must
	// be the victim even though a younger held entry exists.
	h.p.store.entomb(h.p.store.byID[a], h.p.deps.Clock.Now())
	h.run(10 * time.Millisecond)
	h.p.HandlePacket(h.dataFrom(1, 3, []byte("c")))
	if _, ok := h.p.store.byID[a]; ok {
		t.Fatal("tombstone survived store-cap eviction")
	}
	if !h.p.Holds(b) || !h.p.Holds(wire.MsgID{Origin: 1, Seq: 3}) {
		t.Fatal("held payloads were evicted while a tombstone existed")
	}
	if st := h.p.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions=%d, want 1", st.Evictions)
	}
}

func TestStoreCapEvictsOldestHeld(t *testing.T) {
	cfg := admitTestConfig()
	cfg.MaxStore = 4
	h := newHarness(t, 0, cfg)
	for seq := wire.Seq(1); seq <= 8; seq++ {
		h.p.HandlePacket(h.dataFrom(1, seq, []byte("x")))
		h.run(10 * time.Millisecond)
	}
	if n := len(h.p.store.byID); n != 4 {
		t.Fatalf("store has %d entries, want cap 4", n)
	}
	for seq := wire.Seq(5); seq <= 8; seq++ {
		if !h.p.Holds(wire.MsgID{Origin: 1, Seq: seq}) {
			t.Fatalf("recent message seq %d was evicted", seq)
		}
	}
}

func TestMissingTableRejectsAtCap(t *testing.T) {
	cfg := admitTestConfig()
	cfg.MaxMissing = 2
	h := newHarness(t, 0, cfg)
	for i := 1; i <= 4; i++ {
		h.p.HandlePacket(h.gossipFrom(1, wire.MsgID{Origin: 2, Seq: wire.Seq(i)}))
	}
	if n := len(h.p.missing); n != 2 {
		t.Fatalf("missing table has %d entries, want cap 2", n)
	}
	if st := h.p.Stats(); st.Evictions != 2 {
		t.Fatalf("evictions=%d, want 2 rejected advertisements", st.Evictions)
	}
}

// ascending fails t unless c's nodes rise strictly: one entry per node, in
// order.
func ascending(t *testing.T, c counts) {
	t.Helper()
	for i := 1; i < len(c); i++ {
		if c[i-1].node >= c[i].node {
			t.Fatalf("entries %d and %d are %d then %d, want strictly ascending", i-1, i, c[i-1].node, c[i].node)
		}
	}
}

// TestMissingTableTracksAtMostMaxGossipers: each advertiser of a missing id
// is tracked once, in node order, up to maxMissGossipers, and every tracked
// one is asked once.
func TestMissingTableTracksAtMostMaxGossipers(t *testing.T) {
	cfg := admitTestConfig()
	h := newHarness(t, 0, cfg)
	id := wire.MsgID{Origin: 1, Seq: 1}
	for g := wire.NodeID(100 + maxMissGossipers + 6); g > 100; g-- {
		h.p.HandlePacket(h.gossipFrom(g, id))
		h.p.HandlePacket(h.gossipFrom(g, id)) // a repeat adds no entry
	}
	miss := h.p.missing[id]
	if miss == nil {
		t.Fatal("no recovery entry for the advertised id")
	}
	if n := len(miss.gossipers); n != maxMissGossipers {
		t.Fatalf("%d gossipers tracked, want %d", n, maxMissGossipers)
	}
	ascending(t, miss.gossipers)
	if lo := miss.gossipers[0].node; lo != 107 {
		t.Fatalf("lowest tracked gossiper is %d, want 107: the first %d to advertise", lo, maxMissGossipers)
	}
	h.run(cfg.RequestDelay + time.Millisecond)
	if got := len(h.sentOfKind(wire.KindRequest)); got != maxMissGossipers {
		t.Fatalf("%d requests, want one per tracked gossiper (%d)", got, maxMissGossipers)
	}
}

// TestReqSeenCountsEachRequesterOnce: a request record counts each requester
// in one entry, in node order, and a requester past maxReqCounters is served
// as a first-time asker but not remembered.
func TestReqSeenCountsEachRequesterOnce(t *testing.T) {
	h := newHarness(t, 0, admitTestConfig())
	id := wire.MsgID{Origin: 1, Seq: 1}
	for _, from := range []wire.NodeID{9, 3, 9, 5, 3, 9} {
		h.p.bumpRequestCount(id, from)
	}
	rec := h.p.reqSeen[id]
	if want := (counts{{3, 2}, {5, 1}, {9, 3}}); !slices.Equal(rec.counts, want) {
		t.Fatalf("counts = %v, want %v", rec.counts, want)
	}
	for from := wire.NodeID(100 + maxReqCounters); len(rec.counts) < maxReqCounters; from-- {
		h.p.bumpRequestCount(id, from)
	}
	ascending(t, rec.counts)
	for i := 0; i < 3; i++ {
		if n := h.p.bumpRequestCount(id, 1000); n != 1 {
			t.Fatalf("requester past the cap counted %d, want 1 every time", n)
		}
	}
	if n := h.p.bumpRequestCount(id, 9); n != 4 {
		t.Fatalf("a tracked requester at the cap counted %d, want 4", n)
	}
	if len(rec.counts) != maxReqCounters {
		t.Fatalf("%d requesters remembered, cap %d", len(rec.counts), maxReqCounters)
	}
}

// request builds a REQUEST for id from requester, addressed to node 0.
func (h *harness) request(requester wire.NodeID, id wire.MsgID) *wire.Packet {
	return headerFrame(wire.KindRequest, requester, id, h.scheme.Sign(uint32(id.Origin), wire.HeaderSigBytes(id)))
}

// TestReqSeenCapAndTTL: requests for held messages open one record each, up
// to MaxReqSeen (at the cap the least recently touched goes), and each record
// dies with its payload at the first purge past PurgeTimeout.
func TestReqSeenCapAndTTL(t *testing.T) {
	cfg := admitTestConfig()
	cfg.MaxReqSeen = 3
	cfg.PurgeTimeout = 2 * time.Second
	h := newHarness(t, 0, cfg)
	h.makeOverlay()
	for seq := wire.Seq(1); seq <= 5; seq++ {
		h.p.HandlePacket(h.dataFrom(1, seq, []byte("m")))
		h.p.HandlePacket(h.request(3, wire.MsgID{Origin: 1, Seq: seq}))
		h.run(time.Millisecond) // distinct touch times
	}
	if n := h.p.ReqSeenCount(); n != 3 {
		t.Fatalf("reqSeen has %d records, want cap 3", n)
	}
	for seq := wire.Seq(1); seq <= 5; seq++ {
		if _, kept := h.p.reqSeen[wire.MsgID{Origin: 1, Seq: seq}]; kept != (seq > 2) {
			t.Fatalf("record for seq %d kept=%v, want only the three most recent", seq, kept)
		}
	}
	h.run(cfg.PurgeTimeout + cfg.PurgeInterval)
	if n := h.p.ReqSeenCount(); n != 0 {
		t.Fatalf("reqSeen has %d records after the payloads were purged, want 0", n)
	}
}

// TestReqSeenClearedOnAccept: the accept that evicts a held entry at MaxStore
// drops the entry's request record with it.
func TestReqSeenClearedOnAccept(t *testing.T) {
	cfg := admitTestConfig()
	cfg.MaxStore = 2
	h := newHarness(t, 0, cfg)
	h.makeOverlay()
	id := wire.MsgID{Origin: 1, Seq: 1}
	h.p.HandlePacket(h.dataFrom(1, 1, []byte("x")))
	h.p.HandlePacket(h.request(3, id))
	if h.p.ReqSeenCount() != 1 {
		t.Fatal("request record not created")
	}
	h.p.HandlePacket(h.dataFrom(1, 2, []byte("y")))
	h.p.HandlePacket(h.dataFrom(1, 3, []byte("z"))) // evicts the oldest held entry, id
	if h.p.Holds(id) {
		t.Fatal("store kept its oldest held entry past MaxStore")
	}
	if n := h.p.ReqSeenCount(); n != 0 {
		t.Fatalf("reqSeen has %d records after its entry was evicted, want 0", n)
	}
}

// TestReqSeenKeysAreHeld drives requests and searches for held, purged,
// evicted and never-seen ids through a small store, with purges between, and
// checks after every step that each request record is a held entry's.
func TestReqSeenKeysAreHeld(t *testing.T) {
	cfg := admitTestConfig()
	cfg.MaxStore = 4
	cfg.PurgeTimeout = 2 * time.Second
	cfg.PurgeInterval = time.Second
	cfg.StoreQuiescence = time.Second
	h := newHarness(t, 0, cfg)
	h.makeOverlay()
	rng := rand.New(rand.NewPCG(1, 2))
	seq, records := wire.Seq(0), 0
	for step := 0; step < 2000; step++ {
		switch r := rng.IntN(10); {
		case r < 3:
			seq++
			h.p.HandlePacket(h.dataFrom(1, seq, []byte("m")))
		case r < 9:
			id := wire.MsgID{Origin: 1, Seq: wire.Seq(rng.IntN(int(seq) + 2))}
			pkt := h.request(wire.NodeID(10+rng.IntN(40)), id)
			if r == 8 {
				pkt.Kind, pkt.TTL = wire.KindFindMissing, 2
			}
			h.p.HandlePacket(pkt)
		default:
			h.run(time.Duration(rng.IntN(1500)) * time.Millisecond)
		}
		records = max(records, h.p.ReqSeenCount())
		for id := range h.p.reqSeen {
			if !h.p.Holds(id) {
				t.Fatalf("step %d: request record for %v, which the node does not hold", step, id)
			}
		}
	}
	if records < 2 || h.p.Stats().Evictions == 0 {
		t.Fatalf("the run held at most %d records and evicted %d entries: nothing was tested", records, h.p.Stats().Evictions)
	}
}

func TestTombstoneQuiescenceGC(t *testing.T) {
	cfg := admitTestConfig()
	cfg.PurgeTimeout = 2 * time.Second
	cfg.PurgeInterval = 1 * time.Second
	cfg.StoreQuiescence = 3 * time.Second
	h := newHarness(t, 0, cfg)
	h.p.HandlePacket(h.dataFrom(1, 1, []byte("x")))

	h.run(4 * time.Second) // past PurgeTimeout: payload dropped, tombstone kept
	if held, tombs := h.p.StoreSize(); held != 0 || tombs != 1 {
		t.Fatalf("after purge: held=%d tombstones=%d, want 0 and 1", held, tombs)
	}
	h.run(5 * time.Second) // past StoreQuiescence: tombstone deleted outright
	if held, tombs := h.p.StoreSize(); held != 0 || tombs != 0 {
		t.Fatalf("after quiescence: held=%d tombstones=%d, want 0 and 0", held, tombs)
	}
}

func TestRateLimitDisabledAdmitsEverything(t *testing.T) {
	h := newHarness(t, 0, admitTestConfig()) // AdmitRate = 0
	for seq := wire.Seq(1); seq <= 500; seq++ {
		h.p.HandlePacket(h.dataFrom(1, seq, []byte(fmt.Sprintf("m%d", seq))))
	}
	if st := h.p.Stats(); st.RateLimited != 0 || st.Accepted != 500 {
		t.Fatalf("accepted=%d rate-limited=%d, want 500 and 0", st.Accepted, st.RateLimited)
	}
}
