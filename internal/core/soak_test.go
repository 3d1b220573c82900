package core

import (
	"runtime"
	"testing"
	"time"

	"bbcast/internal/wire"
)

// Spam soak (ISSUE 4 satellite c): one correct node absorbs two simulated
// hours of combined flooding (fresh signed data), replay (byte-identical
// retransmissions) and forgery (junk signatures from nonexistent origins and
// spoofed senders). Every protocol table must stay under its configured cap
// throughout, and the process heap must not grow past a generous margin —
// the whole point of the admission/GC layer is that this traffic is O(1)
// state, not O(packets).

func TestSpamSoakStateStaysBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}

	cfg := DefaultConfig() // default caps: the production configuration
	h := newHarness(t, 0, cfg)

	// Warm up allocators and protocol steady state before the baseline heap
	// reading so one-time allocations don't count against the margin.
	for seq := wire.Seq(1); seq <= 50; seq++ {
		h.p.HandlePacket(h.dataFrom(1, seq, make([]byte, 64)))
	}
	h.run(5 * time.Second)
	h.sent, h.delivered = nil, nil
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	// Replay fodder: a handful of real packets harvested up front, re-sent
	// every tick for the whole run (long after their originals are purged
	// and even tombstone-collected).
	replays := make([]*wire.Packet, 0, 8)
	for seq := wire.Seq(100); seq < 108; seq++ {
		pkt := h.dataFrom(2, seq, make([]byte, 64))
		h.p.HandlePacket(pkt)
		replays = append(replays, pkt)
	}

	const (
		hours    = 2
		ticks    = hours * 3600 // one simulated second per tick
		checkGap = 60           // assert bounds once per simulated minute
	)
	payload := make([]byte, 64)
	junkSig := make([]byte, 20)
	seq := wire.Seq(1000)
	for tick := 0; tick < ticks; tick++ {
		// Hot flooder: one sender pushing past AdmitRate — the token bucket
		// must shed the excess every second, indefinitely.
		for j := 0; j < 70; j++ {
			seq++
			h.p.HandlePacket(h.dataFrom(1, seq, payload))
		}
		// Background flood: fresh validly signed messages spread over the
		// other registered peers, together past MaxStore's steady-state
		// headroom, so the store cap and purge/quiescence GC stay engaged.
		for j := 0; j < 28; j++ {
			from := wire.NodeID(2 + (j % 14))
			seq++
			h.p.HandlePacket(h.dataFrom(from, seq, payload))
		}
		// Replay: harvested traffic, byte-identical, from an under-limit
		// sender (so the replays reach the dedup path, not the bucket).
		for _, pkt := range replays {
			cp := pkt.Clone()
			cp.Sender = 2
			h.p.HandlePacket(cp)
		}
		// Forge: junk signatures from origins no PKI ever issued, carried by
		// a rotating window of spoofed senders wide enough to roll the
		// neighbour table past MaxNeighbors many times over.
		for j := 0; j < 10; j++ {
			spoofed := wire.NodeID(16 + (tick*10+j)%1024)
			bogus := wire.MsgID{Origin: wire.NodeID(1 << 20), Seq: wire.Seq(tick*10 + j)}
			h.p.HandlePacket(&wire.Packet{
				Kind: wire.KindGossip, Sender: spoofed, TTL: 1,
				Target: wire.NoNode, Origin: wire.NoNode,
				Gossip: []wire.GossipEntry{{ID: bogus, Sig: junkSig}},
			})
			h.p.HandlePacket(&wire.Packet{
				Kind: wire.KindData, Sender: spoofed, TTL: 1, Target: wire.NoNode,
				Origin: bogus.Origin, Seq: bogus.Seq, Payload: payload, Sig: junkSig,
			})
		}
		h.run(time.Second)
		// The harness accumulates outputs for inspection; a soak would turn
		// that into the test's own leak, so drain it.
		h.sent, h.delivered = nil, nil

		if tick%checkGap != 0 {
			continue
		}
		if n := len(h.p.store.byID); n > cfg.MaxStore {
			t.Fatalf("t=%ds: store %d > MaxStore %d", tick, n, cfg.MaxStore)
		}
		if n := h.p.NeighborCount(); n > cfg.MaxNeighbors {
			t.Fatalf("t=%ds: neighbours %d > MaxNeighbors %d", tick, n, cfg.MaxNeighbors)
		}
		if n := len(h.p.missing); n > cfg.MaxMissing {
			t.Fatalf("t=%ds: missing %d > MaxMissing %d", tick, n, cfg.MaxMissing)
		}
		if n := h.p.ReqSeenCount(); n > cfg.MaxReqSeen {
			t.Fatalf("t=%ds: reqSeen %d > MaxReqSeen %d", tick, n, cfg.MaxReqSeen)
		}
	}

	st := h.p.Stats()
	if st.RateLimited == 0 {
		t.Error("the hot flooder was never rate-limited")
	}
	if st.DedupSkips == 0 {
		t.Error("replays never hit the dedup path")
	}
	if st.Evictions == 0 {
		t.Error("caps never evicted anything despite sustained spam")
	}
	if st.BadSignatures == 0 {
		t.Error("forged packets never counted as bad signatures")
	}
	t.Logf("soak stats after %dh simulated: accepted=%d duplicates=%d bad-sigs=%d "+
		"rate-limited=%d dedup-skips=%d evictions=%d store=%d neighbours=%d",
		hours, st.Accepted, st.Duplicates, st.BadSignatures,
		st.RateLimited, st.DedupSkips, st.Evictions,
		len(h.p.store.byID), h.p.NeighborCount())

	// Heap growth: the margin is deliberately generous (GC timing, map
	// bucket growth to the caps, engine internals) — catching an O(packets)
	// leak, which at ~500k packets would be tens of MB minimum.
	runtime.GC()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	if end.HeapAlloc > base.HeapAlloc && end.HeapAlloc-base.HeapAlloc > 32<<20 {
		t.Fatalf("heap grew %d MB over the soak (32 MB margin): state is not bounded",
			(end.HeapAlloc-base.HeapAlloc)>>20)
	}
}
