package core

import (
	"reflect"
	"testing"

	"bbcast/internal/alloctest"
	"bbcast/internal/overlay"
	"bbcast/internal/wire"
)

// steadyHarness is a node in the regime the periodic path repeats every tick:
// 15 admitted neighbours with verified state records and 32 held messages,
// each with a gossip proof. Sent frames are dropped, so a tick's count is the
// protocol's own.
func steadyHarness(t *testing.T) (*harness, *wire.OverlayState) {
	t.Helper()
	h := newHarness(t, 0, DefaultConfig())
	h.p.deps.Send = func(*wire.Packet) {}
	var state *wire.OverlayState
	for round := 0; round < 2; round++ { // two packets admit a neighbour
		for n := wire.NodeID(1); n <= 15; n++ {
			state = &wire.OverlayState{Active: n%3 == 0, Dominator: n%6 == 0, Neighbors: []wire.NodeID{0, n%15 + 1}}
			h.p.HandlePacket(h.stateFrom(n, state))
		}
	}
	for seq := wire.Seq(1); seq <= 32; seq++ {
		from := wire.NodeID(1 + seq%15)
		pkt := h.dataFrom(from, seq, []byte("steady-state payload"))
		h.p.HandlePacket(pkt)
		h.p.HandlePacket(h.gossipFrom(from, pkt.ID()))
	}
	if held, _ := h.p.StoreSize(); held != 32 || len(h.p.overlayNeighbors()) == 0 {
		t.Fatalf("steady state not reached: %d held, OL=%v", held, h.p.overlayNeighbors())
	}
	return h, state
}

// The ceilings below are what a tick must allocate because it leaves the
// protocol: the frame and its gossip entries. The store and the neighbour
// table keep their own sorted id lists, signed-byte strings and the
// maintainer's view come from scratch, and an unchanged state record goes out
// again with the signature it was published under.

func TestGossipTickAllocationCeiling(t *testing.T) {
	h, _ := steadyHarness(t)
	// Retained tombstones are most of a loaded store; the tick must not even
	// visit them.
	for seq := wire.Seq(1); seq <= 2000; seq++ {
		h.p.store.restore(wire.MsgID{Origin: 20, Seq: seq}, h.p.deps.Clock.Now())
	}
	h.p.gossipTick() // size the scratch
	alloctest.AtMost(t, 2, h.p.gossipTick)
}

// TestGossipTickChangedStateAllocationCeiling: a tick that publishes a
// changed record allocates no more than the entry copy either. The record
// and its id lists come from the node's chunks and its tag from the keyring's
// array, a fraction of an allocation each that AllocsPerRun's whole-number
// average drops. The role flips every tick, so every record is new.
func TestGossipTickChangedStateAllocationCeiling(t *testing.T) {
	h, _ := steadyHarness(t)
	published, ticks := 0, 0
	tick := func() {
		if h.p.role == overlay.Dominator {
			h.p.role = overlay.Passive
		} else {
			h.p.role = overlay.Dominator
		}
		before := h.p.published
		h.p.gossipTick()
		ticks++
		if h.p.published != before {
			published++
		}
	}
	tick()
	alloctest.AtMost(t, 1, tick)
	if published != ticks {
		t.Fatalf("%d of %d ticks published a new record", published, ticks)
	}
}

// TestPublishStateCopiesAsClone: published records equal
// wire.OverlayState.Clone's copy, nil and empty lists included, each list
// capped at its length, and no later record, in the same id array or a new
// one, writes into an earlier one. The largest record needs more than a whole
// array.
func TestPublishStateCopiesAsClone(t *testing.T) {
	h := newHarness(t, 0, DefaultConfig())
	big := make([]wire.NodeID, 300)
	for i := range big {
		big[i] = wire.NodeID(i)
	}
	records := []*wire.OverlayState{
		{},
		{Active: true, Neighbors: []wire.NodeID{}, Suspects: []wire.NodeID{4}},
		{Dominator: true, Neighbors: []wire.NodeID{1, 2, 3}, ActiveNeighbors: []wire.NodeID{2, 3}, DominatorNeighbors: []wire.NodeID{3}},
		{Neighbors: big, ActiveNeighbors: big[:7]},
	}
	var published []*wire.OverlayState
	for round := 0; round < 40; round++ {
		published = append(published, h.p.publishState(records[round%len(records)]))
	}
	for i, got := range published {
		if want := records[i%len(records)].Clone(); !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
		for _, ids := range [][]wire.NodeID{got.Neighbors, got.ActiveNeighbors, got.DominatorNeighbors, got.Suspects} {
			if cap(ids) != len(ids) {
				t.Fatalf("record %d: a list of %d ids has capacity %d", i, len(ids), cap(ids))
			}
		}
	}
}

func TestMaintenanceTickAllocationCeiling(t *testing.T) {
	h, _ := steadyHarness(t)
	h.p.maintenanceTick()
	alloctest.AtMost(t, 0, h.p.maintenanceTick)
}

func TestHandleStateDoesNotAllocate(t *testing.T) {
	h, state := steadyHarness(t)
	tag := h.scheme.Sign(15, wire.StateSigBytes(15, state))
	other := &wire.OverlayState{Active: true, Neighbors: []wire.NodeID{0, 7}}
	otherTag := h.scheme.Sign(15, wire.StateSigBytes(15, other))
	// Node 15 is already a neighbour, as it is whenever HandlePacket reaches
	// handleState. Alternating two records makes every call a full
	// verification; the byte-equal reuse of a repeated record is a strict
	// subset of that work.
	first := admitted{&wire.Packet{Sender: 15, State: other, StateSig: otherTag}}
	second := admitted{&wire.Packet{Sender: 15, State: state, StateSig: tag}}
	turn := false
	alternate := func() {
		if turn = !turn; turn {
			h.p.handleState(first)
		} else {
			h.p.handleState(second)
		}
	}
	alternate()
	skips := h.p.stats.DedupSkips
	alloctest.AtMost(t, 0, alternate)
	if h.p.stats.BadSignatures != 0 || h.p.stats.DedupSkips != skips {
		t.Fatalf("not every record was verified: %d bad, %d reused", h.p.stats.BadSignatures, h.p.stats.DedupSkips-skips)
	}
}

// TestRecoveryAllocationCeiling: answering a request allocates at most what
// leaves the protocol (the data frame, a quarter of a frame chunk), and
// deferring a reply nothing: its timer is a value in the protocol's heap. No
// request record allocates. FDs are off so a repeated requester is never
// indicted and silenced.
func TestRecoveryAllocationCeiling(t *testing.T) {
	cfg := admitTestConfig()
	cfg.EnableFDs = false
	h := replyRig(t, replyCases[0], cfg)
	sent := 0
	h.p.deps.Send = func(*wire.Packet) { sent++ }
	// Warm the engine's free list: each deferred reply below takes an event
	// record and leaves it queued.
	for i := 0; i < 200; i++ {
		h.eng.After(0, func() {})
	}
	h.run(0)
	addressed := h.ask(replyCases[0], replyID, 5)
	unaddressed := h.ask(replyCases[0], replyID, 2)
	overheard := forwardedBy(h.dataFrom(1, 1, []byte("m")), 2)

	t.Run("addressed", func(t *testing.T) {
		before := sent
		alloctest.AtMost(t, 1, func() { h.p.HandlePacket(addressed) })
		if sent-before != 101 {
			t.Fatalf("%d answers for 101 addressed requests", sent-before)
		}
	})
	t.Run("unaddressed", func(t *testing.T) {
		before := h.p.stats.RepliesSuppressed
		alloctest.AtMost(t, 0, func() {
			h.p.HandlePacket(unaddressed)
			h.p.HandlePacket(overheard)
		})
		if n := h.p.stats.RepliesSuppressed - before; n != 101 {
			t.Fatalf("%d replies deferred and dropped, want 101", n)
		}
	})
	t.Run("repeat requester", func(t *testing.T) {
		h.p.bumpRequestCount(replyID, 3)
		alloctest.AtMost(t, 0, func() { h.p.bumpRequestCount(replyID, 3) })
	})
}

// TestAcceptAndForwardAllocationCeiling: an overlay node accepting and
// forwarding new data allocates its store entries and its frames a chunk
// array at a time (eight entries, four frames to an array), not one object
// per message: 100 frames cost 37.5 arrays, with room for the store's map and
// window to grow.
func TestAcceptAndForwardAllocationCeiling(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AdmitRate = 0
	h := newHarness(t, 0, cfg)
	h.makeOverlay()
	forwarded := 0
	h.p.deps.Send = func(pkt *wire.Packet) {
		if pkt.Kind == wire.KindData {
			forwarded++
		}
	}
	h.p.deps.Deliver = nil
	const perRun, runs = 100, 101 // AtMost calls fn once to warm up, then 100 times
	pkts := make([]*wire.Packet, perRun*runs)
	for i := range pkts {
		pkts[i] = h.dataFrom(1, wire.Seq(i+1), []byte("payload"))
	}
	next := 0
	alloctest.AtMost(t, 40, func() {
		for _, pkt := range pkts[next : next+perRun] {
			h.p.HandlePacket(pkt)
		}
		next += perRun
	})
	if forwarded != len(pkts) {
		t.Fatalf("forwarded %d of %d new frames", forwarded, len(pkts))
	}
}
