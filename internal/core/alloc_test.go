package core

import (
	"testing"

	"bbcast/internal/alloctest"
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
		h.p.store.restore(wire.MsgID{Origin: 20, Seq: seq}, 0, h.p.deps.Clock.Now())
	}
	h.p.gossipTick() // size the scratch
	alloctest.AtMost(t, 2, h.p.gossipTick)
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
	// Alternating two records makes every call a full verification; the
	// byte-equal reuse of a repeated record is a strict subset of that work.
	turn := false
	alternate := func() {
		if turn = !turn; turn {
			h.p.handleState(15, other, otherTag)
		} else {
			h.p.handleState(15, state, tag)
		}
	}
	alternate()
	skips := h.p.stats.DedupSkips
	alloctest.AtMost(t, 0, alternate)
	if h.p.stats.BadSignatures != 0 || h.p.stats.DedupSkips != skips {
		t.Fatalf("not every record was verified: %d bad, %d reused", h.p.stats.BadSignatures, h.p.stats.DedupSkips-skips)
	}
}
