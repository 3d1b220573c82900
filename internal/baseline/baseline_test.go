package baseline

import (
	"bytes"
	"testing"

	"bbcast/internal/core"
	"bbcast/internal/env"
	"bbcast/internal/sig"
	"bbcast/internal/sim"
	"bbcast/internal/wire"
)

type capture struct {
	sent      []*wire.Packet
	delivered [][]byte
}

func deps(t *testing.T, id wire.NodeID, scheme sig.Scheme, cap *capture) core.Deps {
	t.Helper()
	eng := sim.New(1)
	return core.Deps{
		ID:     id,
		Clock:  env.SimClock{Eng: eng},
		Send:   func(p *wire.Packet) { cap.sent = append(cap.sent, p) },
		Scheme: scheme,
		Rand:   eng.SubRand(uint64(id)),
		Deliver: func(_ wire.NodeID, _ wire.MsgID, payload []byte) {
			cap.delivered = append(cap.delivered, payload)
		},
	}
}

func TestFloodingBroadcastAndDeliver(t *testing.T) {
	scheme := sig.NewHMAC(4, 1)
	var capA, capB capture
	a := NewFlooding(deps(t, 0, scheme, &capA))
	b := NewFlooding(deps(t, 1, scheme, &capB))
	a.Broadcast([]byte("hello"))
	if len(capA.sent) != 1 {
		t.Fatalf("originator sent %d packets", len(capA.sent))
	}
	if len(capA.delivered) != 1 {
		t.Fatal("originator did not self-deliver")
	}
	b.HandlePacket(capA.sent[0])
	if len(capB.delivered) != 1 || !bytes.Equal(capB.delivered[0], []byte("hello")) {
		t.Fatalf("receiver delivered %v", capB.delivered)
	}
	if len(capB.sent) != 1 {
		t.Fatal("receiver did not re-flood")
	}
	// Duplicate: neither delivered nor re-flooded again.
	b.HandlePacket(capA.sent[0].Clone())
	if len(capB.delivered) != 1 || len(capB.sent) != 1 {
		t.Fatal("duplicate not suppressed")
	}
	if b.Stats().Duplicates != 1 {
		t.Fatalf("duplicates = %d", b.Stats().Duplicates)
	}
}

func TestFloodingRejectsBadSignature(t *testing.T) {
	scheme := sig.NewHMAC(4, 1)
	var capA, capB capture
	a := NewFlooding(deps(t, 0, scheme, &capA))
	b := NewFlooding(deps(t, 1, scheme, &capB))
	a.Broadcast([]byte("hello"))
	bad := capA.sent[0].Clone()
	bad.Payload[0] ^= 0xFF
	b.HandlePacket(bad)
	if len(capB.delivered) != 0 || len(capB.sent) != 0 {
		t.Fatal("tampered flood accepted")
	}
	if b.Stats().BadSignatures != 1 {
		t.Fatalf("bad signatures = %d", b.Stats().BadSignatures)
	}
}

func TestFloodingIgnoresOwnAndNonData(t *testing.T) {
	scheme := sig.NewHMAC(4, 1)
	var cap capture
	f := NewFlooding(deps(t, 0, scheme, &cap))
	f.HandlePacket(&wire.Packet{Kind: wire.KindGossip, Sender: 1})
	f.HandlePacket(&wire.Packet{Kind: wire.KindData, Sender: 0})
	if len(cap.delivered) != 0 {
		t.Fatal("processed own/non-data packets")
	}
}

func TestFPlusOneBroadcastsOneCopyPerOverlay(t *testing.T) {
	scheme := sig.NewHMAC(4, 1)
	var cap capture
	p := NewFPlusOne(deps(t, 0, scheme, &cap), 2, []int{0})
	p.Broadcast([]byte("m"))
	if len(cap.sent) != 3 {
		t.Fatalf("sent %d copies, want f+1=3", len(cap.sent))
	}
	seen := map[byte]bool{}
	for _, pkt := range cap.sent {
		seen[pkt.Payload[0]] = true
		id := pkt.ID()
		if !scheme.Verify(0, wire.DataSigBytes(id, pkt.Payload), pkt.Sig) {
			t.Fatal("copy signature invalid")
		}
	}
	if !seen[0] || !seen[1] || !seen[2] {
		t.Fatalf("channels = %v", seen)
	}
}

func TestFPlusOneDeliversOnceRelaysMemberChannels(t *testing.T) {
	scheme := sig.NewHMAC(4, 1)
	var capA, capB capture
	a := NewFPlusOne(deps(t, 0, scheme, &capA), 1, nil)
	b := NewFPlusOne(deps(t, 1, scheme, &capB), 1, []int{1}) // member of overlay 1 only
	a.Broadcast([]byte("m"))
	for _, pkt := range capA.sent {
		b.HandlePacket(pkt)
	}
	if len(capB.delivered) != 1 || !bytes.Equal(capB.delivered[0], []byte("m")) {
		t.Fatalf("delivered %v", capB.delivered)
	}
	if len(capB.sent) != 1 || capB.sent[0].Payload[0] != 1 {
		t.Fatalf("relayed %d copies (want only channel 1): %v", len(capB.sent), capB.sent)
	}
	// Re-handling the same copies: no new relays.
	for _, pkt := range capA.sent {
		b.HandlePacket(pkt.Clone())
	}
	if len(capB.sent) != 1 {
		t.Fatal("duplicate copy re-relayed")
	}
}

func TestFPlusOneRejectsBadChannelAndSig(t *testing.T) {
	scheme := sig.NewHMAC(4, 1)
	var capA, capB capture
	a := NewFPlusOne(deps(t, 0, scheme, &capA), 1, nil)
	b := NewFPlusOne(deps(t, 1, scheme, &capB), 1, []int{0, 1})
	a.Broadcast([]byte("m"))
	bad := capA.sent[0].Clone()
	bad.Payload[0] = 9 // out-of-range channel, breaks signature too
	b.HandlePacket(bad)
	if len(capB.delivered) != 0 {
		t.Fatal("bad copy accepted")
	}
}

func TestDisjointOverlaysProperties(t *testing.T) {
	// Build a 4x4 grid graph.
	const n = 16
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	conn := func(a, b int) { adj[a][b] = true; adj[b][a] = true }
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			i := r*4 + c
			if c < 3 {
				conn(i, i+1)
			}
			if r < 3 {
				conn(i, i+4)
			}
			// Diagonals give enough redundancy for disjoint CDSs.
			if c < 3 && r < 3 {
				conn(i, i+5)
			}
			if c > 0 && r < 3 {
				conn(i, i+3)
			}
		}
	}
	overlays := DisjointOverlays(adj, 1)
	if len(overlays) != 2 {
		t.Fatalf("got %d overlays, want 2", len(overlays))
	}
	used := map[int]int{}
	for c, ov := range overlays {
		if len(ov) == 0 {
			t.Fatalf("overlay %d empty", c)
		}
		for _, v := range ov {
			used[v]++
		}
	}
	for v, cnt := range used {
		if cnt > 1 {
			t.Fatalf("node %d in %d overlays (must be disjoint)", v, cnt)
		}
	}
	// First overlay (unconstrained greedy) must dominate the graph.
	dominated := make([]bool, n)
	for _, v := range overlays[0] {
		dominated[v] = true
		for u := 0; u < n; u++ {
			if adj[v][u] {
				dominated[u] = true
			}
		}
	}
	for v := 0; v < n; v++ {
		if !dominated[v] {
			t.Fatalf("overlay 0 does not dominate node %d", v)
		}
	}
}

func TestDisjointOverlaysFallback(t *testing.T) {
	// A path graph cannot host two disjoint CDSs; the second overlay falls
	// back to the remaining nodes.
	const n = 5
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for i := 0; i+1 < n; i++ {
		adj[i][i+1] = true
		adj[i+1][i] = true
	}
	overlays := DisjointOverlays(adj, 1)
	if len(overlays) != 2 {
		t.Fatalf("got %d overlays", len(overlays))
	}
	total := len(overlays[0]) + len(overlays[1])
	if total > n {
		t.Fatalf("overlays overlap: %v", overlays)
	}
}

func TestDisjointOverlaysEmptyGraph(t *testing.T) {
	overlays := DisjointOverlays(nil, 2)
	if len(overlays) != 3 {
		t.Fatalf("got %d overlays for empty graph", len(overlays))
	}
}
