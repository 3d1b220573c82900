package core

import (
	"testing"
	"time"

	"bbcast/internal/wire"
)

// stabilityConfig turns stability purging on. With the default 1 s gossip
// interval a message is kept for at least 2 s, and in these small
// neighbourhoods three distinct gossipers make it stable.
func stabilityConfig() Config {
	cfg := DefaultConfig()
	cfg.StabilityPurge = true
	cfg.PurgeTimeout = time.Hour // only stability can purge in these tests
	cfg.PurgeInterval = 500 * time.Millisecond
	return cfg
}

func TestStabilityPurgeAfterConfirmations(t *testing.T) {
	h := newHarness(t, 0, stabilityConfig())
	pkt := h.dataFrom(1, 1, []byte("m"))
	h.p.HandlePacket(pkt)
	id := pkt.ID()
	// Three distinct neighbours advertise the message: it is stable.
	h.p.HandlePacket(h.gossipFrom(2, id))
	h.p.HandlePacket(h.gossipFrom(3, id))
	h.p.HandlePacket(h.gossipFrom(4, id))
	h.run(3 * time.Second)
	if h.p.Holds(id) {
		t.Fatal("stable message not purged early")
	}
	held, tombs := h.p.StoreSize()
	if held != 0 || tombs != 1 {
		t.Fatalf("store = %d held, %d tombstones", held, tombs)
	}
	// Duplicate filtering survives the purge.
	h.p.HandlePacket(pkt.Clone())
	if len(h.delivered) != 1 {
		t.Fatal("purged message re-delivered")
	}
}

func TestStabilityPurgeNeedsThreshold(t *testing.T) {
	h := newHarness(t, 0, stabilityConfig())
	pkt := h.dataFrom(1, 1, []byte("m"))
	h.p.HandlePacket(pkt)
	h.p.HandlePacket(h.gossipFrom(2, pkt.ID()))
	h.p.HandlePacket(h.gossipFrom(3, pkt.ID())) // only two confirmations
	h.run(5 * time.Second)
	if !h.p.Holds(pkt.ID()) {
		t.Fatal("message purged below the stability threshold")
	}
}

func TestStabilityPurgeRespectsMinAge(t *testing.T) {
	h := newHarness(t, 0, stabilityConfig())
	pkt := h.dataFrom(1, 1, []byte("m"))
	h.p.HandlePacket(pkt)
	h.p.HandlePacket(h.gossipFrom(2, pkt.ID()))
	h.p.HandlePacket(h.gossipFrom(3, pkt.ID()))
	h.p.HandlePacket(h.gossipFrom(4, pkt.ID()))
	h.run(1 * time.Second) // less than two gossip rounds
	if !h.p.Holds(pkt.ID()) {
		t.Fatal("message purged before the minimum age")
	}
}

func TestStabilityRepeatGossiperCountsOnce(t *testing.T) {
	h := newHarness(t, 0, stabilityConfig())
	pkt := h.dataFrom(1, 1, []byte("m"))
	h.p.HandlePacket(pkt)
	id := pkt.ID()
	for i := 0; i < 5; i++ {
		h.p.HandlePacket(h.gossipFrom(2, id)) // same gossiper over and over
	}
	h.run(5 * time.Second)
	if !h.p.Holds(id) {
		t.Fatal("repeated gossiper counted as multiple holders")
	}
}

func TestStabilityDisabledByDefault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PurgeTimeout = time.Hour
	h := newHarness(t, 0, cfg)
	pkt := h.dataFrom(1, 1, []byte("m"))
	h.p.HandlePacket(pkt)
	id := pkt.ID()
	for n := wire.NodeID(2); n < 10; n++ {
		h.p.HandlePacket(h.gossipFrom(n, id))
	}
	h.run(20 * time.Second)
	if !h.p.Holds(id) {
		t.Fatal("stability purging fired though disabled")
	}
}

func TestStabilityDefaultThresholdScalesWithNeighbors(t *testing.T) {
	h := newHarness(t, 0, stabilityConfig())
	pkt := h.dataFrom(1, 1, []byte("m"))
	h.p.HandlePacket(pkt)
	id := pkt.ID()
	for n := wire.NodeID(2); n <= 10; n++ { // ten neighbours: half of them must confirm
		h.p.HandlePacket(h.dataFrom(n, 1, []byte("other")))
	}
	h.p.HandlePacket(h.gossipFrom(2, id))
	h.p.HandlePacket(h.gossipFrom(3, id))
	h.p.HandlePacket(h.gossipFrom(4, id))
	h.run(3 * time.Second)
	if !h.p.Holds(id) {
		t.Fatal("purged on three confirmations from ten neighbours")
	}
	h.p.HandlePacket(h.gossipFrom(5, id))
	h.p.HandlePacket(h.gossipFrom(6, id))
	h.run(1 * time.Second)
	if h.p.Holds(id) {
		t.Fatal("not purged once half the neighbours confirmed")
	}
}
