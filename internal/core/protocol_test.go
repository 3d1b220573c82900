package core

import (
	"bytes"
	"testing"
	"time"

	"bbcast/internal/env"
	"bbcast/internal/fd"
	"bbcast/internal/overlay"
	"bbcast/internal/sig"
	"bbcast/internal/sim"
	"bbcast/internal/wire"
)

// harness hosts one protocol instance with captured output and full control
// over time. Packets "from" other nodes are crafted with the shared scheme
// (the test is the omniscient PKI).
type harness struct {
	t      *testing.T
	eng    *sim.Engine
	scheme sig.Scheme
	p      *Protocol

	sent      []*wire.Packet
	delivered []wire.MsgID
}

func newHarness(t *testing.T, selfID wire.NodeID, cfg Config) *harness {
	t.Helper()
	return newHarnessWith(t, selfID, cfg, nil)
}

// newHarnessWith is newHarness with the protocol's dependencies adjusted by
// mod (an observer, a durable store, a wrapped scheme) before it is built.
// Packets are still crafted with h.scheme, the plain one.
func newHarnessWith(t *testing.T, selfID wire.NodeID, cfg Config, mod func(*Deps)) *harness {
	t.Helper()
	h := &harness{t: t, eng: sim.New(1), scheme: sig.NewHMAC(16, 7)}
	deps := Deps{
		ID:     selfID,
		Clock:  env.SimClock{Eng: h.eng},
		Send:   func(pkt *wire.Packet) { h.sent = append(h.sent, pkt) },
		Scheme: h.scheme,
		Rand:   h.eng.SubRand(uint64(selfID)),
		Deliver: func(origin wire.NodeID, id wire.MsgID, payload []byte) {
			h.delivered = append(h.delivered, id)
		},
	}
	if mod != nil {
		mod(&deps)
	}
	h.p = New(cfg, deps)
	t.Cleanup(h.p.Stop)
	return h
}

// run advances virtual time by d.
func (h *harness) run(d time.Duration) { h.eng.Run(h.eng.Now() + d) }

// dataFrom builds a correctly signed data packet originated and sent by
// `from`.
func (h *harness) dataFrom(from wire.NodeID, seq wire.Seq, payload []byte) *wire.Packet {
	id := wire.MsgID{Origin: from, Seq: seq}
	return &wire.Packet{
		Kind:    wire.KindData,
		Sender:  from,
		TTL:     1,
		Target:  wire.NoNode,
		Origin:  from,
		Seq:     seq,
		Payload: payload,
		Sig:     h.scheme.Sign(uint32(from), wire.DataSigBytes(id, payload)),
	}
}

// forwardedBy re-stamps a data packet as forwarded by hop.
func forwardedBy(pkt *wire.Packet, hop wire.NodeID) *wire.Packet {
	cp := pkt.Clone()
	cp.Sender = hop
	return cp
}

// gossipFrom builds a signed gossip packet from `sender` advertising ids
// originated by their respective origins.
func (h *harness) gossipFrom(sender wire.NodeID, ids ...wire.MsgID) *wire.Packet {
	pkt := &wire.Packet{
		Kind:   wire.KindGossip,
		Sender: sender,
		TTL:    1,
		Target: wire.NoNode,
		Origin: wire.NoNode,
	}
	for _, id := range ids {
		pkt.Gossip = append(pkt.Gossip, wire.GossipEntry{
			ID:  id,
			Sig: h.scheme.Sign(uint32(id.Origin), wire.HeaderSigBytes(id)),
		})
	}
	return pkt
}

// stateFrom builds a signed overlay-state packet.
func (h *harness) stateFrom(sender wire.NodeID, st *wire.OverlayState) *wire.Packet {
	return &wire.Packet{
		Kind:     wire.KindOverlayState,
		Sender:   sender,
		TTL:      1,
		Target:   wire.NoNode,
		Origin:   wire.NoNode,
		State:    st,
		StateSig: h.scheme.Sign(uint32(sender), wire.StateSigBytes(sender, st)),
	}
}

// sentOfKind filters captured transmissions.
func (h *harness) sentOfKind(k wire.Kind) []*wire.Packet {
	var out []*wire.Packet
	for _, p := range h.sent {
		if p.Kind == k {
			out = append(out, p)
		}
	}
	return out
}

// makeOverlay drives the node into the overlay: with an empty neighbourhood
// the leader/MIS rule elects it after the damped maintenance steps.
func (h *harness) makeOverlay() {
	h.run(4 * time.Second)
	if !h.p.InOverlay() {
		h.t.Fatal("node did not elect itself with no competing neighbours")
	}
	h.sent = nil
}

// introduceNeighbors installs admitted neighbours via two state packets each
// (passing the admission debounce).
func (h *harness) introduceNeighbors(states map[wire.NodeID]*wire.OverlayState) {
	for id, st := range states {
		h.p.HandlePacket(h.stateFrom(id, st))
		h.p.HandlePacket(h.stateFrom(id, st))
	}
}

func TestBroadcastEmitsSignedDataAndDeliversOwn(t *testing.T) {
	h := newHarness(t, 0, DefaultConfig())
	id := h.p.Broadcast([]byte("hello"))
	if id.Origin != 0 || id.Seq != 1 {
		t.Fatalf("unexpected id %v", id)
	}
	data := h.sentOfKind(wire.KindData)
	if len(data) != 1 {
		t.Fatalf("sent %d data packets, want 1", len(data))
	}
	pkt := data[0]
	if !h.scheme.Verify(0, wire.DataSigBytes(id, pkt.Payload), pkt.Sig) {
		t.Fatal("data signature invalid")
	}
	if len(h.delivered) != 1 || h.delivered[0] != id {
		t.Fatalf("own delivery = %v", h.delivered)
	}
	if !h.p.Holds(id) {
		t.Fatal("originator does not hold own message")
	}
}

func TestBroadcastSeqIncrements(t *testing.T) {
	h := newHarness(t, 0, DefaultConfig())
	a := h.p.Broadcast([]byte("a"))
	b := h.p.Broadcast([]byte("b"))
	if b.Seq != a.Seq+1 {
		t.Fatalf("seq did not increment: %v %v", a, b)
	}
}

func TestHandleDataAcceptsOnceAndFiltersDuplicates(t *testing.T) {
	h := newHarness(t, 0, DefaultConfig())
	pkt := h.dataFrom(1, 1, []byte("m"))
	h.p.HandlePacket(pkt)
	h.p.HandlePacket(pkt.Clone())
	if len(h.delivered) != 1 {
		t.Fatalf("delivered %d times, want once (validity: accept-once)", len(h.delivered))
	}
	if h.p.Stats().Duplicates != 1 {
		t.Fatalf("duplicates = %d", h.p.Stats().Duplicates)
	}
}

func TestHandleDataRejectsBadSignature(t *testing.T) {
	h := newHarness(t, 0, DefaultConfig())
	pkt := h.dataFrom(1, 1, []byte("m"))
	pkt.Payload[0] ^= 0xFF // tamper
	pkt.Sender = 2         // the tampering forwarder
	h.p.HandlePacket(pkt)
	if len(h.delivered) != 0 {
		t.Fatal("tampered message delivered (validity violated)")
	}
	if h.p.Trust().Level(2) != fd.Untrusted {
		t.Fatal("tampering sender not suspected")
	}
	if h.p.Trust().Level(1) == fd.Untrusted {
		t.Fatal("innocent originator suspected")
	}
}

func TestHandleDataImpersonationRejected(t *testing.T) {
	// Node 2 claims a message originates from node 1 but signs with its own
	// key — verification against 1's key must fail.
	h := newHarness(t, 0, DefaultConfig())
	id := wire.MsgID{Origin: 1, Seq: 1}
	payload := []byte("forged")
	pkt := &wire.Packet{
		Kind: wire.KindData, Sender: 2, TTL: 1, Target: wire.NoNode,
		Origin: 1, Seq: 1, Payload: payload,
		Sig: h.scheme.Sign(2, wire.DataSigBytes(id, payload)),
	}
	h.p.HandlePacket(pkt)
	if len(h.delivered) != 0 {
		t.Fatal("impersonated message delivered")
	}
}

func TestOverlayNodeForwardsData(t *testing.T) {
	h := newHarness(t, 5, DefaultConfig())
	h.makeOverlay()
	h.p.HandlePacket(h.dataFrom(1, 1, []byte("m")))
	fwd := h.sentOfKind(wire.KindData)
	if len(fwd) != 1 {
		t.Fatalf("overlay node forwarded %d times, want 1", len(fwd))
	}
	if fwd[0].Sender != 5 {
		t.Fatalf("forward sender = %d", fwd[0].Sender)
	}
}

func TestNonOverlayNodeDoesNotForwardTTL1(t *testing.T) {
	cfg := DefaultConfig()
	h := newHarness(t, 0, cfg)
	// Suppress self-election: a higher-ID dominator neighbour.
	h.introduceNeighbors(map[wire.NodeID]*wire.OverlayState{
		9: {Active: true, Dominator: true, Neighbors: []wire.NodeID{0}},
	})
	h.run(4 * time.Second)
	if h.p.InOverlay() {
		t.Fatal("node joined overlay despite higher dominator neighbour")
	}
	h.sent = nil
	h.p.HandlePacket(h.dataFrom(1, 1, []byte("m")))
	if len(h.sentOfKind(wire.KindData)) != 0 {
		t.Fatal("non-overlay node forwarded a TTL-1 data packet")
	}
}

func TestNonOverlayNodeRelaysTTL2(t *testing.T) {
	h := newHarness(t, 0, DefaultConfig())
	h.introduceNeighbors(map[wire.NodeID]*wire.OverlayState{
		9: {Active: true, Dominator: true, Neighbors: []wire.NodeID{0}},
	})
	h.run(4 * time.Second)
	h.sent = nil
	pkt := h.dataFrom(1, 1, []byte("m"))
	pkt.TTL = 2
	h.p.HandlePacket(pkt)
	fwd := h.sentOfKind(wire.KindData)
	if len(fwd) != 1 || fwd[0].TTL != 1 {
		t.Fatalf("TTL-2 relay: got %d forwards (ttl=%v)", len(fwd), fwd)
	}
}

func TestGossipForMissingSchedulesRequest(t *testing.T) {
	cfg := DefaultConfig()
	h := newHarness(t, 0, cfg)
	id := wire.MsgID{Origin: 1, Seq: 7}
	h.p.HandlePacket(h.gossipFrom(2, id)) // 2 gossips about 1's message
	if len(h.sentOfKind(wire.KindRequest)) != 0 {
		t.Fatal("request sent before RequestDelay")
	}
	h.run(cfg.RequestDelay + 50*time.Millisecond)
	reqs := h.sentOfKind(wire.KindRequest)
	if len(reqs) != 1 {
		t.Fatalf("requests = %d, want 1", len(reqs))
	}
	if reqs[0].Target != 2 || reqs[0].ID() != id {
		t.Fatalf("request misaddressed: %+v", reqs[0])
	}
}

func TestGossipFromOriginatorDelayedRequest(t *testing.T) {
	// §3.2 line 29 deviation: the originator is asked only as a last
	// resort, after a doubled delay (see DESIGN.md).
	cfg := DefaultConfig()
	h := newHarness(t, 0, cfg)
	id := wire.MsgID{Origin: 1, Seq: 7}
	h.p.HandlePacket(h.gossipFrom(1, id)) // originator gossips its own message
	h.run(cfg.RequestDelay + cfg.RequestDelay/2)
	if len(h.sentOfKind(wire.KindRequest)) != 0 {
		t.Fatal("originator asked before the doubled delay elapsed")
	}
	h.run(cfg.RequestDelay)
	reqs := h.sentOfKind(wire.KindRequest)
	if len(reqs) != 1 || reqs[0].Target != 1 {
		t.Fatalf("last-resort request to originator missing: %v", reqs)
	}
}

func TestDataArrivalCancelsPendingRequest(t *testing.T) {
	cfg := DefaultConfig()
	h := newHarness(t, 0, cfg)
	id := wire.MsgID{Origin: 1, Seq: 7}
	h.p.HandlePacket(h.gossipFrom(2, id))
	h.run(cfg.RequestDelay / 2)
	h.p.HandlePacket(h.dataFrom(1, 7, []byte("m")))
	h.run(cfg.RequestDelay * 3)
	if len(h.sentOfKind(wire.KindRequest)) != 0 {
		t.Fatal("request sent though the data already arrived")
	}
}

func TestOneRequestPerGossiper(t *testing.T) {
	// With the retransmission chain disabled, each distinct gossiper of a
	// missing message is asked exactly once; re-hearing the same gossiper
	// does not re-request (periodic gossip rounds are the retry mechanism
	// and each new gossiper is a new recovery avenue). The retry-enabled
	// behaviour is covered in adaptive_test.go.
	cfg := DefaultConfig()
	cfg.RetryMaxAttempts = 0
	h := newHarness(t, 0, cfg)
	id := wire.MsgID{Origin: 1, Seq: 7}
	h.p.HandlePacket(h.gossipFrom(2, id))
	h.p.HandlePacket(h.gossipFrom(2, id)) // duplicate gossiper
	h.run(time.Minute)
	if got := len(h.sentOfKind(wire.KindRequest)); got != 1 {
		t.Fatalf("requests = %d, want 1", got)
	}
	h.p.HandlePacket(h.gossipFrom(3, id)) // new gossiper
	h.run(time.Minute)
	if got := len(h.sentOfKind(wire.KindRequest)); got != 2 {
		t.Fatalf("requests = %d, want 2 after a second gossiper", got)
	}
	reqs := h.sentOfKind(wire.KindRequest)
	if reqs[0].Target != 2 || reqs[1].Target != 3 {
		t.Fatalf("request targets = %d,%d", reqs[0].Target, reqs[1].Target)
	}
}

func TestMuteSuspectsUnresponsiveGossiper(t *testing.T) {
	// §3.2 line 28: the gossiper must be able to supply the message; if it
	// never does, MUTE suspects it.
	cfg := DefaultConfig()
	cfg.Mute.Threshold = 1
	h := newHarness(t, 0, cfg)
	id := wire.MsgID{Origin: 1, Seq: 7}
	h.p.HandlePacket(h.gossipFrom(2, id))
	h.run(cfg.Mute.Timeout + time.Second)
	if h.p.Trust().Level(2) != fd.Untrusted {
		t.Fatal("gossiper that never supplied the message not suspected")
	}
}

func TestRequestServedFromStore(t *testing.T) {
	h := newHarness(t, 5, DefaultConfig())
	h.makeOverlay()
	h.p.HandlePacket(h.dataFrom(1, 1, []byte("m")))
	h.sent = nil
	req := &wire.Packet{
		Kind: wire.KindRequest, Sender: 3, TTL: 1, Target: 2,
		Origin: 1, Seq: 1,
		Sig: h.scheme.Sign(1, wire.HeaderSigBytes(wire.MsgID{Origin: 1, Seq: 1})),
	}
	h.p.HandlePacket(req)
	resp := h.sentOfKind(wire.KindData)
	if len(resp) != 1 {
		t.Fatalf("responses = %d, want 1", len(resp))
	}
	if resp[0].Target != 3 {
		t.Fatalf("response addressed to %d, want requester 3", resp[0].Target)
	}
	if !bytes.Equal(resp[0].Payload, []byte("m")) {
		t.Fatal("response payload mismatch")
	}
}

func TestRequestIgnoredByNonOverlayNonTarget(t *testing.T) {
	// §3.2 Figure 4 line 43: only overlay nodes and the addressed gossiper
	// react to requests.
	h := newHarness(t, 0, DefaultConfig())
	h.introduceNeighbors(map[wire.NodeID]*wire.OverlayState{
		9: {Active: true, Dominator: true, Neighbors: []wire.NodeID{0}},
	})
	h.run(4 * time.Second)
	h.p.HandlePacket(h.dataFrom(1, 1, []byte("m")))
	h.sent = nil
	req := &wire.Packet{
		Kind: wire.KindRequest, Sender: 3, TTL: 1, Target: 7, // addressed elsewhere
		Origin: 1, Seq: 1,
		Sig: h.scheme.Sign(1, wire.HeaderSigBytes(wire.MsgID{Origin: 1, Seq: 1})),
	}
	h.p.HandlePacket(req)
	if len(h.sentOfKind(wire.KindData)) != 0 {
		t.Fatal("bystander served a request not addressed to it")
	}
}

func TestRequestUnknownEscalatesFindMissing(t *testing.T) {
	// Figure 4 line 52: an overlay node lacking the message searches two
	// hops out to bypass a Byzantine overlay neighbour.
	h := newHarness(t, 5, DefaultConfig())
	h.makeOverlay()
	id := wire.MsgID{Origin: 1, Seq: 1}
	req := &wire.Packet{
		Kind: wire.KindRequest, Sender: 3, TTL: 1, Target: 2,
		Origin: 1, Seq: 1,
		Sig: h.scheme.Sign(1, wire.HeaderSigBytes(id)),
	}
	h.p.HandlePacket(req)
	finds := h.sentOfKind(wire.KindFindMissing)
	if len(finds) != 1 {
		t.Fatalf("find-missing = %d, want 1", len(finds))
	}
	if finds[0].TTL != 2 || finds[0].Target != 2 {
		t.Fatalf("find-missing ttl=%d target=%d, want ttl=2 target=2", finds[0].TTL, finds[0].Target)
	}
}

func TestOriginatorRequestingOwnMessageIndicted(t *testing.T) {
	// Figure 4 line 55.
	cfg := DefaultConfig()
	cfg.Verbose.Threshold = 1
	h := newHarness(t, 5, cfg)
	h.makeOverlay()
	id := wire.MsgID{Origin: 3, Seq: 1}
	req := &wire.Packet{
		Kind: wire.KindRequest, Sender: 3, TTL: 1, Target: 2,
		Origin: 3, Seq: 1, // node 3 requests its own message
		Sig: h.scheme.Sign(3, wire.HeaderSigBytes(id)),
	}
	h.p.HandlePacket(req)
	if h.p.Trust().Level(3) != fd.Untrusted {
		t.Fatal("originator requesting its own message not indicted")
	}
}

func TestRepeatedRequestsIndictVerbose(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RequestTolerance = 2
	cfg.Verbose.Threshold = 1
	h := newHarness(t, 5, cfg)
	h.makeOverlay()
	h.p.HandlePacket(h.dataFrom(1, 1, []byte("m")))
	id := wire.MsgID{Origin: 1, Seq: 1}
	req := &wire.Packet{
		Kind: wire.KindRequest, Sender: 3, TTL: 1, Target: 2,
		Origin: 1, Seq: 1,
		Sig: h.scheme.Sign(1, wire.HeaderSigBytes(id)),
	}
	for i := 0; i < 2; i++ {
		h.p.HandlePacket(req.Clone())
	}
	if h.p.Trust().Level(3) == fd.Untrusted {
		t.Fatal("requester indicted within tolerance")
	}
	h.p.HandlePacket(req.Clone())
	if h.p.Trust().Level(3) != fd.Untrusted {
		t.Fatal("spamming requester not indicted past tolerance")
	}
}

func TestFindMissingRelayedWhenUnknown(t *testing.T) {
	// Figure 4 lines 63–66.
	h := newHarness(t, 0, DefaultConfig())
	id := wire.MsgID{Origin: 1, Seq: 1}
	find := &wire.Packet{
		Kind: wire.KindFindMissing, Sender: 4, TTL: 2, Target: 2,
		Origin: 1, Seq: 1,
		Sig: h.scheme.Sign(1, wire.HeaderSigBytes(id)),
	}
	h.p.HandlePacket(find)
	relayed := h.sentOfKind(wire.KindFindMissing)
	if len(relayed) != 1 || relayed[0].TTL != 1 {
		t.Fatalf("relay = %v", relayed)
	}
	// TTL 1 searches are not relayed further.
	h.sent = nil
	find2 := find.Clone()
	find2.TTL = 1
	h.p.HandlePacket(find2)
	if len(h.sentOfKind(wire.KindFindMissing)) != 0 {
		t.Fatal("TTL-1 find-missing relayed")
	}
}

func TestFindMissingServedByHolder(t *testing.T) {
	// Figure 4 lines 67–78: an overlay holder responds; a neighbour sender
	// gets a TTL-1 response, an unknown (non-neighbour) sender TTL-2.
	h := newHarness(t, 5, DefaultConfig())
	h.makeOverlay()
	h.p.HandlePacket(h.dataFrom(1, 1, []byte("m"))) // sender 1 becomes a neighbour
	h.sent = nil
	id := wire.MsgID{Origin: 1, Seq: 1}
	find := &wire.Packet{
		Kind: wire.KindFindMissing, Sender: 9, TTL: 2, Target: 2,
		Origin: 1, Seq: 1,
		Sig: h.scheme.Sign(1, wire.HeaderSigBytes(id)),
	}
	h.p.HandlePacket(find) // 9 is not a known neighbour
	resp := h.sentOfKind(wire.KindData)
	if len(resp) != 1 || resp[0].TTL != 2 {
		t.Fatalf("response to unknown sender = %+v, want TTL 2", resp)
	}
}

func TestPurgeTombstonePreventsRedelivery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PurgeTimeout = 2 * time.Second
	cfg.PurgeInterval = 500 * time.Millisecond
	h := newHarness(t, 0, cfg)
	pkt := h.dataFrom(1, 1, []byte("m"))
	h.p.HandlePacket(pkt)
	h.run(5 * time.Second)
	if h.p.Holds(pkt.ID()) {
		t.Fatal("message not purged after PurgeTimeout")
	}
	h.p.HandlePacket(pkt.Clone())
	if len(h.delivered) != 1 {
		t.Fatalf("purged message re-delivered: %v", h.delivered)
	}
}

func TestGossipTickAdvertisesHeldMessages(t *testing.T) {
	cfg := DefaultConfig()
	h := newHarness(t, 0, cfg)
	h.p.Broadcast([]byte("a"))
	h.p.HandlePacket(h.gossipFrom(2, wire.MsgID{Origin: 3, Seq: 9})) // learn a foreign header
	h.p.HandlePacket(h.dataFrom(3, 9, []byte("b")))
	h.sent = nil
	h.run(cfg.GossipInterval + 100*time.Millisecond)
	gossips := h.sentOfKind(wire.KindGossip)
	if len(gossips) != 1 {
		t.Fatalf("gossip packets = %d, want 1 (aggregated)", len(gossips))
	}
	if len(gossips[0].Gossip) != 2 {
		t.Fatalf("gossip entries = %d, want 2", len(gossips[0].Gossip))
	}
	if cfg.PiggybackState && gossips[0].State == nil {
		t.Fatal("overlay state not piggybacked on gossip")
	}
}

func TestGossipAggregationAblation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GossipAggregation = false
	h := newHarness(t, 0, cfg)
	h.p.Broadcast([]byte("a"))
	h.p.HandlePacket(h.dataFrom(3, 9, []byte("b")))
	h.p.HandlePacket(h.gossipFrom(2, wire.MsgID{Origin: 3, Seq: 9}))
	h.sent = nil
	h.run(cfg.GossipInterval + 100*time.Millisecond)
	gossips := h.sentOfKind(wire.KindGossip)
	if len(gossips) != 2 {
		t.Fatalf("without aggregation want one packet per entry, got %d", len(gossips))
	}
}

func TestStateUpdatesNeighborsAndSecondHandReports(t *testing.T) {
	h := newHarness(t, 0, DefaultConfig())
	st := &wire.OverlayState{
		Active: true, Dominator: true,
		Neighbors: []wire.NodeID{0, 3},
		Suspects:  []wire.NodeID{3},
	}
	h.introduceNeighbors(map[wire.NodeID]*wire.OverlayState{2: st})
	if h.p.NeighborCount() != 1 {
		t.Fatalf("neighbors = %d", h.p.NeighborCount())
	}
	// Second-hand: node 3 demoted to Unknown, not Untrusted.
	if got := h.p.Trust().Level(3); got != fd.Unknown {
		t.Fatalf("Level(3) = %v, want Unknown", got)
	}
	if got := h.p.Trust().Level(2); got != fd.Trusted {
		t.Fatalf("Level(2) = %v, want Trusted", got)
	}
}

func TestBadStateSignatureSuspected(t *testing.T) {
	h := newHarness(t, 0, DefaultConfig())
	st := &wire.OverlayState{Active: true}
	pkt := h.stateFrom(2, st)
	pkt.State.Active = false // tamper after signing
	h.p.HandlePacket(pkt)
	if h.p.Trust().Level(2) != fd.Untrusted {
		t.Fatal("forged state not suspected")
	}
}

func TestRecoveryDisabledAblation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableRecovery = false
	h := newHarness(t, 0, cfg)
	h.p.HandlePacket(h.gossipFrom(2, wire.MsgID{Origin: 1, Seq: 7}))
	h.run(time.Minute)
	if len(h.sentOfKind(wire.KindRequest)) != 0 {
		t.Fatal("recovery disabled but request sent")
	}
}

func TestFindMissingDisabledAblation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableFindMissing = false
	h := newHarness(t, 5, cfg)
	h.makeOverlay()
	id := wire.MsgID{Origin: 1, Seq: 1}
	req := &wire.Packet{
		Kind: wire.KindRequest, Sender: 3, TTL: 1, Target: 2,
		Origin: 1, Seq: 1,
		Sig: h.scheme.Sign(1, wire.HeaderSigBytes(id)),
	}
	h.p.HandlePacket(req)
	if len(h.sentOfKind(wire.KindFindMissing)) != 0 {
		t.Fatal("find-missing disabled but escalation sent")
	}
}

func TestFDsDisabledNeverSuspect(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableFDs = false
	h := newHarness(t, 0, cfg)
	pkt := h.dataFrom(1, 1, []byte("m"))
	pkt.Payload[0] ^= 0xFF
	pkt.Sender = 2
	h.p.HandlePacket(pkt)
	if h.p.Trust().Level(2) != fd.Trusted {
		t.Fatal("FDs disabled but node suspected")
	}
}

func TestOwnPacketsIgnored(t *testing.T) {
	h := newHarness(t, 0, DefaultConfig())
	pkt := h.dataFrom(0, 1, []byte("m"))
	h.p.HandlePacket(pkt) // sender == self
	if len(h.delivered) != 0 {
		t.Fatal("node processed its own transmission")
	}
}

func TestNeighborExpiry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NeighborTTL = 2 * time.Second
	h := newHarness(t, 0, cfg)
	h.introduceNeighbors(map[wire.NodeID]*wire.OverlayState{2: {Active: true}})
	if h.p.NeighborCount() != 1 {
		t.Fatal("neighbour not registered")
	}
	h.run(5 * time.Second)
	if h.p.NeighborCount() != 0 {
		t.Fatal("silent neighbour not expired")
	}
}

func TestStopCancelsTimers(t *testing.T) {
	h := newHarness(t, 0, DefaultConfig())
	h.p.HandlePacket(h.gossipFrom(2, wire.MsgID{Origin: 1, Seq: 7}))
	h.p.Stop()
	h.run(time.Minute)
	if len(h.sentOfKind(wire.KindRequest)) != 0 {
		t.Fatal("stopped protocol still sent a request")
	}
	if len(h.sentOfKind(wire.KindGossip)) != 0 {
		t.Fatal("stopped protocol still gossiped")
	}
}

func TestMuteExpectationOnNonOverlayDataReceipt(t *testing.T) {
	// §3.2 lines 8–11: data received from a non-overlay non-originator arms
	// MUTE against the overlay neighbours; if they never forward it, they
	// are suspected.
	cfg := DefaultConfig()
	cfg.Mute.Threshold = 1
	h := newHarness(t, 0, cfg)
	h.introduceNeighbors(map[wire.NodeID]*wire.OverlayState{
		9: {Active: true, Dominator: true, Neighbors: []wire.NodeID{0}},
	})
	h.run(time.Second)
	// Data arrives from node 3 (non-overlay, non-originator).
	h.p.HandlePacket(forwardedBy(h.dataFrom(1, 1, []byte("m")), 3))
	h.run(cfg.Mute.Timeout + time.Second)
	if h.p.Trust().Level(9) != fd.Untrusted {
		t.Fatal("overlay neighbour that failed to forward not suspected")
	}
}

func TestMuteExpectationFulfilledByOverlayForward(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mute.Threshold = 1
	h := newHarness(t, 0, cfg)
	h.introduceNeighbors(map[wire.NodeID]*wire.OverlayState{
		9: {Active: true, Dominator: true, Neighbors: []wire.NodeID{0}},
	})
	h.run(time.Second)
	pkt := h.dataFrom(1, 1, []byte("m"))
	h.p.HandlePacket(forwardedBy(pkt, 3))
	// The overlay neighbour forwards shortly after (a duplicate for us).
	h.p.HandlePacket(forwardedBy(pkt, 9))
	h.run(cfg.Mute.Timeout + time.Second)
	if h.p.Trust().Level(9) != fd.Trusted {
		t.Fatal("overlay neighbour suspected despite forwarding (accuracy violated)")
	}
}

func TestRoleDemotionOnHigherDominator(t *testing.T) {
	h := newHarness(t, 5, DefaultConfig())
	h.makeOverlay()
	if h.p.Role() != overlay.Dominator {
		t.Fatalf("role = %v", h.p.Role())
	}
	// A higher-ID dominator neighbour appears: MIS safety demotes on the
	// next maintenance step.
	h.introduceNeighbors(map[wire.NodeID]*wire.OverlayState{
		9: {Active: true, Dominator: true, Neighbors: []wire.NodeID{5}},
	})
	h.run(2 * time.Second)
	if h.p.Role() == overlay.Dominator {
		t.Fatal("dominator did not yield to higher-ID dominator")
	}
}
