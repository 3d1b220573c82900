package core

// Adversarial robustness tests: the protocol must survive arbitrary garbage
// and adversarially mutated packets without panicking, and must never
// deliver a payload that the claimed originator did not sign (the validity
// property of §2.3, checked under fuzz).

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"bbcast/internal/sig"
	"bbcast/internal/wire"
)

// mutate flips one random byte of a marshalled packet and re-parses it;
// parse failures yield nil.
func mutate(rng *rand.Rand, pkt *wire.Packet) *wire.Packet {
	buf := pkt.Marshal()
	buf[rng.Intn(len(buf))] ^= byte(1 + rng.Intn(255))
	out, err := wire.Unmarshal(buf)
	if err != nil {
		return nil
	}
	return out
}

func TestFuzzMutatedPacketsNeverPanicOrForge(t *testing.T) {
	h := newHarness(t, 0, DefaultConfig())
	legit := [][]byte{[]byte("alpha"), []byte("bravo"), []byte("charlie")}
	rng := rand.New(rand.NewSource(1))

	// Seed packets of every kind.
	seeds := []*wire.Packet{
		h.dataFrom(1, 1, legit[0]),
		h.dataFrom(2, 9, legit[1]),
		h.gossipFrom(3, wire.MsgID{Origin: 1, Seq: 1}, wire.MsgID{Origin: 4, Seq: 2}),
		h.stateFrom(2, &wire.OverlayState{Active: true, Neighbors: []wire.NodeID{0, 1}}),
		{
			Kind: wire.KindRequest, Sender: 3, TTL: 1, Target: 2, Origin: 1, Seq: 1,
			Sig: h.scheme.Sign(1, wire.HeaderSigBytes(wire.MsgID{Origin: 1, Seq: 1})),
		},
		{
			Kind: wire.KindFindMissing, Sender: 4, TTL: 2, Target: 2, Origin: 1, Seq: 1,
			Sig: h.scheme.Sign(1, wire.HeaderSigBytes(wire.MsgID{Origin: 1, Seq: 1})),
		},
	}

	for round := 0; round < 3000; round++ {
		src := seeds[rng.Intn(len(seeds))]
		var pkt *wire.Packet
		if rng.Intn(4) == 0 {
			pkt = src.Clone() // occasionally deliver the real thing
		} else {
			pkt = mutate(rng, src)
		}
		if pkt == nil {
			continue
		}
		h.p.HandlePacket(pkt) // must not panic
		if rng.Intn(50) == 0 {
			h.run(200 * time.Millisecond) // let timers interleave
		}
	}

	// Validity: every delivered id corresponds to a legitimately signed
	// payload (delivery implies the signature verified, and only the three
	// seed payloads were ever signed).
	for _, id := range h.delivered {
		if id.Origin != 1 && id.Origin != 2 {
			t.Fatalf("delivered message from unexpected origin %v", id)
		}
	}
}

func TestFuzzDeliveredPayloadMatchesSigned(t *testing.T) {
	// Stronger validity check: record payloads at delivery and confirm they
	// equal what the originator signed, bit for bit, under heavy mutation
	// pressure.
	var deliveredPayloads [][]byte
	h := newHarness(t, 0, DefaultConfig())
	h.p.Stop() // rebuild with a payload-capturing deliver hook
	cfg := DefaultConfig()
	h.p = New(cfg, Deps{
		ID:     0,
		Clock:  h.p.deps.Clock,
		Send:   func(pkt *wire.Packet) {},
		Scheme: h.scheme,
		Rand:   rand.New(rand.NewSource(2)),
		Deliver: func(origin wire.NodeID, id wire.MsgID, payload []byte) {
			cp := make([]byte, len(payload))
			copy(cp, payload)
			deliveredPayloads = append(deliveredPayloads, cp)
		},
	})
	t.Cleanup(h.p.Stop)

	signed := []byte("the one true payload")
	base := h.dataFrom(1, 1, signed)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		pkt := mutate(rng, base)
		if pkt == nil {
			continue
		}
		h.p.HandlePacket(pkt)
	}
	h.p.HandlePacket(base.Clone())
	for _, p := range deliveredPayloads {
		if !bytes.Equal(p, signed) {
			t.Fatalf("delivered corrupted payload %q", p)
		}
	}
	if len(deliveredPayloads) != 1 {
		t.Fatalf("delivered %d times, want exactly once", len(deliveredPayloads))
	}
}

// Property: for any interleaving of a fixed packet set, the node accepts
// each message at most once and never accepts a forged one.
func TestQuickAcceptOncePerInterleaving(t *testing.T) {
	f := func(order []uint8) bool {
		h := newHarness(t, 0, DefaultConfig())
		defer h.p.Stop()
		pkts := []*wire.Packet{
			h.dataFrom(1, 1, []byte("a")),
			h.dataFrom(1, 1, []byte("a")), // duplicate
			h.dataFrom(2, 1, []byte("b")),
			h.gossipFrom(3, wire.MsgID{Origin: 1, Seq: 1}),
			h.dataFrom(1, 2, []byte("c")),
		}
		forged := h.dataFrom(1, 3, []byte("evil"))
		forged.Payload[0] ^= 1
		pkts = append(pkts, forged)
		for _, idx := range order {
			h.p.HandlePacket(pkts[int(idx)%len(pkts)].Clone())
		}
		counts := map[wire.MsgID]int{}
		for _, id := range h.delivered {
			counts[id]++
		}
		for id, c := range counts {
			if c > 1 {
				return false
			}
			if id == (wire.MsgID{Origin: 1, Seq: 3}) {
				return false // the forged message must never be accepted
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary gossip batches never cause more requests than
// distinct (message, gossiper) pairs, plus the bounded retransmission
// budget of RetryMaxAttempts per distinct missing message.
func TestQuickRequestsBoundedByGossipPairs(t *testing.T) {
	f := func(entries []uint16) bool {
		if len(entries) > 40 {
			entries = entries[:40]
		}
		cfg := DefaultConfig()
		h := newHarness(t, 0, cfg)
		defer h.p.Stop()
		pairs := map[[2]uint32]bool{}
		ids := map[wire.MsgID]bool{}
		for _, e := range entries {
			origin := wire.NodeID(e%4 + 1)
			seq := wire.Seq(e / 4 % 8)
			gossiper := wire.NodeID(e % 7)
			if gossiper == 0 {
				continue // self
			}
			h.p.HandlePacket(h.gossipFrom(gossiper, wire.MsgID{Origin: origin, Seq: seq}))
			pairs[[2]uint32{uint32(origin)<<16 | uint32(seq), uint32(gossiper)}] = true
			ids[wire.MsgID{Origin: origin, Seq: seq}] = true
		}
		h.run(cfg.RequestDelay*3 + retryBackoffMax*time.Duration(cfg.RetryMaxAttempts+1) + time.Second)
		st := h.p.Stats()
		if int(st.RetriesSent) > len(ids)*cfg.RetryMaxAttempts {
			return false // retry budget exceeded
		}
		return int(st.RequestsSent-st.RetriesSent) <= len(pairs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// fuzzPrimedState is the overlay-state record neighbour `from` has already had
// verified when FuzzHandlePacket's input arrives.
func fuzzPrimedState(from wire.NodeID) *wire.OverlayState {
	return &wire.OverlayState{Active: true, Neighbors: []wire.NodeID{0, from ^ 1}}
}

// FuzzHandlePacket is the native fuzz target (run continuously with
// `go test -fuzz=FuzzHandlePacket ./internal/core`): arbitrary bytes are
// decoded by the wire codec and fed straight into a fresh protocol instance,
// which must neither panic nor deliver anything it could not verify. The
// seed corpus covers every packet kind with valid signatures, so the
// mutator starts from deep inside the handler rather than at codec
// rejections. The instance has already verified one overlay-state record from
// each of neighbours 2 and 3 (fuzzPrimedState), so seeds that nearly match one
// start on the compare-then-verify branches of handleState.
func FuzzHandlePacket(f *testing.F) {
	seedScheme := sig.NewHMAC(16, 7)
	signData := func(from wire.NodeID, seq wire.Seq, payload []byte) *wire.Packet {
		id := wire.MsgID{Origin: from, Seq: seq}
		return &wire.Packet{
			Kind: wire.KindData, Sender: from, TTL: 1, Target: wire.NoNode,
			Origin: from, Seq: seq, Payload: payload,
			Sig: seedScheme.Sign(uint32(from), wire.DataSigBytes(id, payload)),
		}
	}
	f.Add([]byte{})
	f.Add(signData(1, 1, []byte("alpha")).Marshal())
	f.Add(signData(2, 9, []byte("bravo")).Marshal())
	id := wire.MsgID{Origin: 1, Seq: 1}
	f.Add((&wire.Packet{
		Kind: wire.KindGossip, Sender: 3, TTL: 1, Target: wire.NoNode, Origin: wire.NoNode,
		Gossip: []wire.GossipEntry{{ID: id, Sig: seedScheme.Sign(1, wire.HeaderSigBytes(id))}},
	}).Marshal())
	f.Add((&wire.Packet{
		Kind: wire.KindRequest, Sender: 3, TTL: 1, Target: 2, Origin: 1, Seq: 1,
		Sig: seedScheme.Sign(1, wire.HeaderSigBytes(id)),
	}).Marshal())
	f.Add((&wire.Packet{
		Kind: wire.KindFindMissing, Sender: 4, TTL: 2, Target: 2, Origin: 1, Seq: 1,
		Sig: seedScheme.Sign(1, wire.HeaderSigBytes(id)),
	}).Marshal())
	f.Add((&wire.Packet{
		Kind: wire.KindOverlayState, Sender: 2, TTL: 1, Target: wire.NoNode, Origin: wire.NoNode,
		State: &wire.OverlayState{Active: true, Neighbors: []wire.NodeID{0, 1}},
	}).Marshal())

	// Adversary shapes from the spam/replay attackers (internal/byzantine):
	// flooder spam at a high sequence base, a replayed packet re-stamped
	// with the replayer's own sender id, forged junk signatures from origins
	// no PKI ever issued, and an oversized gossip batch that must be trimmed
	// at twice GossipMaxEntries rather than bought at face value.
	f.Add(signData(2, 2<<20, []byte("flood")).Marshal())
	replayed := signData(1, 1, []byte("alpha"))
	replayed.Sender = 7
	f.Add(replayed.Marshal())
	forged := wire.MsgID{Origin: 200, Seq: 3}
	f.Add((&wire.Packet{
		Kind: wire.KindGossip, Sender: 6, TTL: 1, Target: wire.NoNode, Origin: wire.NoNode,
		Gossip: []wire.GossipEntry{{ID: forged, Sig: []byte("junkjunkjunkjunk")}},
	}).Marshal())
	f.Add((&wire.Packet{
		Kind: wire.KindData, Sender: 6, TTL: 1, Target: wire.NoNode,
		Origin: forged.Origin, Seq: forged.Seq, Payload: []byte("junk"),
		Sig: []byte("junkjunkjunkjunk"),
	}).Marshal())
	big := &wire.Packet{
		Kind: wire.KindGossip, Sender: 8, TTL: 1, Target: wire.NoNode, Origin: wire.NoNode,
	}
	for i := 0; i < 96; i++ {
		bid := wire.MsgID{Origin: wire.NodeID(i % 4), Seq: wire.Seq(i)}
		big.Gossip = append(big.Gossip, wire.GossipEntry{
			ID: bid, Sig: seedScheme.Sign(uint32(bid.Origin), wire.HeaderSigBytes(bid)),
		})
	}
	f.Add(big.Marshal())

	// Near misses of a record the node has already verified: the signature
	// it holds over an altered record, the record it holds under an altered
	// signature, and neighbour 2's record and signature re-stamped as 3's.
	// Each must reach Verify and fail; none may be taken on resemblance.
	primed := func(sender wire.NodeID) *wire.Packet {
		st := fuzzPrimedState(sender)
		return &wire.Packet{
			Kind: wire.KindOverlayState, Sender: sender, TTL: 1, Target: wire.NoNode, Origin: wire.NoNode,
			State: st, StateSig: seedScheme.Sign(uint32(sender), wire.StateSigBytes(sender, st)),
		}
	}
	f.Add(primed(2).Marshal()) // the exact replay: reuse, no verification
	altered := primed(2)
	altered.State.Active = false
	f.Add(altered.Marshal())
	resigned := primed(2)
	resigned.StateSig[0] ^= 1
	f.Add(resigned.Marshal())
	borrowed := primed(2)
	borrowed.Sender = 3
	f.Add(borrowed.Marshal())

	f.Fuzz(func(t *testing.T, data []byte) {
		pkt, err := wire.Unmarshal(data)
		if err != nil {
			return
		}
		h := newHarness(t, 0, DefaultConfig())
		for _, nb := range []wire.NodeID{2, 3} {
			h.p.HandlePacket(h.stateFrom(nb, fuzzPrimedState(nb)))
		}
		h.p.HandlePacket(pkt)
		h.p.HandlePacket(pkt.Clone()) // duplicates must be harmless too
		h.run(2 * time.Second)        // let any armed timers fire
		for _, got := range h.delivered {
			// Only the harness scheme's key 1/2 seeds carry valid payload
			// signatures; anything else the codec can decode must verify or
			// be rejected, so a delivery from another origin is a forgery.
			if got.Origin != 1 && got.Origin != 2 {
				t.Fatalf("delivered unverifiable message %v", got)
			}
		}
	})
}
