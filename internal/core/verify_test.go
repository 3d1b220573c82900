package core

// Verify-once tests: a signed record this node already verified — an
// overlay-state record from the same neighbour, a header signature held in
// the store or the missing table — costs a comparison when it arrives again,
// never a second Scheme.Verify; anything that merely resembles it is verified
// in full, fails, and is not remembered. The …VerifyCeiling tests are the CI
// guard that keeps each reuse site in place.

import (
	"bytes"
	"testing"
	"time"

	"bbcast/internal/fd"
	"bbcast/internal/sig"
	"bbcast/internal/wire"
)

// countingScheme counts the Sign and Verify calls the protocol really makes.
type countingScheme struct {
	sig.Scheme
	signs, verifies int
}

func (c *countingScheme) Sign(id uint32, msg []byte) []byte {
	c.signs++
	return c.Scheme.Sign(id, msg)
}

func (c *countingScheme) Verify(id uint32, msg, tag []byte) bool {
	c.verifies++
	return c.Scheme.Verify(id, msg, tag)
}

// countScheme wraps d's scheme in a countingScheme and returns it.
func countScheme(d *Deps) *countingScheme {
	c := &countingScheme{Scheme: d.Scheme}
	d.Scheme = c
	return c
}

// verifyRig is a harness whose protocol signs and verifies through a
// countingScheme and reports to a recObserver. Test packets are still crafted
// with h.scheme, so only the protocol's own calls are counted.
type verifyRig struct {
	*harness
	scheme *countingScheme
	rec    *recObserver
}

func newVerifyRig(t *testing.T, selfID wire.NodeID, cfg Config) *verifyRig {
	t.Helper()
	r := &verifyRig{rec: newRecObserver()}
	r.harness = newHarnessWith(t, selfID, cfg, func(d *Deps) {
		r.scheme = countScheme(d)
		d.Obs = r.rec
	})
	return r
}

// sigCost is what handling some packets cost in signature terms.
type sigCost struct {
	verifies int    // Scheme.Verify calls
	skips    uint64 // Stats.DedupSkips
	bad      uint64 // Stats.BadSignatures
	raised   int    // suspicion-raised events
}

func (r *verifyRig) cost(fn func()) sigCost {
	v, st, raised := r.scheme.verifies, r.p.Stats(), r.rec.suspRaised
	fn()
	after := r.p.Stats()
	return sigCost{
		verifies: r.scheme.verifies - v,
		skips:    after.DedupSkips - st.DedupSkips,
		bad:      after.BadSignatures - st.BadSignatures,
		raised:   r.rec.suspRaised - raised,
	}
}

func (r *verifyRig) expect(what string, want sigCost, fn func()) {
	r.t.Helper()
	if got := r.cost(fn); got != want {
		r.t.Fatalf("%s cost %+v, want %+v", what, got, want)
	}
}

var (
	oneVerify = sigCost{verifies: 1}
	oneSkip   = sigCost{skips: 1}
	oneReject = sigCost{verifies: 1, bad: 1, raised: 1}
)

// decoded is pkt as a live node would see it: marshalled and parsed back, so
// nothing is pointer-equal to the original.
func decoded(t *testing.T, pkt *wire.Packet) *wire.Packet {
	t.Helper()
	out, err := wire.Unmarshal(pkt.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// headerFrame builds a REQUEST or FIND_MISSING for id carrying tag.
func headerFrame(kind wire.Kind, sender wire.NodeID, id wire.MsgID, tag []byte) *wire.Packet {
	return &wire.Packet{
		Kind: kind, Sender: sender, TTL: 1, Target: 0,
		Origin: id.Origin, Seq: id.Seq, Sig: tag,
	}
}

func TestStateReplayVerifyCeiling(t *testing.T) {
	r := newVerifyRig(t, 0, admitTestConfig())
	pkt := r.stateFrom(2, &wire.OverlayState{
		Active: true, Neighbors: []wire.NodeID{0, 3}, Suspects: []wire.NodeID{3},
	})
	r.expect("first copy", oneVerify, func() { r.p.HandlePacket(pkt) })
	// The simulator hands every receiver the sender's own record, tick after
	// tick; a live node decodes an equal one from each datagram.
	r.expect("shared frame again", oneSkip, func() { r.p.HandlePacket(pkt) })
	live := decoded(t, pkt)
	r.expect("decoded copy", oneSkip, func() { r.p.HandlePacket(live) })
	// A skipped copy is applied exactly like a verified one.
	if nb := r.p.neighbors[2]; nb.state != live.State || nb.hits != 3 {
		t.Fatalf("replayed record not applied: state=%p want %p, hits=%d", nb.state, live.State, nb.hits)
	}
	if r.rec.sigs != r.scheme.verifies {
		t.Fatalf("%d OnSigVerify events for %d Verify calls", r.rec.sigs, r.scheme.verifies)
	}
}

// TestHeaderReplayVerifyCeiling: each distinct header proof costs a node at
// most one verification, wherever it first has to be checked, and a replay a
// comparison. A held message's proof from gossip is checked by nothing until
// it is needed, so a request or search carrying it pays the one verification.
func TestHeaderReplayVerifyCeiling(t *testing.T) {
	id := wire.MsgID{Origin: 1, Seq: 1}
	for _, kind := range []wire.Kind{wire.KindRequest, wire.KindFindMissing} {
		t.Run(kind.String()+"/held", func(t *testing.T) {
			r := newVerifyRig(t, 0, admitTestConfig())
			r.p.HandlePacket(r.dataFrom(1, 1, []byte("m")))
			r.expect("gossip proof for the held copy", sigCost{}, func() { r.p.HandlePacket(r.gossipFrom(3, id)) })
			r.sent = nil
			tag := r.scheme.Scheme.Sign(1, wire.HeaderSigBytes(id))
			r.expect("first header", oneVerify, func() { r.p.HandlePacket(headerFrame(kind, 4, id, tag)) })
			if got := r.sentOfKind(wire.KindData); len(got) != 1 || got[0].Target != 4 {
				t.Fatalf("request not served: %v", got)
			}
			r.expect("replayed header", oneSkip, func() { r.p.HandlePacket(headerFrame(kind, 5, id, tag)) })
			r.expect("first advertisement of the checked proof", sigCost{}, r.p.gossipTick)
		})
		t.Run(kind.String()+"/missing", func(t *testing.T) {
			r := newVerifyRig(t, 0, admitTestConfig())
			r.p.HandlePacket(r.gossipFrom(3, id)) // heard of, not held
			tag := r.scheme.Scheme.Sign(1, wire.HeaderSigBytes(id))
			r.expect("replayed header", oneSkip, func() { r.p.HandlePacket(headerFrame(kind, 4, id, tag)) })
		})
		t.Run(kind.String()+"/unknown", func(t *testing.T) {
			r := newVerifyRig(t, 0, admitTestConfig())
			tag := r.scheme.Scheme.Sign(1, wire.HeaderSigBytes(id))
			r.expect("first sight", oneVerify, func() { r.p.HandlePacket(headerFrame(kind, 4, id, tag)) })
		})
	}
}

// TestHeldProofVerifiedAtEgress: the gossip proof of a message the node holds
// costs nothing when it arrives, however often, one verification the first
// time the node advertises it, and a comparison on any replay after.
func TestHeldProofVerifiedAtEgress(t *testing.T) {
	id := wire.MsgID{Origin: 1, Seq: 1}
	r := newVerifyRig(t, 0, admitTestConfig())
	r.p.HandlePacket(r.dataFrom(1, 1, []byte("m")))
	for _, from := range []wire.NodeID{3, 4, 3} {
		r.expect("gossip proof on arrival", sigCost{}, func() { r.p.HandlePacket(r.gossipFrom(from, id)) })
	}
	r.sent = nil
	r.expect("first advertisement", oneVerify, r.p.gossipTick)
	tag := r.scheme.Scheme.Sign(1, wire.HeaderSigBytes(id))
	if got := r.sentOfKind(wire.KindGossip); len(got) != 1 || len(got[0].Gossip) != 1 || !bytes.Equal(got[0].Gossip[0].Sig, tag) {
		t.Fatalf("the checked proof was not advertised: %+v", got)
	}
	r.expect("second advertisement", sigCost{}, r.p.gossipTick)
	r.expect("replayed gossip", oneSkip, func() { r.p.HandlePacket(r.gossipFrom(5, id)) })
	r.expect("replayed request", oneSkip, func() { r.p.HandlePacket(headerFrame(wire.KindRequest, 4, id, tag)) })
}

// TestBadHeldProofNeverSent: a bad proof for a held message costs nothing on
// arrival and is caught where it would leave the node, in a gossip round or
// a SYNC-RESP: it is counted, its supplier is suspected, and it is dropped,
// so the frame goes without it and the next honest copy takes its place.
func TestBadHeldProofNeverSent(t *testing.T) {
	id := wire.MsgID{Origin: 1, Seq: 1}
	syncReq := &wire.Packet{Kind: wire.KindSyncReq, Sender: 5, TTL: 1, Target: 0, Origin: wire.NoNode}
	egress := map[string]func(*verifyRig) [][]byte{
		"gossip": func(r *verifyRig) (proofs [][]byte) {
			r.sent = nil
			r.p.gossipTick()
			for _, e := range r.sentOfKind(wire.KindGossip)[0].Gossip {
				proofs = append(proofs, e.Sig)
			}
			return proofs
		},
		"sync": func(r *verifyRig) (proofs [][]byte) {
			r.sent = nil
			r.p.HandlePacket(syncReq)
			for _, e := range r.sentOfKind(wire.KindSyncResp)[0].SyncEntries() {
				proofs = append(proofs, e.HeaderSig)
			}
			return proofs
		},
	}
	for name, send := range egress {
		t.Run(name, func(t *testing.T) {
			r := newVerifyRig(t, 0, admitTestConfig())
			r.introduceNeighbors(map[wire.NodeID]*wire.OverlayState{5: {}})
			r.p.buildState() // published now, so the rounds below sign nothing
			r.p.HandlePacket(r.dataFrom(1, 1, []byte("m")))
			good := r.scheme.Scheme.Sign(1, wire.HeaderSigBytes(id))
			bad := append([]byte(nil), good...)
			bad[0] ^= 1
			liar := r.gossipFrom(3, id)
			liar.Gossip[0].Sig = bad
			r.expect("bad proof on arrival", sigCost{}, func() { r.p.HandlePacket(liar) })

			var proofs [][]byte
			r.expect("first "+name, oneReject, func() { proofs = send(r) })
			if len(proofs) != 0 && proofs[0] != nil {
				t.Fatalf("the %s carries the unverified proof %x", name, proofs[0])
			}
			if reason, suspected := r.p.Trust().Reason(3); !suspected || reason != fd.ReasonBadSignature {
				t.Fatalf("supplier of the bad proof not suspected: %v %v", reason, suspected)
			}

			r.expect("honest proof on arrival", sigCost{}, func() { r.p.HandlePacket(r.gossipFrom(4, id)) })
			r.expect("next "+name, oneVerify, func() { proofs = send(r) })
			if len(proofs) != 1 || !bytes.Equal(proofs[0], good) {
				t.Fatalf("the %s does not carry the honest proof: %x", name, proofs)
			}
			if _, suspected := r.p.Trust().Reason(4); suspected {
				t.Fatal("the honest supplier is suspected")
			}
		})
	}
}

// TestHonestProofDisplacesBadCandidate: a liar's proof that arrives first is
// only a candidate. The first honest copy, by gossip or on a request, costs
// its own verification and the candidate's, which fails and is held against
// the liar; the honest proof takes the candidate's place, so later copies
// cost a comparison and the next round advertises it without a check.
func TestHonestProofDisplacesBadCandidate(t *testing.T) {
	id := wire.MsgID{Origin: 1, Seq: 1}
	honest := map[string]func(r *verifyRig, from wire.NodeID) *wire.Packet{
		"gossip": func(r *verifyRig, from wire.NodeID) *wire.Packet { return r.gossipFrom(from, id) },
		"request": func(r *verifyRig, from wire.NodeID) *wire.Packet {
			return headerFrame(wire.KindRequest, from, id, r.scheme.Scheme.Sign(1, wire.HeaderSigBytes(id)))
		},
	}
	for name, copyFrom := range honest {
		t.Run(name, func(t *testing.T) {
			r := newVerifyRig(t, 0, admitTestConfig())
			r.p.HandlePacket(r.dataFrom(1, 1, []byte("m")))
			good := r.scheme.Scheme.Sign(1, wire.HeaderSigBytes(id))
			bad := append([]byte(nil), good...)
			bad[0] ^= 1
			liar := r.gossipFrom(3, id)
			liar.Gossip[0].Sig = bad
			r.expect("bad proof on arrival", sigCost{}, func() { r.p.HandlePacket(liar) })

			r.expect("first honest copy", sigCost{verifies: 2, bad: 1, raised: 1}, func() { r.p.HandlePacket(copyFrom(r, 4)) })
			if reason, suspected := r.p.Trust().Reason(3); !suspected || reason != fd.ReasonBadSignature {
				t.Fatalf("supplier of the displaced proof not suspected: %v %v", reason, suspected)
			}
			r.expect("second honest copy", oneSkip, func() { r.p.HandlePacket(copyFrom(r, 5)) })
			r.expect("the liar again", oneSkip, func() { r.p.HandlePacket(r.gossipFrom(3, id)) })
			r.expect("the lie again", oneReject, func() { r.p.HandlePacket(liar) })

			r.sent = nil
			r.expect("first advertisement", sigCost{}, r.p.gossipTick)
			got := r.sentOfKind(wire.KindGossip)
			if len(got) != 1 || len(got[0].Gossip) != 1 || !bytes.Equal(got[0].Gossip[0].Sig, good) {
				t.Fatalf("the honest proof was not advertised: %+v", got)
			}
			for _, from := range []wire.NodeID{4, 5} {
				if _, suspected := r.p.Trust().Reason(from); suspected {
					t.Fatalf("honest supplier %d is suspected", from)
				}
			}
		})
	}
}

func TestSyncRespHeaderVerifyCeiling(t *testing.T) {
	cfg := admitTestConfig()
	cfg.CatchUpSync = true
	r := newVerifyRig(t, 0, cfg)
	r.p.Rejoin() // arms catch-up
	known, fresh := wire.MsgID{Origin: 4, Seq: 9}, wire.MsgID{Origin: 4, Seq: 10}
	r.p.HandlePacket(r.gossipFrom(3, known)) // the header proof is already in the missing table
	entry := func(id wire.MsgID) wire.SyncEntry {
		payload := []byte("missed while down")
		return wire.SyncEntry{
			ID: id, Payload: payload,
			Sig:       r.scheme.Scheme.Sign(4, wire.DataSigBytes(id, payload)),
			HeaderSig: r.scheme.Scheme.Sign(4, wire.HeaderSigBytes(id)),
		}
	}
	resp := &wire.Packet{
		Kind: wire.KindSyncResp, Sender: 3, TTL: 1, Target: 0, Origin: wire.NoNode,
		Sync: &wire.SyncBody{Entries: []wire.SyncEntry{entry(known), entry(fresh)}},
	}
	// The two payload signatures alone: the known id keeps the proof the
	// missing table verified, and the fresh one's is checked where it leaves.
	r.expect("sync batch", sigCost{verifies: 2}, func() { r.p.HandlePacket(resp) })
	for _, id := range []wire.MsgID{known, fresh} {
		if st := r.p.store.byID[id]; st == nil || st.headerSig == nil {
			t.Fatalf("%v applied without its gossip proof", id)
		}
	}
	r.expect("first advertisement", oneVerify, r.p.gossipTick)
}

func TestStateNearMissesAlwaysVerify(t *testing.T) {
	r := newVerifyRig(t, 0, admitTestConfig())
	genuine := r.stateFrom(2, &wire.OverlayState{Active: true, Neighbors: []wire.NodeID{0, 3}})
	r.p.HandlePacket(genuine)
	r.p.HandlePacket(r.stateFrom(3, &wire.OverlayState{Neighbors: []wire.NodeID{0, 2}}))

	altered := genuine.Clone() // the signature we hold, over a different record
	altered.State.Active = false
	resigned := genuine.Clone() // the record we hold, under a different signature
	resigned.StateSig[0] ^= 1
	borrowed := genuine.Clone() // neighbour 2's record and signature, sent as 3
	borrowed.Sender = 3

	for round := 0; round < 3; round++ { // a failure is never remembered
		r.expect("same signature, altered record", oneReject, func() { r.p.HandlePacket(altered) })
		r.expect("same record, different signature", oneReject, func() { r.p.HandlePacket(resigned) })
		r.expect("another sender's record and signature", oneReject, func() { r.p.HandlePacket(borrowed) })
	}
	if r.p.neighbors[2].state != genuine.State {
		t.Fatal("a rejected record replaced the verified one")
	}
	r.expect("the genuine record again", oneSkip, func() { r.p.HandlePacket(genuine) })
}

func TestHeaderNearMissesAlwaysVerify(t *testing.T) {
	held, other := wire.MsgID{Origin: 1, Seq: 1}, wire.MsgID{Origin: 1, Seq: 2}
	for _, kind := range []wire.Kind{wire.KindRequest, wire.KindFindMissing} {
		t.Run(kind.String(), func(t *testing.T) {
			r := newVerifyRig(t, 0, admitTestConfig())
			r.p.HandlePacket(r.dataFrom(1, 1, []byte("m")))
			r.p.HandlePacket(r.gossipFrom(3, held))
			tag := r.scheme.Scheme.Sign(1, wire.HeaderSigBytes(held))
			bent := append([]byte(nil), tag...)
			bent[0] ^= 1
			for round := 0; round < 3; round++ {
				r.expect("altered signature for a held id", oneReject,
					func() { r.p.HandlePacket(headerFrame(kind, 4, held, bent)) })
				r.expect("held signature for another id", oneReject,
					func() { r.p.HandlePacket(headerFrame(kind, 4, other, tag)) })
			}
		})
	}
}

func TestStateReverifiedAfterNeighborLoss(t *testing.T) {
	state := &wire.OverlayState{Active: true, Neighbors: []wire.NodeID{0}}
	prime := func(t *testing.T, cfg Config) (*verifyRig, *wire.Packet) {
		r := newVerifyRig(t, 0, cfg)
		pkt := r.stateFrom(2, state)
		r.expect("first copy", oneVerify, func() { r.p.HandlePacket(pkt) })
		r.expect("replay", oneSkip, func() { r.p.HandlePacket(pkt) })
		return r, pkt
	}
	t.Run("expiry", func(t *testing.T) {
		cfg := admitTestConfig()
		cfg.NeighborTTL = 2 * time.Second
		r, pkt := prime(t, cfg)
		r.run(5 * time.Second)
		if r.p.NeighborCount() != 0 {
			t.Fatal("silent neighbour not expired")
		}
		r.expect("copy after expiry", oneVerify, func() { r.p.HandlePacket(pkt) })
	})
	t.Run("eviction", func(t *testing.T) {
		cfg := admitTestConfig()
		cfg.MaxNeighbors = 2
		r, pkt := prime(t, cfg)
		for _, from := range []wire.NodeID{3, 4} { // 4 evicts 2, the least recently heard
			r.run(10 * time.Millisecond)
			r.p.HandlePacket(r.stateFrom(from, state))
		}
		if r.p.neighbors[2] != nil {
			t.Fatal("neighbour 2 survived LRU eviction")
		}
		r.expect("copy after eviction", oneVerify, func() { r.p.HandlePacket(pkt) })
	})
	t.Run("rejoin", func(t *testing.T) {
		r, pkt := prime(t, admitTestConfig())
		r.p.Rejoin()
		r.expect("copy after rejoin", oneVerify, func() { r.p.HandlePacket(pkt) })
	})
}

// An origin signs a message's data at Broadcast and its gossip header when the
// header first leaves the node, in a gossip round or a SYNC-RESP, and reuses
// that signature from then on.
func TestOwnHeaderSignedWhenFirstHandedOut(t *testing.T) {
	cfg := admitTestConfig()
	syncReq := &wire.Packet{Kind: wire.KindSyncReq, Sender: 5, TTL: 1, Target: 0, Origin: wire.NoNode}
	for _, first := range []string{"gossip", "sync"} {
		t.Run(first, func(t *testing.T) {
			r := newVerifyRig(t, 0, cfg)
			r.introduceNeighbors(map[wire.NodeID]*wire.OverlayState{5: {}})
			// Every gossip round carries the state record. Publish it now, so
			// the rounds below reuse its signature and sign nothing else.
			r.p.buildState()
			signs := r.scheme.signs
			id := r.p.Broadcast([]byte("m"))
			if got := r.scheme.signs - signs; got != 1 {
				t.Fatalf("Broadcast made %d signatures, want the data's alone", got)
			}
			handOut := map[string]func() []byte{
				"gossip": func() []byte {
					r.sent = nil
					r.p.gossipTick()
					return r.sentOfKind(wire.KindGossip)[0].Gossip[0].Sig
				},
				"sync": func() []byte {
					r.sent = nil
					r.p.HandlePacket(syncReq)
					return r.sentOfKind(wire.KindSyncResp)[0].SyncEntries()[0].HeaderSig
				},
			}
			proof := handOut[first]()
			if got := r.scheme.signs - signs; got != 2 {
				t.Fatalf("%d signatures after the first %s, want data and header", got, first)
			}
			if !r.scheme.Scheme.Verify(0, wire.HeaderSigBytes(id), proof) {
				t.Fatalf("the %s carries a header proof that does not verify", first)
			}
			for _, again := range []string{"gossip", "sync"} {
				if p := handOut[again](); !bytes.Equal(p, proof) {
					t.Fatalf("a later %s carries a different header proof", again)
				}
			}
			if got := r.scheme.signs - signs; got != 2 {
				t.Fatalf("%d signatures, want the header signed once", got)
			}
		})
	}
}

// N gossip ticks over K distinct published records sign K state records.
func TestStateSignedOncePerPublishedRecord(t *testing.T) {
	r := newVerifyRig(t, 0, admitTestConfig())
	const ticksPerRecord, records = 4, 3
	signs := r.scheme.signs
	for k := 0; k < records; k++ {
		if k > 0 { // one more admitted neighbour: a different record to publish
			r.introduceNeighbors(map[wire.NodeID]*wire.OverlayState{wire.NodeID(k + 1): {}})
		}
		for i := 0; i < ticksPerRecord; i++ {
			r.p.gossipTick()
		}
	}
	if got := r.scheme.signs - signs; got != records {
		t.Fatalf("%d Sign calls over %d ticks publishing %d records, want %d",
			got, ticksPerRecord*records, records, records)
	}
	frames := r.sentOfKind(wire.KindGossip)
	if len(frames) != ticksPerRecord*records {
		t.Fatalf("%d gossip frames, want %d", len(frames), ticksPerRecord*records)
	}
	for i, f := range frames {
		if len(f.State.Neighbors) != i/ticksPerRecord {
			t.Fatalf("frame %d lists %d neighbours, want %d", i, len(f.State.Neighbors), i/ticksPerRecord)
		}
		if !r.scheme.Scheme.Verify(0, wire.StateSigBytes(0, f.State), f.StateSig) {
			t.Fatalf("frame %d: the reused signature does not cover the record it rides with", i)
		}
	}
}
