package core

// Observer fan-out tests: every protocol event must be emitted exactly once
// at its source, every member of an obsv.Multi must see the identical event
// stream, and the guarantee must hold under the same adversarial packet
// pressure as the fuzz tests (mutated fuzz-seed corpus).

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"bbcast/internal/obsv"
	"bbcast/internal/overlay"
	"bbcast/internal/wire"
)

// recObserver records every event it sees, both as counters per event class
// and as an ordered log for cross-member comparison.
type recObserver struct {
	lines       []string
	rx          int
	accepts     []wire.MsgID
	roles       []overlay.Role
	sigs        int
	queues      map[obsv.Queue]int
	admits      map[obsv.AdmissionEvent]int
	suspRaised  int
	suspCleared int
	suppressed  int
}

func newRecObserver() *recObserver {
	return &recObserver{queues: make(map[obsv.Queue]int), admits: make(map[obsv.AdmissionEvent]int)}
}

func (r *recObserver) log(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *recObserver) OnPacketTx(at time.Duration, node wire.NodeID, kind wire.Kind, id wire.MsgID, meta wire.Meta) {
	r.log("tx %s %d %s %v cause=%s hops=%d", at, node, kind, id, meta.Cause, meta.Hops)
}

func (r *recObserver) OnPacketRx(at time.Duration, node wire.NodeID, kind wire.Kind, id wire.MsgID, meta wire.Meta) {
	r.rx++
	r.log("rx %s %d %s %v cause=%s", at, node, kind, id, meta.Cause)
}

func (r *recObserver) OnInject(at time.Duration, node wire.NodeID, id wire.MsgID) {
	r.log("inject %s %d %v", at, node, id)
}

func (r *recObserver) OnAccept(at time.Duration, node wire.NodeID, id wire.MsgID, payload []byte, meta wire.Meta) {
	r.accepts = append(r.accepts, id)
	r.log("accept %s %d %v %q cause=%s hops=%d rec=%v", at, node, id, payload, meta.Cause, meta.Hops, meta.Recovered)
}

func (r *recObserver) OnForwardSuppressed(at time.Duration, node wire.NodeID, id wire.MsgID, meta wire.Meta) {
	r.suppressed++
	r.log("suppress %s %d %v cause=%s", at, node, id, meta.Cause)
}

func (r *recObserver) OnRoleChange(at time.Duration, node wire.NodeID, role overlay.Role) {
	r.roles = append(r.roles, role)
	r.log("role %s %d %s", at, node, role)
}

func (r *recObserver) OnSuspicion(at time.Duration, node, subject wire.NodeID, detector obsv.Detector, raised bool) {
	if raised {
		r.suspRaised++
	} else {
		r.suspCleared++
	}
	r.log("susp %s %d %d %s %v", at, node, subject, detector, raised)
}

func (r *recObserver) OnSigVerify(at time.Duration, node wire.NodeID, ok bool, took time.Duration) {
	r.sigs++
	// The duration is wall clock and would differ between runs, so it is
	// deliberately left out of the comparable log line.
	r.log("sig %s %d %v", at, node, ok)
}

func (r *recObserver) OnQueueDepth(at time.Duration, node wire.NodeID, queue obsv.Queue, depth int) {
	r.queues[queue]++
	r.log("queue %s %d %s %d", at, node, queue, depth)
}

func (r *recObserver) OnAdmission(at time.Duration, node wire.NodeID, event obsv.AdmissionEvent) {
	r.admits[event]++
	r.log("admit %s %d %s", at, node, event)
}

func (r *recObserver) OnAdaptation(at time.Duration, node wire.NodeID, timer obsv.AdaptiveTimer, old, new time.Duration) {
	r.log("adapt %s %d %s %s→%s", at, node, timer, old, new)
}

func (r *recObserver) OnRetry(at time.Duration, node wire.NodeID, id wire.MsgID, attempt int, abandoned bool) {
	r.log("retry %s %d %v %d %v", at, node, id, attempt, abandoned)
}

func (r *recObserver) OnSync(at time.Duration, node, peer wire.NodeID, event obsv.SyncEvent, entries, bytes int) {
	r.log("sync %s %d %d %s %d %d", at, node, peer, event, entries, bytes)
}

func (r *recObserver) OnRejoin(at time.Duration, node wire.NodeID, restored int) {
	r.log("rejoin %s %d %d", at, node, restored)
}

// newObsHarness is newHarness with an observer attached.
func newObsHarness(t *testing.T, selfID wire.NodeID, cfg Config, obs obsv.Observer) *harness {
	t.Helper()
	return newHarnessWith(t, selfID, cfg, func(d *Deps) { d.Obs = obs })
}

func assertRecordersAgree(t *testing.T, a, b *recObserver) {
	t.Helper()
	if len(a.lines) != len(b.lines) {
		t.Fatalf("fan-out members diverged: %d vs %d events", len(a.lines), len(b.lines))
	}
	for i := range a.lines {
		if a.lines[i] != b.lines[i] {
			t.Fatalf("fan-out members diverged at %d: %q vs %q", i, a.lines[i], b.lines[i])
		}
	}
}

func TestObserverExactlyOncePerProtocolEvent(t *testing.T) {
	rec, twin := newRecObserver(), newRecObserver()
	h := newObsHarness(t, 0, DefaultConfig(), obsv.Multi(rec, twin))

	// One valid data packet: exactly one rx, one sig verify, one accept.
	data := h.dataFrom(1, 1, []byte("alpha"))
	h.p.HandlePacket(data)
	if rec.rx != 1 || rec.sigs != 1 || len(rec.accepts) != 1 {
		t.Fatalf("after first data: rx=%d sigs=%d accepts=%d, want 1/1/1",
			rec.rx, rec.sigs, len(rec.accepts))
	}
	// The duplicate is received (an rx event) but must not re-accept; the
	// redundant frame is reported as suppressed exactly once.
	h.p.HandlePacket(data.Clone())
	if rec.rx != 2 || len(rec.accepts) != 1 {
		t.Fatalf("after duplicate: rx=%d accepts=%d, want 2/1", rec.rx, len(rec.accepts))
	}
	if rec.suppressed != 1 {
		t.Fatalf("after duplicate: suppressed=%d, want 1", rec.suppressed)
	}
	// The node's own broadcast is delivered locally and must emit exactly
	// one accept too.
	own := h.p.Broadcast([]byte("mine"))
	if len(rec.accepts) != 2 || rec.accepts[1] != own {
		t.Fatalf("own broadcast accepts = %v, want [.., %v]", rec.accepts, own)
	}
	// A packet claiming to be from the node itself is ignored before any
	// event is emitted.
	self := h.dataFrom(1, 2, []byte("spoof"))
	self.Sender = 0
	h.p.HandlePacket(self)
	if rec.rx != 2 {
		t.Fatalf("self-sender packet emitted rx (rx=%d)", rec.rx)
	}
	// Accept events mirror the Deliver upcall one-for-one.
	if len(h.delivered) != len(rec.accepts) {
		t.Fatalf("delivered %d but observed %d accepts", len(h.delivered), len(rec.accepts))
	}
	assertRecordersAgree(t, rec, twin)
}

func TestObserverRoleAndQueueEvents(t *testing.T) {
	rec, twin := newRecObserver(), newRecObserver()
	h := newObsHarness(t, 0, DefaultConfig(), obsv.Multi(rec, twin))
	h.run(10 * time.Second) // let elections and maintenance run

	if len(rec.roles) == 0 {
		t.Fatal("no role change observed for a lone node election")
	}
	for i := 1; i < len(rec.roles); i++ {
		if rec.roles[i] == rec.roles[i-1] {
			t.Fatalf("role change %d repeated %s: transitions must be edges, not levels",
				i, rec.roles[i])
		}
	}
	if last := rec.roles[len(rec.roles)-1]; last != h.p.Role() {
		t.Fatalf("last observed role %s != protocol role %s", last, h.p.Role())
	}
	// Every maintenance tick samples all four queues the same number of
	// times.
	n := rec.queues[obsv.QueueStore]
	if n == 0 {
		t.Fatal("no queue-depth samples after 10s of maintenance")
	}
	for _, q := range []obsv.Queue{obsv.QueueMissing, obsv.QueueNeighbors, obsv.QueueExpectations} {
		if rec.queues[q] != n {
			t.Fatalf("queue %s sampled %d times, store %d: samples must come in full sets",
				q, rec.queues[q], n)
		}
	}
	assertRecordersAgree(t, rec, twin)
}

func TestObserverSuspicionRaiseAndClear(t *testing.T) {
	rec, twin := newRecObserver(), newRecObserver()
	cfg := DefaultConfig()
	h := newObsHarness(t, 0, cfg, obsv.Multi(rec, twin))

	// Gossip from 3 advertises messages it never supplies: each unmet MUTE
	// expectation is a strike, and Threshold strikes raise a suspicion.
	for seq := wire.Seq(1); int(seq) <= cfg.Mute.Threshold; seq++ {
		h.p.HandlePacket(h.gossipFrom(3, wire.MsgID{Origin: 1, Seq: seq}))
	}
	h.run(cfg.Mute.Timeout + cfg.RequestDelay + 5*time.Second)
	if rec.suspRaised == 0 {
		t.Fatal("no suspicion raised for unmet MUTE expectations")
	}
	// Unrefreshed suspicions age out, emitting a clear transition.
	h.run(cfg.Mute.SuspicionTTL + 2*cfg.Mute.AgeInterval)
	if rec.suspCleared == 0 {
		t.Fatal("aged-out suspicion emitted no clear event")
	}
	assertRecordersAgree(t, rec, twin)
}

// TestObserverExactlyOnceUnderFuzzCorpus replays the fuzz-seed corpus
// (every packet kind, mutated under the same rng schedule as the fuzz test)
// and checks the structural exactly-once guarantees: one rx per handled
// foreign packet, accepts exactly mirroring deliveries, and identical event
// streams on both fan-out members. The two signature events are held to the
// same standard: one AdmitDedup per verification skipped by byte-equal reuse,
// one OnSigVerify per Scheme.Verify call really made.
func TestObserverExactlyOnceUnderFuzzCorpus(t *testing.T) {
	rec, twin := newRecObserver(), newRecObserver()
	var scheme *countingScheme
	h := newHarnessWith(t, 0, DefaultConfig(), func(d *Deps) {
		scheme = countScheme(d)
		d.Obs = obsv.Multi(rec, twin)
	})
	legit := [][]byte{[]byte("alpha"), []byte("bravo"), []byte("charlie")}
	rng := rand.New(rand.NewSource(1))

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

	wantRx := 0
	for round := 0; round < 1500; round++ {
		src := seeds[rng.Intn(len(seeds))]
		var pkt *wire.Packet
		if rng.Intn(4) == 0 {
			pkt = src.Clone()
		} else {
			pkt = mutate(rng, src)
		}
		if pkt == nil {
			continue
		}
		if pkt.Sender != 0 { // self-sender packets are dropped pre-rx
			wantRx++
		}
		h.p.HandlePacket(pkt)
		if rng.Intn(50) == 0 {
			h.run(200 * time.Millisecond)
		}
	}

	if rec.rx != wantRx {
		t.Fatalf("rx events = %d, want %d (one per handled foreign packet)", rec.rx, wantRx)
	}
	if len(rec.accepts) != len(h.delivered) {
		t.Fatalf("accept events = %d, deliveries = %d", len(rec.accepts), len(h.delivered))
	}
	for i, id := range h.delivered {
		if rec.accepts[i] != id {
			t.Fatalf("accept %d = %v, delivered %v", i, rec.accepts[i], id)
		}
	}
	seen := map[wire.MsgID]int{}
	for _, id := range rec.accepts {
		seen[id]++
		if seen[id] > 1 {
			t.Fatalf("message %v accepted %d times", id, seen[id])
		}
	}
	if rec.sigs == 0 || rec.sigs != scheme.verifies {
		t.Fatalf("%d signature-verify events for %d Verify calls", rec.sigs, scheme.verifies)
	}
	if skips := h.p.Stats().DedupSkips; skips == 0 || uint64(rec.admits[obsv.AdmitDedup]) != skips {
		t.Fatalf("%d dedup events for %d DedupSkips", rec.admits[obsv.AdmitDedup], skips)
	}
	assertRecordersAgree(t, rec, twin)
}
