package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"

	"bbcast/internal/alloctest"
	"bbcast/internal/wire"
)

// TestMsgStateSize holds msgState inside the 144-byte allocation size class
// it occupied before it carried its id and list links: one more word and
// every stored message costs 160 bytes.
func TestMsgStateSize(t *testing.T) {
	if size := unsafe.Sizeof(msgState{}); size > 144 {
		t.Fatalf("msgState is %d bytes, want <= 144", size)
	}
}

// refStore is the message table as it was before the store kept its orders:
// a plain map that every reader scans, and sorts where order matters. Its
// three walks are the code the ordered store replaced, kept as the oracle the
// store is compared with step by step.
type refStore struct {
	cfg  Config
	self wire.NodeID
	m    map[wire.MsgID]*refEntry
}

type refEntry struct {
	purged               bool
	receivedAt, purgedAt time.Duration
	hasSig               bool // a header signature is known
	holders              map[wire.NodeID]bool
}

// victim is enforceStoreCap's minimum scan: tombstones before held entries,
// then oldest timestamp, then smallest id.
func (r *refStore) victim() (victim wire.MsgID, found bool) {
	var victimAt time.Duration
	victimPurged := false
	for id, e := range r.m {
		at := e.receivedAt
		if e.purged {
			at = e.purgedAt
		}
		switch {
		case !found,
			e.purged && !victimPurged,
			e.purged == victimPurged && (at < victimAt || (at == victimAt && id.Less(victim))):
			victim, victimAt, victimPurged, found = id, at, e.purged, true
		}
	}
	return victim, found
}

// insert is enforceStoreCap followed by the map store.
func (r *refStore) insert(id wire.MsgID, e *refEntry) {
	for max := r.cfg.MaxStore; max > 0 && len(r.m) >= max; {
		v, _ := r.victim()
		delete(r.m, v)
	}
	r.m[id] = e
}

// accept is the store's share of handleData and of one SYNC-RESP entry.
func (r *refStore) accept(id wire.MsgID, now time.Duration, hasSig, revive bool) {
	if e := r.m[id]; e != nil {
		if e.purged && revive {
			e.purged, e.receivedAt = false, now
		}
		return
	}
	r.insert(id, &refEntry{receivedAt: now, hasSig: hasSig})
}

// gossip is gossipTick's scan-and-sort candidate list, cut to the frame.
func (r *refStore) gossip(now time.Duration) []wire.MsgID {
	var ids []wire.MsgID
	for id, e := range r.m {
		if !e.purged && now-e.receivedAt <= r.cfg.GossipRetention {
			ids = append(ids, id)
		}
	}
	slices.SortFunc(ids, wire.MsgID.Compare)
	var out []wire.MsgID
	for _, id := range ids {
		e := r.m[id]
		if !e.hasSig {
			if id.Origin != r.self {
				continue
			}
			e.hasSig = true
		}
		out = append(out, id)
		if r.cfg.GossipMaxEntries > 0 && len(out) >= r.cfg.GossipMaxEntries {
			break
		}
	}
	return out
}

// purge is purgeTick's walk over the sorted ids of the whole table, by a node
// with the given number of neighbours.
func (r *refStore) purge(now time.Duration, neighbours int) {
	ids := make([]wire.MsgID, 0, len(r.m))
	for id := range r.m {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, wire.MsgID.Compare)
	for _, id := range ids {
		e := r.m[id]
		if e.purged {
			if q := r.cfg.StoreQuiescence; q > 0 && now-e.purgedAt > q {
				delete(r.m, id)
			}
			continue
		}
		age := now - e.receivedAt
		expired := age > r.cfg.PurgeTimeout
		if !expired && r.cfg.StabilityPurge {
			expired = age >= 2*r.cfg.GossipInterval && len(e.holders) >= max(3, neighbours/2)
		}
		if expired {
			*e = refEntry{purged: true, purgedAt: now, receivedAt: e.receivedAt}
		}
	}
}

// restore is Rejoin's table reset followed by restoreDurable.
func (r *refStore) restore(delivered []wire.MsgID, now time.Duration) {
	r.m = map[wire.MsgID]*refEntry{}
	for _, id := range delivered {
		if max := r.cfg.MaxStore; max > 0 && len(r.m) >= max {
			break
		}
		r.m[id] = &refEntry{purged: true, purgedAt: now, receivedAt: now}
	}
}

// check compares the protocol's store with the reference — contents, sizes,
// next victim — and verifies the three orders against their definitions.
func (r *refStore) check(t *testing.T, p *Protocol, step int, op string) {
	t.Helper()
	s, now := &p.store, p.deps.Clock.Now()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d (%s): "+format, append([]any{step, op}, args...)...)
	}
	if len(s.byID) != len(r.m) {
		fail("store has %d entries, reference %d", len(s.byID), len(r.m))
	}
	held := 0
	for id, e := range r.m {
		st := s.byID[id]
		if st == nil {
			fail("%v missing from the store", id)
		}
		at := e.receivedAt
		if e.purged {
			at = e.purgedAt
		} else {
			held++
			if !slices.Contains(s.window, st) && now-at <= r.cfg.GossipRetention {
				fail("%v is %v old and not in the gossip window", id, now-at)
			}
		}
		holders := 0
		if st.holders != nil {
			holders = len(*st.holders)
		}
		if st.id != id || st.purged != e.purged || st.at != at || (st.headerSig != nil) != e.hasSig || holders != len(e.holders) {
			fail("%v: store has purged=%v at=%v sig=%v holders=%d, reference purged=%v at=%v sig=%v holders=%d",
				id, st.purged, st.at, st.headerSig != nil, holders, e.purged, at, e.hasSig, len(e.holders))
		}
	}
	if h, tb := p.StoreSize(); h != held || tb != len(r.m)-held {
		fail("StoreSize = %d, %d; reference %d, %d", h, tb, held, len(r.m)-held)
	}
	if v, ok := r.victim(); ok {
		next := s.tombs.head
		if next == nil {
			next = s.held.head
		}
		if next.id != v {
			fail("next victim %v, reference scan picks %v", next.id, v)
		}
	}
	for _, l := range []struct {
		list   *msgList
		purged bool
	}{{&s.held, false}, {&s.tombs, true}} {
		n := 0
		var prev *msgState
		for st := l.list.head; st != nil; prev, st = st, st.next {
			n++
			if st.prev != prev || s.byID[st.id] != st || st.purged != l.purged {
				fail("list entry %v (purged=%v) is mislinked, stale or in the wrong list", st.id, st.purged)
			}
			if prev != nil && (prev.at > st.at || prev.at == st.at && !prev.id.Less(st.id)) {
				fail("list out of order: %v@%v before %v@%v", prev.id, prev.at, st.id, st.at)
			}
		}
		if n != l.list.n || l.list.tail != prev {
			fail("list counts %d entries and walks %d (tail ok: %v)", l.list.n, n, l.list.tail == prev)
		}
	}
	if len(s.window) > 2*r.cfg.MaxStore+1 {
		fail("window has %d slots under MaxStore %d", len(s.window), r.cfg.MaxStore)
	}
	for i, st := range s.window {
		if !st.purged && s.byID[st.id] != st {
			fail("window slot %v is neither a held entry nor dead", st.id)
		}
		if i > 0 && !s.window[i-1].id.Less(st.id) {
			fail("window out of order at %v", st.id)
		}
	}
}

// runStoreOrder decodes data into a store configuration (MaxStore 2–64,
// stability purging, a durable store) and a sequence of operations on one
// protocol instance — accepts, revivals, own broadcasts, gossip, SYNC
// batches, purge and gossip ticks, rejoins, most of them at the same virtual
// instant — and checks the store against the reference after every one.
func runStoreOrder(t *testing.T, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	cfg := DefaultConfig()
	cfg.GossipInterval, cfg.MaintenanceInterval, cfg.PurgeInterval = 0, 0, 0 // ticks are called by hand
	cfg.AdmitRate, cfg.EnableFDs, cfg.EnableRecovery, cfg.PiggybackState = 0, false, false, false
	cfg.GossipRetention, cfg.PurgeTimeout, cfg.StoreQuiescence = 3*time.Second, 6*time.Second, 8*time.Second
	cfg.GossipMaxEntries = 4
	cfg.MaxStore = 2 + next()%63
	flags := next()
	cfg.StabilityPurge = flags&1 != 0
	var h *harness
	if flags&2 != 0 {
		h, _ = newPersistHarness(t, 0, cfg)
	} else {
		h = newHarness(t, 0, cfg)
	}
	p := h.p
	// No task was scheduled above; from here on the gossip interval only says
	// how long a stable message is kept (two rounds). With at most three
	// senders below, three confirmations make a message stable.
	cfg.GossipInterval = 500 * time.Millisecond
	p.cfg.GossipInterval = cfg.GossipInterval
	ref := &refStore{cfg: cfg, self: 0, m: map[wire.MsgID]*refEntry{}}
	payload := []byte("x")
	dataFor := func(id wire.MsgID, sender wire.NodeID) *wire.Packet {
		pkt := h.dataFrom(id.Origin, id.Seq, payload)
		pkt.Sender = sender
		return pkt
	}
	foreignID := func() wire.MsgID {
		return wire.MsgID{Origin: wire.NodeID(1 + next()%3), Seq: wire.Seq(1 + next()%24)}
	}

	for step := 0; len(data) > 0; step++ {
		now := p.deps.Clock.Now()
		op := "?"
		switch next() % 12 {
		case 0:
			op = "short wait"
			h.run(time.Duration(next()) * time.Millisecond)
		case 1:
			op = "long wait"
			h.run(time.Duration(next()%8) * time.Second)
		case 2, 3:
			op = "data"
			id := foreignID()
			p.HandlePacket(dataFor(id, id.Origin))
			ref.accept(id, now, false, true)
		case 4:
			op = "broadcast"
			id := p.Broadcast(payload)
			ref.insert(id, &refEntry{receivedAt: now}) // the header is signed when first gossiped
		case 5:
			// A neighbour hands back a message this node sent before a wipe,
			// under a sequence number it is about to issue again.
			op = "own message from a neighbour"
			id := wire.MsgID{Origin: 0, Seq: p.seq + 1 + wire.Seq(next()%3)}
			p.HandlePacket(dataFor(id, 1))
			ref.accept(id, now, false, true)
		case 6:
			op = "gossip"
			sender, id := wire.NodeID(1+next()%3), foreignID()
			p.HandlePacket(h.gossipFrom(sender, id))
			if e := ref.m[id]; e != nil && !e.purged {
				e.hasSig = true
				if cfg.StabilityPurge {
					if e.holders == nil {
						e.holders = map[wire.NodeID]bool{}
					}
					e.holders[sender] = true
				}
			}
		case 7:
			op = "sync batch"
			pkt := &wire.Packet{Kind: wire.KindSyncResp, Sender: 1, TTL: 1, Target: 0, Origin: wire.NoNode}
			for n := 1 + next()%6; n > 0; n-- {
				id, withProof := foreignID(), next()%2 == 0
				e := wire.SyncEntry{ID: id, Payload: payload, Sig: h.scheme.Sign(uint32(id.Origin), wire.DataSigBytes(id, payload))}
				if withProof {
					e.HeaderSig = h.scheme.Sign(uint32(id.Origin), wire.HeaderSigBytes(id))
				}
				pkt.SyncEntries = append(pkt.SyncEntries, e)
				ref.accept(id, now, withProof, false)
			}
			p.syncArmed = true
			p.HandlePacket(pkt)
		case 8, 9:
			op = "purge tick"
			p.purgeTick()
			ref.purge(now, p.NeighborCount())
		case 10:
			op = "gossip tick"
			h.sent = nil
			p.gossipTick()
			var got []wire.MsgID
			for _, pkt := range h.sentOfKind(wire.KindGossip) {
				for _, e := range pkt.Gossip {
					got = append(got, e.ID)
				}
			}
			if want := ref.gossip(now); !slices.Equal(got, want) {
				t.Fatalf("step %d: gossip tick advertised %v, scan-and-sort gives %v", step, got, want)
			}
		case 11:
			op = "rejoin"
			p.Rejoin()
			var delivered []wire.MsgID
			if p.deps.Store != nil {
				delivered = p.deps.Store.DeliveredSorted()
			}
			ref.restore(delivered, now)
		}
		ref.check(t, p, step, op)
	}
}

// TestStoreOrderMatchesScans drives the differential check with seeded random
// operation sequences over every MaxStore and both purge modes.
func TestStoreOrderMatchesScans(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		data := make([]byte, 600+rng.Intn(1800))
		rng.Read(data)
		data[0], data[1] = byte(seed), byte(seed>>2) // MaxStore and mode sweep
		runStoreOrder(t, data)
	}
}

// FuzzStoreOrder lets the fuzzer look for an operation sequence on which the
// ordered store and the scans it replaced disagree.
func FuzzStoreOrder(f *testing.F) {
	f.Add([]byte{0, 0, 2, 1, 1, 2, 1, 2, 2, 1, 3, 4, 8, 10})
	f.Add([]byte{2, 3, 4, 4, 5, 0, 4, 11, 4, 2, 1, 1, 1, 7, 8, 10, 8})
	f.Add([]byte{1, 1, 2, 1, 1, 6, 1, 1, 1, 6, 2, 1, 1, 6, 0, 1, 1, 1, 2, 8, 10, 1, 7, 9, 2, 1, 1}) // three gossipers make (2,2) stable
	f.Fuzz(runStoreOrder)
}

// TestStoreCapInsertIsNotAScan is the tier-1 guard for the cliff at the cap:
// accepting into a full store evicts the head of the store's order, so it
// costs about what accepting into a half-empty one does. When making room was
// a scan of the table the ratio was ≈150×.
func TestStoreCapInsertIsNotAScan(t *testing.T) {
	alloctest.SkipUnderRace(t)
	cfg := DefaultConfig()
	cfg.AdmitRate, cfg.EnableFDs = 0, false
	accept256 := func(prefill int) time.Duration {
		h := newHarness(t, 0, cfg)
		h.p.deps.Send = func(*wire.Packet) {}
		pkts := make([]*wire.Packet, prefill+256)
		for i := range pkts {
			pkts[i] = h.dataFrom(1, wire.Seq(i+1), []byte("x"))
		}
		for _, pkt := range pkts[:prefill] {
			h.p.HandlePacket(pkt)
		}
		start := time.Now()
		for _, pkt := range pkts[prefill:] {
			h.p.HandlePacket(pkt)
		}
		return time.Since(start)
	}
	below, atCap := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < 5; i++ { // best of five: scheduling noise only ever adds
		below = min(below, accept256(cfg.MaxStore/2))
		atCap = min(atCap, accept256(cfg.MaxStore))
	}
	if atCap > 10*below {
		t.Fatalf("256 accepts into a full store took %v, %v below the cap: making room scans again", atCap, below)
	}
}
