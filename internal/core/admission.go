package core

import (
	"slices"
	"time"

	"bbcast/internal/obsv"
	"bbcast/internal/wire"
)

// Admission control and state garbage collection: everything that keeps one
// node's memory and signature-verification work bounded regardless of what
// its neighbours send. The cheap checks here run before any cryptography —
// a flooding sender costs a map lookup and a float comparison per packet,
// not an HMAC.

// reqRecord tracks how often each requester asked for one message, with a
// touch time so idle records can expire (the old map[wire.NodeID]int grew
// forever; see ISSUE 4 satellite b).
type reqRecord struct {
	//bbvet:bounded-by maxReqCounters bumpRequestCount stops admitting new requesters past the cap; total is maxReqCounters×MaxReqSeen
	counts  map[wire.NodeID]int
	touched time.Duration
}

// observeAdmission reports one admission/GC action to the observer.
func (p *Protocol) observeAdmission(event obsv.AdmissionEvent) {
	if p.deps.Obs != nil {
		p.deps.Obs.OnAdmission(p.deps.Clock.Now(), p.deps.ID, event)
	}
}

// admit refills the sender's token bucket and charges one token for the
// packet. Buckets live in neighborState, so the limiter's memory is bounded
// by MaxNeighbors. Rate limiting is disabled when AdmitRate <= 0.
func (p *Protocol) admit(nb *neighborState) bool {
	rate := p.cfg.AdmitRate
	if rate <= 0 {
		return true
	}
	burst := p.cfg.AdmitBurst
	if burst <= 0 {
		burst = 2 * rate
	}
	now := p.deps.Clock.Now()
	if elapsed := now - nb.lastRefill; elapsed > 0 {
		nb.tokens += elapsed.Seconds() * rate
		if nb.tokens > burst {
			nb.tokens = burst
		}
	}
	nb.lastRefill = now
	if nb.tokens < 1 {
		return false
	}
	nb.tokens--
	return true
}

// enforceStoreCap makes room for one store insertion when MaxStore is set:
// tombstones are evicted oldest-purged-first (they are only a duplicate
// filter), then held entries oldest-received-first — the head of the store's
// own order, so making room costs the same at the cap as below it.
func (p *Protocol) enforceStoreCap() {
	for max := p.cfg.MaxStore; max > 0 && len(p.store.byID) >= max; {
		victim := p.store.tombs.head
		if victim == nil {
			victim = p.store.held.head
		}
		p.store.remove(victim)
		p.stats.Evictions++
		p.observeAdmission(obsv.AdmitStoreEvict)
	}
}

// enforceNeighborCap makes room for one neighbour insertion when MaxNeighbors
// is set by evicting the least recently heard entry (LRU).
func (p *Protocol) enforceNeighborCap() {
	max := p.cfg.MaxNeighbors
	if max <= 0 || len(p.neighbors) < max {
		return
	}
	for len(p.neighbors) >= max {
		// Pure minimum over the map with a total order (LRU timestamp, then
		// smallest id): iteration order cannot pick the victim, so ranging
		// the map unsorted stays deterministic. Same-instant lastHeard ties
		// are routine — every packet of a burst carries one virtual time.
		var victim wire.NodeID
		var victimAt time.Duration
		found := false
		for id, nb := range p.neighbors {
			if !found || nb.lastHeard < victimAt || (nb.lastHeard == victimAt && id < victim) {
				victim, victimAt, found = id, nb.lastHeard, true
			}
		}
		if !found {
			return
		}
		delete(p.neighbors, victim)
		delete(p.linkQual, victim)
		i, _ := slices.BinarySearch(p.nodeIDs, victim)
		p.nodeIDs = slices.Delete(p.nodeIDs, i, i+1)
		p.stats.Evictions++
		p.observeAdmission(obsv.AdmitNeighborEvict)
	}
}

// bumpRequestCount counts one request for id from a requester, creating the
// record (under the MaxReqSeen cap, evicting the least recently touched one
// at the cap) and refreshing its touch time.
func (p *Protocol) bumpRequestCount(id wire.MsgID, from wire.NodeID) int {
	now := p.deps.Clock.Now()
	rec := p.reqSeen[id]
	if rec == nil {
		if max := p.cfg.MaxReqSeen; max > 0 && len(p.reqSeen) >= max {
			p.evictOldestReqSeen()
		}
		rec = &reqRecord{counts: make(map[wire.NodeID]int, 2)}
		p.reqSeen[id] = rec
	}
	rec.touched = now
	if _, tracked := rec.counts[from]; !tracked && len(rec.counts) >= maxReqCounters {
		// Cap the per-record requester map: an untracked requester past the
		// cap is served as a first-time asker but not remembered. Repeat
		// offenders are by definition already tracked.
		return 1
	}
	rec.counts[from]++
	return rec.counts[from]
}

// evictOldestReqSeen removes the least recently touched request record.
func (p *Protocol) evictOldestReqSeen() {
	// Pure minimum with an id tie-break, as in the scans above: iteration
	// order cannot leak into the eviction choice or the emitted event.
	var victim wire.MsgID
	var victimAt time.Duration
	found := false
	for id, rec := range p.reqSeen { //bbvet:unordered pure minimum with a total order (touch time, then id); no emission until the loop ends
		if !found || rec.touched < victimAt || (rec.touched == victimAt && id.Less(victim)) {
			victim, victimAt, found = id, rec.touched, true
		}
	}
	if !found {
		return
	}
	delete(p.reqSeen, victim)
	p.stats.Evictions++
	p.observeAdmission(obsv.AdmitReqSeenExpire)
}

// ReqSeenCount reports the number of tracked request records (test and
// invariant input).
func (p *Protocol) ReqSeenCount() int { return len(p.reqSeen) }
