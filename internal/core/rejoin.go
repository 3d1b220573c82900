package core

import (
	"slices"
	"time"

	"bbcast/internal/fd"
	"bbcast/internal/obsv"
	"bbcast/internal/overlay"
	"bbcast/internal/persist"
	"bbcast/internal/wire"
)

// reasonRestored tags TRUST suspicions re-raised from the durable store on
// rejoin, distinguishing them from verdicts reached live.
const reasonRestored fd.Reason = "restored"

// maxSyncHave caps the store summary a SYNC-REQ carries. It matches the
// default MaxStore, so in practice the summary is complete; a node configured
// far larger may be re-served entries it already holds, which the apply path
// skips as duplicates.
const maxSyncHave = 4096

// syncEntriesPerToken converts served sync entries into admission-bucket
// tokens: serving a bulk batch charges the requester's bucket one token per
// this many entries, so rejoin catch-up rides the same per-sender budget as
// every other packet and a wipe-pretending spammer cannot buy unbounded
// service.
const syncEntriesPerToken = 8

// Rejoin re-initializes the node after an amnesiac crash: every volatile
// table (store, recovery state, neighbours, link estimators, detectors,
// request counters, overlay role, adapted timers, sequence counter) is reset
// as if the process had restarted, then whatever the durable store remembers
// is restored — the sequence high-water mark, delivered-message tombstones
// (so pre-crash traffic is not re-delivered) and direct TRUST verdicts. With
// CatchUpSync enabled it then starts asking a neighbour for the messages it
// missed while down. Periodic tasks keep their schedules (the "reboot" is
// instantaneous in virtual time). Without a durable store the node really is
// amnesiac: it may re-deliver old messages and will reuse sequence numbers.
func (p *Protocol) Rejoin() {
	if p.stopped {
		return
	}
	// No timer needs cancelling, and the timer heap carries over as it is:
	// each clock event still armed pops one entry. A request or retry finds
	// its entry gone with the old table (stillMissing), and a deferred reply
	// finds no entry with its token in the new one, so each is a no-op.
	p.seq = 0
	p.store = msgStore{byID: make(map[wire.MsgID]*msgState)}
	p.gossipCut = false
	p.missing = make(map[wire.MsgID]*pendingMiss)
	p.neighbors = make(map[wire.NodeID]*neighborState)
	p.nodeIDs = p.nodeIDs[:0]
	p.reqSeen = make(map[wire.MsgID]*reqRecord)
	p.replies = make(map[wire.MsgID]pendingReply)
	p.gossipPeriod = p.cfg.GossipInterval
	p.roleCand = overlay.Passive
	p.roleRun = 0
	if p.role != overlay.Passive {
		p.applyRole(overlay.Passive)
	}
	p.initDetectors()
	p.syncArmed = false
	p.syncAttempts = 0

	restored := p.restoreDurable()
	p.stats.Rejoins++
	if p.deps.Obs != nil {
		p.deps.Obs.OnRejoin(p.deps.Clock.Now(), p.deps.ID, restored)
	}
	if p.cfg.CatchUpSync {
		p.armCatchUp()
	}
}

// SetStore swaps the durable-state layer, as a restarting process reopening
// its device would. Call before Rejoin so the restored state and the
// re-wired detector hooks use the new store; nil makes the node truly
// amnesiac from here on.
func (p *Protocol) SetStore(s *persist.Store) {
	p.deps.Store = s
}

// restoreDurable loads the durable store into the freshly initialized
// volatile state and returns how many delivered-message tombstones were
// restored. Tombstones (not payloads) are what survives: the duplicate filter
// is re-established, while payloads are recovered by catch-up sync or gossip.
// Only TRUST verdicts are re-raised among suspicions — MUTE and VERBOSE
// suspicions are time-bound observations whose clocks died with the process.
func (p *Protocol) restoreDurable() int {
	store := p.deps.Store
	if store == nil {
		return 0
	}
	if s := wire.Seq(store.Seq()); s > p.seq {
		p.seq = s
	}
	now := p.deps.Clock.Now()
	restored := 0
	for _, id := range store.DeliveredSorted() {
		if _, ok := p.store.byID[id]; ok {
			continue
		}
		if max := p.cfg.MaxStore; max > 0 && len(p.store.byID) >= max {
			break
		}
		p.store.restore(id, now)
		restored++
	}
	for _, s := range store.SuspicionsSorted() {
		if s.Detector == persist.DetectorTrust {
			p.trust.Suspect(s.Subject, reasonRestored)
		}
	}
	return restored
}

// observeSync reports one catch-up sync action — the designated emission
// source for obsv.Observer.OnSync.
func (p *Protocol) observeSync(event obsv.SyncEvent, peer wire.NodeID, entries, bytes int) {
	if p.deps.Obs != nil {
		p.deps.Obs.OnSync(p.deps.Clock.Now(), p.deps.ID, peer, event, entries, bytes)
	}
}

// Catch-up sync pacing and bounds.
const (
	// syncMaxEntries caps the entries in one SYNC-RESP. A full batch signals
	// the requester that more may remain, so it issues another round.
	syncMaxEntries = 64
	// syncRetryDelay is the delay before the first SYNC-REQ after rejoin and
	// between successive rounds.
	syncRetryDelay = 1 * time.Second
	// syncMaxAttempts caps fruitless catch-up rounds (no response applied)
	// before the node abandons sync and falls back to plain gossip recovery.
	syncMaxAttempts = 5
)

// armCatchUp starts (or restarts) the catch-up sync loop. The first request
// waits one syncRetryDelay so the rejoiner hears a beacon round first and has
// admitted neighbours to ask.
func (p *Protocol) armCatchUp() {
	p.syncArmed = true
	p.syncAttempts = 0
	p.scheduleSyncStep()
}

func (p *Protocol) scheduleSyncStep() {
	p.deps.Clock.After(syncRetryDelay, func() {
		if p.stopped || !p.syncArmed {
			return
		}
		p.syncStep()
	})
}

// syncStep runs one catch-up round: pick a neighbour, send it a SYNC-REQ
// summarizing what we hold, and schedule the next round. Rounds that apply a
// full batch reset the attempt counter (progress); fruitless rounds count
// toward the syncMaxAttempts cap, after which the node abandons catch-up and
// leaves recovery to plain gossip.
func (p *Protocol) syncStep() {
	if p.syncAttempts >= syncMaxAttempts {
		p.syncArmed = false
		p.stats.SyncAbandoned++
		p.observeSync(obsv.SyncAbandoned, wire.NoNode, 0, 0)
		return
	}
	p.syncAttempts++
	target := p.syncTarget()
	if target == wire.NoNode {
		// No admitted neighbour yet (the rejoiner is still being debounced);
		// the next round retries.
		p.scheduleSyncStep()
		return
	}
	// The frame owns its summary: a fresh copy, never the scratch.
	p.msgIDs = sortedMsgIDs(p.msgIDs, p.store.byID)
	have := slices.Clone(p.msgIDs[:min(len(p.msgIDs), maxSyncHave)])
	pkt := wire.Packet{
		Kind:   wire.KindSyncReq,
		TTL:    1,
		Target: target,
		Origin: wire.NoNode,
		Sync:   &wire.SyncBody{Have: have},
		Meta:   wire.Meta{Cause: wire.CauseSyncReq},
	}
	p.stats.SyncReqsSent++
	p.observeSync(obsv.SyncReqSent, target, len(have), 8*len(have))
	p.send(pkt)
	p.scheduleSyncStep()
}

// syncTarget picks the lowest-id admitted neighbour that is not directly
// suspected. Lowest-id (not random) keeps the packet schedule independent of
// map iteration order; if that neighbour stonewalls, the attempt cap bounds
// the damage and gossip recovery still proceeds underneath.
func (p *Protocol) syncTarget() wire.NodeID {
	best := wire.NoNode
	//bbvet:unordered min-scan: the selected id is the order-independent minimum
	for id, nb := range p.neighbors {
		if !nb.admitted() || id >= best {
			continue
		}
		if p.cfg.EnableFDs {
			if _, suspected := p.trust.Reason(id); suspected {
				continue
			}
		}
		best = id
	}
	return best
}

// handleSyncReq serves one catch-up request: every held, unpurged message
// absent from the requester's summary, sorted, capped at syncMaxEntries per
// response. Service is metered through the requester's admission bucket; a
// requester without the tokens for the batch is dropped (it retries after its
// bucket refills). An empty response is still sent — it tells the requester
// it is caught up.
func (p *Protocol) handleSyncReq(pkt admitted) {
	if pkt.Target != p.deps.ID {
		return
	}
	if p.cfg.EnableFDs && p.verbose.Suspected(pkt.Sender) {
		return // §3.1: no reaction amplification for verbose spammers
	}
	have := make(map[wire.MsgID]bool, len(pkt.SyncHave()))
	for _, id := range pkt.SyncHave() {
		have[id] = true
	}
	var entries []wire.SyncEntry
	p.msgIDs = sortedMsgIDs(p.msgIDs, p.store.byID)
	for _, id := range p.msgIDs {
		st := p.store.byID[id]
		if st.purged || have[id] || st.dataSig == nil {
			continue
		}
		entries = append(entries, wire.SyncEntry{
			ID:        id,
			Payload:   st.payload,
			Sig:       st.dataSig,
			HeaderSig: p.headerProof(st),
		})
		if len(entries) >= syncMaxEntries {
			break
		}
	}
	nbytes := 4
	for i := range entries {
		nbytes += 20 + len(entries[i].Payload) + len(entries[i].Sig) + len(entries[i].HeaderSig)
	}
	if nb := p.neighbors[pkt.Sender]; nb != nil && p.cfg.AdmitRate > 0 && len(entries) > 0 {
		cost := float64(len(entries)) / syncEntriesPerToken
		if nb.tokens < cost {
			// Not enough budget for the batch: shed the request whole rather
			// than truncate — a short response means "caught up" to the
			// requester, and a token shortage must not fake that signal.
			p.stats.RateLimited++
			p.observeAdmission(obsv.AdmitRateLimit)
			return
		}
		nb.tokens -= cost
	}
	p.stats.SyncEntriesServed += uint64(len(entries))
	p.observeSync(obsv.SyncServed, pkt.Sender, len(entries), nbytes)
	p.send(wire.Packet{
		Kind:   wire.KindSyncResp,
		TTL:    1,
		Target: pkt.Sender,
		Origin: wire.NoNode,
		Sync:   &wire.SyncBody{Entries: entries},
		Meta:   wire.Meta{Parent: pkt.Meta.Frame, Cause: wire.CauseSyncResp},
	})
}

// handleSyncResp applies one catch-up response: each entry is
// signature-verified against its originator and accepted exactly like a
// recovered data frame, except it is not re-forwarded (the network already
// disseminated it; only this node was behind). A full batch means more may
// remain, so the attempt counter resets and the next round continues; a short
// batch means the serving neighbour had nothing else — caught up.
func (p *Protocol) handleSyncResp(pkt admitted) {
	if pkt.Target != p.deps.ID || !p.syncArmed {
		return
	}
	batch := pkt.SyncEntries()
	applied := 0
	for i := range batch {
		e := batch[i]
		held, seen := p.lookupMsg(e.ID)
		if held != nil {
			continue // held or tombstoned: already delivered
		}
		if !p.verifyData(seen, e.ID, e.Payload, e.Sig) {
			p.stats.BadSignatures++
			p.suspect(pkt.Sender, fd.ReasonBadSignature)
			break // poisoned batch: discard the rest
		}
		st := p.store.entries.New()
		*st = msgState{
			id:       e.ID,
			payload:  e.Payload,
			dataSig:  e.Sig,
			viaFrame: pkt.Meta.Frame,
			flags:    viaRecovered,
			digest:   wire.Digest(e.Payload),
		}
		// Unicast: the neighbourhood did not overhear it, so deferred
		// replies for the id stay armed.
		miss := p.accept(st, wire.Meta{Frame: pkt.Meta.Frame, Cause: wire.CauseSyncResp, Recovered: true})
		// The header signature is the gossip proof. A gossip round that
		// advertised the gap already proved one; otherwise the entry's is
		// held unchecked and verified where it would leave the node
		// (headerProof), so a corrupt one is never re-advertised under our
		// name. The payload above proved itself independently.
		if miss != nil {
			p.registerGossip(st, miss.headerSig)
		} else {
			p.offerProof(st, e.HeaderSig, pkt.Sender)
		}
		applied++
	}
	p.observeSync(obsv.SyncApplied, pkt.Sender, applied, 0)
	p.stats.SyncEntriesApplied += uint64(applied)
	switch {
	case len(batch) >= syncMaxEntries && applied > 0:
		p.syncAttempts = 0 // full batch applied: likely more remains
	case len(batch) < syncMaxEntries:
		p.syncArmed = false // short batch: the neighbour had nothing else
	}
}

// Synced reports whether catch-up sync is idle (never armed, completed, or
// abandoned).
func (p *Protocol) Synced() bool { return !p.syncArmed }
