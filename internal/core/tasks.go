package core

import (
	"bytes"
	"slices"
	"time"

	"bbcast/internal/fd"
	"bbcast/internal/obsv"
	"bbcast/internal/overlay"
	"bbcast/internal/wire"
)

// gossipTick is the periodic lazycast (§3.2 line 4, §3.2.2 subtask 1): it
// re-advertises the header signatures of recently received messages,
// aggregated into as few packets as possible, optionally piggybacking the
// overlay-state record.
func (p *Protocol) gossipTick() {
	// The store keeps the recently received held entries in id order, so the
	// tick walks its candidates without touching the rest of the table.
	entries := p.gossipEntries[:0]
	for _, st := range p.store.recent(p.deps.Clock.Now(), p.cfg.GossipRetention) {
		proof := p.headerProof(st)
		if proof == nil {
			continue // another origin's data, held without its gossip proof
		}
		entries = append(entries, wire.GossipEntry{ID: st.id, Sig: proof})
		if p.cfg.GossipMaxEntries > 0 && len(entries) >= p.cfg.GossipMaxEntries {
			break
		}
	}
	p.gossipEntries = entries
	// The frame owns its entries from here on (receivers may retain them), so
	// it gets an exact-size copy, never the scratch.
	p.sendGossipWithState(slices.Clone(entries))
}

// headerProof returns st's gossip proof, the origin's signature over its
// header. A node signs the headers of its own messages here, when one is
// first advertised or served, not at Broadcast: that keeps a signature off
// the origin's latency path, and nobody can hold the proof before this node
// hands it out. It returns nil for another origin's message held without one.
func (p *Protocol) headerProof(st *msgState) []byte {
	if st.headerSig == nil && st.id.Origin == p.deps.ID {
		st.headerSig = p.signHeader(st.id)
	}
	return st.headerSig
}

// sendGossipWithState emits the gossip (even when empty, if a state record
// is due to ride on it) and attaches the overlay state when piggybacking.
func (p *Protocol) sendGossipWithState(entries []wire.GossipEntry) {
	var state *wire.OverlayState
	var stateSig []byte
	if p.cfg.PiggybackState {
		state, stateSig = p.buildState()
	}
	if len(entries) == 0 && state == nil {
		return
	}
	if !p.cfg.GossipAggregation && len(entries) > 1 {
		// Ablation: one advertisement per packet (state on the first).
		for i, e := range entries {
			pkt := &wire.Packet{
				Kind:   wire.KindGossip,
				TTL:    1,
				Target: wire.NoNode,
				Origin: wire.NoNode,
				Gossip: []wire.GossipEntry{e},
				Meta:   wire.Meta{Cause: wire.CauseGossip},
			}
			if i == 0 {
				pkt.State = state
				pkt.StateSig = stateSig
			}
			p.stats.GossipsSent++
			p.send(pkt)
		}
		return
	}
	p.stats.GossipsSent++
	p.send(&wire.Packet{
		Kind:     wire.KindGossip,
		TTL:      1,
		Target:   wire.NoNode,
		Origin:   wire.NoNode,
		Gossip:   entries,
		State:    state,
		StateSig: stateSig,
		Meta:     wire.Meta{Cause: wire.CauseGossip},
	})
}

// registerGossip records the header signature so the periodic lazycast can
// advertise the message (the paper's lazycast "initiates periodic
// broadcasting" — registration, not an immediate transmission; §3.2 lines
// 20 and 36).
func (p *Protocol) registerGossip(id wire.MsgID, st *msgState, headerSig []byte) {
	if st.headerSig == nil {
		st.headerSig = headerSig
	}
}

// joinDamping is how many consecutive maintenance steps must agree before a
// node changes role (a dominator yielding to a higher one is exempt). Damping
// prevents role oscillation caused by the one-beacon delay in neighbour-state
// propagation.
const joinDamping = 2

// maintenanceTick is the overlay computation step (§3.3): refresh the
// neighbour table, recompute the local role, and publish the state record
// (as its own packet unless it piggybacks on gossip).
func (p *Protocol) maintenanceTick() {
	p.expireNeighbors()
	p.adaptTimers()
	view := p.buildView()
	next := p.maint.Decide(view)
	switch {
	case next == p.role:
		p.roleRun = 0
	case p.role == overlay.Dominator && overlay.SuppressedByHigherDominator(view):
		// MIS safety: two adjacent dominators violate independence, and the
		// lower one must yield at once or the conflict propagates.
		p.applyRole(next)
	default:
		// All other changes are damped: neighbour views lag by a beacon
		// period and marginal fringe links flap, so a transient verdict
		// must persist for joinDamping consecutive steps before the role
		// changes. Without damping, adjacent nodes step up in lockstep and
		// the overlay churns indefinitely.
		if next == p.roleCand {
			p.roleRun++
		} else {
			p.roleCand = next
			p.roleRun = 1
		}
		if p.roleRun >= joinDamping {
			p.applyRole(next)
		}
	}
	if !p.cfg.PiggybackState {
		state, stateSig := p.buildState()
		p.send(&wire.Packet{
			Kind:     wire.KindOverlayState,
			TTL:      1,
			Target:   wire.NoNode,
			Origin:   wire.NoNode,
			State:    state,
			StateSig: stateSig,
			Meta:     wire.Meta{Cause: wire.CauseState},
		})
	}
	p.sampleQueues()
}

// sampleQueues reports the protocol-internal queue depths once per
// maintenance tick (the paper's buffer-bound concern, §3.4.1, made visible).
func (p *Protocol) sampleQueues() {
	obs := p.deps.Obs
	if obs == nil {
		return
	}
	at, id := p.deps.Clock.Now(), p.deps.ID
	obs.OnQueueDepth(at, id, obsv.QueueStore, len(p.store.byID))
	obs.OnQueueDepth(at, id, obsv.QueueMissing, len(p.missing))
	obs.OnQueueDepth(at, id, obsv.QueueNeighbors, len(p.neighbors))
	obs.OnQueueDepth(at, id, obsv.QueueExpectations, p.mute.PendingExpectations())
	obs.OnQueueDepth(at, id, obsv.QueueReqSeen, len(p.reqSeen))
	obs.OnQueueDepth(at, id, obsv.QueueLinkQual, len(p.linkQual))
}

// purgeTick drops payloads past the retention window — or, with stability
// purging on, as soon as enough distinct neighbours have advertised the
// message — leaving tombstones so duplicates are still filtered (§3.2.2).
// Tombstones themselves are deleted once quiescent for StoreQuiescence, and
// request-count records expire after PurgeTimeout, so every table this task
// feeds shrinks back to zero under silence.
func (p *Protocol) purgeTick() {
	now := p.deps.Clock.Now()
	// The map walks below go in sorted id order: purging cancels timers and
	// emits admission events, and neither may happen in Go's randomized map
	// iteration order or serial and parallel replays of the same seed would
	// diverge.
	//
	// A message advertised but never received is abandoned once its
	// recovery window passes (everyone else will have purged it too).
	p.msgIDs = sortedMsgIDs(p.msgIDs, p.missing)
	for _, id := range p.msgIDs {
		miss := p.missing[id]
		if now-miss.firstHeard > p.cfg.PurgeTimeout {
			for _, cancel := range miss.cancels {
				cancel()
			}
			delete(p.missing, id)
		}
	}
	// The store's lists are oldest-first, so each walk below stops at the
	// first entry still inside its window. Quiescence GC: a tombstone that has
	// outlived its duplicate-filter window is dropped outright. The price is
	// that a ≥quiescence-old replay is accepted (and re-delivered locally) once
	// more — benign for agreement, and the metrics layer is idempotent per
	// (id, node).
	if q := p.cfg.StoreQuiescence; q > 0 {
		for st := p.store.tombs.head; st != nil && now-st.at > q; st = p.store.tombs.head {
			p.store.remove(st)
			p.observeAdmission(obsv.AdmitStoreEvict)
		}
	}
	for st := p.store.held.head; st != nil; {
		next, age := st.next, now-st.at
		if age > p.cfg.PurgeTimeout || p.cfg.StabilityPurge && p.stable(st, age) {
			p.store.entomb(st, now)
			delete(p.reqSeen, st.id)
		} else if !p.cfg.StabilityPurge {
			break
		}
		// Stability is unrelated to age, so that mode visits every held entry;
		// unlinking one mid-list costs the same as at the head.
		st = next
	}
	if ttl := p.cfg.PurgeTimeout; ttl > 0 {
		p.msgIDs = sortedMsgIDs(p.msgIDs, p.reqSeen)
		for _, id := range p.msgIDs {
			if now-p.reqSeen[id].touched > ttl {
				delete(p.reqSeen, id)
				p.observeAdmission(obsv.AdmitReqSeenExpire)
			}
		}
	}
}

// sortedMsgIDs overwrites buf with m's keys in ascending (origin, seq) order
// and returns it, for table walks whose bodies emit events or touch timers.
// Callers pass p.msgIDs and finish their walk before the next one starts.
func sortedMsgIDs[V any](buf []wire.MsgID, m map[wire.MsgID]V) []wire.MsgID {
	buf = buf[:0]
	for id := range m {
		buf = append(buf, id)
	}
	slices.SortFunc(buf, wire.MsgID.Compare)
	return buf
}

// stable reports whether enough distinct neighbours advertised the message
// for it to be safely dropped early.
func (p *Protocol) stable(st *msgState, age time.Duration) bool {
	if age < 2*p.cfg.GossipInterval {
		return false
	}
	return st.holders != nil && len(*st.holders) >= max(3, len(p.neighbors)/2)
}

func (p *Protocol) touchNeighbor(id wire.NodeID) *neighborState {
	now := p.deps.Clock.Now()
	nb := p.neighbors[id]
	if nb == nil {
		p.enforceNeighborCap()
		i, _ := slices.BinarySearch(p.nodeIDs, id)
		p.nodeIDs = slices.Insert(p.nodeIDs, i, id)
		// A new sender starts with a full token bucket so short bursts from
		// legitimate newcomers are never shed.
		burst := p.cfg.AdmitBurst
		if burst <= 0 {
			burst = 2 * p.cfg.AdmitRate
		}
		nb = &neighborState{tokens: burst, lastRefill: now}
		p.neighbors[id] = nb
	}
	nb.lastHeard = now
	if nb.hits < 1<<30 {
		nb.hits++
	}
	return nb
}

func (p *Protocol) expireNeighbors() {
	if p.cfg.NeighborTTL <= 0 {
		return
	}
	now := p.deps.Clock.Now()
	kept := p.nodeIDs[:0]
	for _, id := range p.nodeIDs {
		if now-p.neighbors[id].lastHeard > p.cfg.NeighborTTL {
			delete(p.neighbors, id)
			delete(p.linkQual, id)
		} else {
			kept = append(kept, id)
		}
	}
	p.nodeIDs = kept
}

// handleState processes a neighbour's (signed) overlay-state record and its
// second-hand suspicion reports. A neighbour republishes an unchanged record
// every period, so a copy whose signature and record both equal what this
// sender's entry already verified is taken as verified: the same record
// (pointer-equal on the simulator's shared frames, field-equal on decoded
// ones) under the same signature from the same signer. Signature equality
// alone proves nothing, the comparison never crosses senders, and a failed
// verification is never remembered.
func (p *Protocol) handleState(from wire.NodeID, state *wire.OverlayState, stateSig []byte) {
	nb := p.neighbors[from]
	if nb != nil && nb.state != nil && bytes.Equal(stateSig, nb.stateSig) &&
		(state == nb.state || sameState(state, nb.state)) {
		p.noteDedupSkip()
	} else if !p.verifyState(from, state, stateSig) {
		p.stats.BadSignatures++
		p.suspect(from, fd.ReasonBadSignature)
		return
	}
	if nb == nil {
		// handleState is only reached through HandlePacket, which already
		// created the entry via touchNeighbor; this branch guards direct
		// callers (tests) only.
		nb = p.touchNeighbor(from)
	}
	nb.lastHeard = p.deps.Clock.Now()
	nb.state = state
	nb.stateSig = stateSig
	if p.cfg.EnableFDs {
		for _, s := range state.Suspects {
			if s != p.deps.ID {
				p.trust.Report(from, s)
			}
		}
	}
}

// buildView assembles the maintainer's input from the neighbour table and
// the TRUST detector. The view borrows protocol scratch: it is valid until
// the next buildView and must not be retained.
func (p *Protocol) buildView() overlay.View {
	v := overlay.View{Self: p.deps.ID, SelfRole: p.role, Distrusts: p.distrusts}
	infos := p.viewInfos[:0]
	for _, id := range p.nodeIDs {
		nb := p.neighbors[id]
		if !nb.admitted() {
			continue
		}
		info := overlay.NeighborInfo{
			ID:    id,
			Role:  overlay.Passive,
			Level: p.level(id),
		}
		if nb.state != nil {
			switch {
			case nb.state.Dominator:
				info.Role = overlay.Dominator
			case nb.state.Active:
				info.Role = overlay.Bridge
			}
			info.Neighbors = nb.state.Neighbors
			info.ActiveNeighbors = nb.state.ActiveNeighbors
			info.DominatorNeighbors = nb.state.DominatorNeighbors
		}
		infos = append(infos, info)
	}
	p.viewInfos = infos
	v.Neighbors = infos
	return v
}

// level returns the local trust level for id (Trusted when detectors are
// disabled).
func (p *Protocol) level(id wire.NodeID) fd.Level {
	if !p.cfg.EnableFDs {
		return fd.Trusted
	}
	return p.trust.Level(id)
}

// buildState produces the maintenance record the node publishes and its
// signature. Published records are immutable — in-flight frames carry them and
// receivers keep them as nb.state — so the record is assembled in
// p.stateScratch and a fresh one is allocated, and signed, only when it
// differs from the last one published; an unchanged neighbourhood republishes
// the same record under the same signature.
func (p *Protocol) buildState() (*wire.OverlayState, []byte) {
	st := &p.stateScratch
	st.Active = p.role.Active()
	st.Dominator = p.role == overlay.Dominator
	st.Neighbors = st.Neighbors[:0]
	st.ActiveNeighbors = st.ActiveNeighbors[:0]
	st.DominatorNeighbors = st.DominatorNeighbors[:0]
	st.Suspects = st.Suspects[:0]
	for _, id := range p.nodeIDs {
		nb := p.neighbors[id]
		if !nb.admitted() {
			continue
		}
		st.Neighbors = append(st.Neighbors, id)
		if nb.state != nil && nb.state.Active && p.level(id) != fd.Untrusted {
			st.ActiveNeighbors = append(st.ActiveNeighbors, id)
			if nb.state.Dominator {
				st.DominatorNeighbors = append(st.DominatorNeighbors, id)
			}
		}
	}
	if p.cfg.EnableFDs {
		st.Suspects = p.trust.AppendSuspects(st.Suspects)
	}
	if p.published == nil || !sameState(p.published, st) {
		p.published = st.Clone()
		p.sigBuf = wire.AppendStateSigBytes(p.sigBuf[:0], p.deps.ID, p.published)
		p.publishedSig = p.deps.Scheme.Sign(uint32(p.deps.ID), p.sigBuf)
	}
	return p.published, p.publishedSig
}

func sameState(a, b *wire.OverlayState) bool {
	return a.Active == b.Active && a.Dominator == b.Dominator &&
		slices.Equal(a.Neighbors, b.Neighbors) &&
		slices.Equal(a.ActiveNeighbors, b.ActiveNeighbors) &&
		slices.Equal(a.DominatorNeighbors, b.DominatorNeighbors) &&
		slices.Equal(a.Suspects, b.Suspects)
}

// isOverlayNeighbor reports whether id is a usable overlay neighbour
// (OL(1,p) membership).
func (p *Protocol) isOverlayNeighbor(id wire.NodeID) bool {
	nb := p.neighbors[id]
	return nb != nil && nb.admitted() && nb.state != nil && nb.state.Active && p.level(id) != fd.Untrusted
}

// overlayNeighbors returns OL(1,p): the usable overlay neighbours, sorted.
// The result borrows protocol scratch and is valid until the next call.
func (p *Protocol) overlayNeighbors() []wire.NodeID {
	// Sorted iteration, not sort-after-filter: level() folds expired
	// suspicions lazily and can emit raise/clear transitions, so the filter
	// itself must run in id order.
	out := p.overlayIDs[:0]
	for _, id := range p.nodeIDs {
		nb := p.neighbors[id]
		if nb.admitted() && nb.state != nil && nb.state.Active && p.level(id) != fd.Untrusted {
			out = append(out, id)
		}
	}
	p.overlayIDs = out
	return out
}

// applyRole commits a role change.
func (p *Protocol) applyRole(next overlay.Role) {
	p.role = next
	p.roleRun = 0
	p.roleChanges++
	if p.deps.Obs != nil {
		p.deps.Obs.OnRoleChange(p.deps.Clock.Now(), p.deps.ID, next)
	}
}

// RoleChanges reports how many times the node's role changed (a measure of
// overlay churn).
func (p *Protocol) RoleChanges() uint64 { return p.roleChanges }
