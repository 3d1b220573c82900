package baseline

import (
	"sort"

	"bbcast/internal/core"
	"bbcast/internal/wire"
)

// FPlusOne implements the f+1 node-independent-overlays approach the paper
// compares against (§1, [15]): to tolerate up to f Byzantine nodes, maintain
// f+1 node-disjoint overlays and flood every message along each of them, so
// at least one overlay is entirely correct. The price is that every message
// costs f+1 overlay floods even in failure-free runs — the overhead the
// paper's protocol eliminates.
//
// The message copy for overlay c carries c as its first payload byte, signed
// by the originator, so copies are individually authenticated and receivers
// know which overlay should relay each copy.
type FPlusOne struct {
	deps core.Deps
	f    int
	// member[c] reports whether this node relays on overlay c.
	member []bool

	seq       wire.Seq
	seen      map[wire.MsgID]bool
	forwarded map[chanMsg]bool

	stats core.Stats
}

type chanMsg struct {
	id wire.MsgID
	c  uint8
}

// NewFPlusOne builds an instance for a node that is a member of the given
// overlays (indices in [0, f]).
func NewFPlusOne(deps core.Deps, f int, memberOf []int) *FPlusOne {
	p := &FPlusOne{
		deps:      deps,
		f:         f,
		member:    make([]bool, f+1),
		seen:      make(map[wire.MsgID]bool),
		forwarded: make(map[chanMsg]bool),
	}
	for _, c := range memberOf {
		if c >= 0 && c <= f {
			p.member[c] = true
		}
	}
	return p
}

// Stop is a no-op, for interface symmetry.
func (p *FPlusOne) Stop() {}

// Stats returns protocol counters.
func (p *FPlusOne) Stats() core.Stats { return p.stats }

// Broadcast originates a message: one signed copy per overlay.
func (p *FPlusOne) Broadcast(payload []byte) wire.MsgID {
	p.seq++
	id := wire.MsgID{Origin: p.deps.ID, Seq: p.seq}
	p.seen[id] = true
	for c := 0; c <= p.f; c++ {
		body := make([]byte, 0, len(payload)+1)
		body = append(body, byte(c))
		body = append(body, payload...)
		p.deps.Send(&wire.Packet{
			Kind:    wire.KindData,
			Sender:  p.deps.ID,
			TTL:     1,
			Target:  wire.NoNode,
			Origin:  id.Origin,
			Seq:     id.Seq,
			Payload: body,
			Sig:     p.deps.Scheme.Sign(uint32(p.deps.ID), wire.DataSigBytes(id, body)),
			Meta:    wire.Meta{Hops: 1, Cause: wire.CauseOrigin, Digest: wire.Digest(body)},
		})
	}
	if p.deps.Deliver != nil {
		p.stats.Accepted++
		p.deps.Accept(id, payload, wire.Meta{Cause: wire.CauseOrigin, Digest: wire.Digest(payload)})
	}
	return id
}

// HandlePacket verifies a copy, delivers the message once, and relays the
// copy if this node serves its overlay.
func (p *FPlusOne) HandlePacket(pkt *wire.Packet) {
	if pkt.Sender == p.deps.ID {
		return
	}
	p.deps.ObserveRx(pkt)
	if pkt.Kind != wire.KindData || len(pkt.Payload) < 1 {
		return
	}
	id := pkt.ID()
	if !p.deps.Scheme.Verify(uint32(id.Origin), wire.DataSigBytes(id, pkt.Payload), pkt.Sig) {
		p.stats.BadSignatures++
		return
	}
	c := pkt.Payload[0]
	if int(c) > p.f {
		return
	}
	if !p.seen[id] {
		p.seen[id] = true
		p.stats.Accepted++
		p.deps.Accept(id, pkt.Payload[1:], pkt.Meta)
	} else {
		p.stats.Duplicates++
		p.deps.ObserveSuppressed(id, pkt.Meta)
	}
	key := chanMsg{id: id, c: c}
	if p.member[c] && !p.forwarded[key] {
		p.forwarded[key] = true
		p.stats.Forwarded++
		fwd := pkt.Clone()
		fwd.Sender = p.deps.ID
		fwd.Meta = wire.Meta{
			Parent:    pkt.Meta.Frame,
			Hops:      pkt.Meta.Hops + 1,
			Cause:     wire.CauseOriginRelay,
			Digest:    pkt.Meta.Digest,
			Recovered: pkt.Meta.Recovered,
		}
		p.deps.Send(fwd)
	}
}

// DisjointOverlays greedily partitions relays into f+1 node-disjoint
// connected dominating sets over the ground-truth adjacency (indexed by
// node id 0..n-1). Overlay construction is a setup-time, global-knowledge
// operation for this baseline, mirroring how [15]-style systems precompute
// their overlays. When the remaining nodes cannot dominate the graph, the
// overlay falls back to all remaining nodes (degenerate but functional).
//
// The originator of a message always transmits regardless of membership, so
// overlays only need to cover relaying.
func DisjointOverlays(adj [][]bool, f int) [][]int {
	n := len(adj)
	used := make([]bool, n)
	out := make([][]int, 0, f+1)
	for c := 0; c <= f; c++ {
		cds := greedyCDS(adj, used)
		if cds == nil {
			// Fallback: everything not yet used.
			for i := 0; i < n; i++ {
				if !used[i] {
					cds = append(cds, i)
				}
			}
		}
		for _, v := range cds {
			used[v] = true
		}
		sort.Ints(cds)
		out = append(out, cds)
	}
	return out
}

// greedyCDS grows a connected dominating set from allowed (unused) nodes:
// start at the allowed node with the largest closed neighbourhood, then
// repeatedly add the allowed node adjacent to the current set that covers
// the most uncovered nodes. Returns nil if the allowed nodes cannot
// dominate the graph.
func greedyCDS(adj [][]bool, used []bool) []int {
	n := len(adj)
	if n == 0 {
		return nil
	}
	covered := make([]bool, n)
	inSet := make([]bool, n)
	newCover := func(v int) int {
		cnt := 0
		if !covered[v] {
			cnt++
		}
		for u := 0; u < n; u++ {
			if adj[v][u] && !covered[u] {
				cnt++
			}
		}
		return cnt
	}
	addToSet := func(v int) {
		inSet[v] = true
		covered[v] = true
		for u := 0; u < n; u++ {
			if adj[v][u] {
				covered[u] = true
			}
		}
	}
	allCovered := func() bool {
		for i := 0; i < n; i++ {
			if !covered[i] {
				return false
			}
		}
		return true
	}

	// Seed: allowed node with maximum coverage.
	best, bestCover := -1, 0
	for v := 0; v < n; v++ {
		if used[v] {
			continue
		}
		if c := newCover(v); c > bestCover {
			best, bestCover = v, c
		}
	}
	if best < 0 {
		return nil
	}
	set := []int{best}
	addToSet(best)

	for !allCovered() {
		cand, candCover := -1, 0
		for v := 0; v < n; v++ {
			if used[v] || inSet[v] {
				continue
			}
			// Must touch the current set to stay connected.
			touches := false
			for _, s := range set {
				if adj[v][s] {
					touches = true
					break
				}
			}
			if !touches {
				continue
			}
			if c := newCover(v); c > candCover {
				cand, candCover = v, c
			}
		}
		if cand < 0 {
			return nil // cannot extend: allowed nodes exhausted around the set
		}
		set = append(set, cand)
		addToSet(cand)
	}
	return set
}
