// Package baseline implements the two comparison protocols of the paper's
// evaluation: plain flooding (§1, [45]) and f+1 node-disjoint overlays
// (§1, [15, 34, 36]). Both use the same signatures, wire format, MAC and
// radio as the main protocol so measured differences come from the
// dissemination strategy alone.
package baseline

import (
	"bbcast/internal/core"
	"bbcast/internal/wire"
)

// Flooding is the classic broadcast: the originator transmits, and every
// node re-transmits the first valid copy of each message it receives.
type Flooding struct {
	deps core.Deps
	seq  wire.Seq
	seen map[wire.MsgID]bool

	stats core.Stats
}

// NewFlooding builds a flooding instance.
func NewFlooding(deps core.Deps) *Flooding {
	return &Flooding{deps: deps, seen: make(map[wire.MsgID]bool)}
}

// Stop is a no-op (flooding has no periodic tasks); it exists for interface
// symmetry with the main protocol.
func (f *Flooding) Stop() {}

// Stats returns protocol counters.
func (f *Flooding) Stats() core.Stats { return f.stats }

// Broadcast originates a message and returns its id.
func (f *Flooding) Broadcast(payload []byte) wire.MsgID {
	f.seq++
	id := wire.MsgID{Origin: f.deps.ID, Seq: f.seq}
	body := make([]byte, len(payload))
	copy(body, payload)
	f.seen[id] = true
	digest := wire.Digest(body)
	f.deps.Send(&wire.Packet{
		Kind:    wire.KindData,
		Sender:  f.deps.ID,
		TTL:     1,
		Target:  wire.NoNode,
		Origin:  id.Origin,
		Seq:     id.Seq,
		Payload: body,
		Sig:     f.deps.Scheme.Sign(uint32(f.deps.ID), wire.DataSigBytes(id, body)),
		Meta:    wire.Meta{Hops: 1, Cause: wire.CauseOrigin, Digest: digest},
	})
	if f.deps.Deliver != nil {
		f.stats.Accepted++
		f.deps.Accept(id, body, wire.Meta{Cause: wire.CauseOrigin, Digest: digest})
	}
	return id
}

// HandlePacket processes a received frame: verify, deliver once, re-flood.
func (f *Flooding) HandlePacket(pkt *wire.Packet) {
	if pkt.Sender == f.deps.ID {
		return
	}
	f.deps.ObserveRx(pkt)
	if pkt.Kind != wire.KindData {
		return
	}
	id := pkt.ID()
	if f.seen[id] {
		f.stats.Duplicates++
		f.deps.ObserveSuppressed(id, pkt.Meta)
		return
	}
	if !f.deps.Scheme.Verify(uint32(id.Origin), wire.DataSigBytes(id, pkt.Payload), pkt.Sig) {
		f.stats.BadSignatures++
		return
	}
	f.seen[id] = true
	f.stats.Accepted++
	f.deps.Accept(id, pkt.Payload, pkt.Meta)
	f.stats.Forwarded++
	fwd := pkt.Clone()
	fwd.Sender = f.deps.ID
	fwd.Meta = wire.Meta{
		Parent:    pkt.Meta.Frame,
		Hops:      pkt.Meta.Hops + 1,
		Cause:     wire.CauseOriginRelay,
		Digest:    pkt.Meta.Digest,
		Recovered: pkt.Meta.Recovered,
	}
	f.deps.Send(fwd)
}
