// Package core poses as bbcast/internal/core with a contract-conforming
// ingress path: admission gates the dispatch, every table handler consults
// its dedup map first (directly, or through the crypto-free lookup helper
// knownHeaderSig), and the one extra verify-bearing entry point carries
// either a want (rule 3) or a reviewed exception.
package core

import (
	"bbcast/internal/sig"
	"bbcast/internal/wire"
)

type neighbor struct {
	tokens   int
	stateSig []byte
}

// msgStore mirrors the real store: the dedup table is a field of the store
// field, and indexing it counts as consulting "store".
type msgStore struct{ byID map[uint64]bool }

type Protocol struct {
	scheme    sig.Scheme
	store     msgStore
	missing   map[uint64]bool
	neighbors map[uint32]*neighbor
}

func (p *Protocol) admit(nb *neighbor) bool {
	if nb == nil || nb.tokens <= 0 {
		return false
	}
	nb.tokens--
	return true
}

func (p *Protocol) verify(id uint32, msg, tag []byte) bool {
	return p.scheme.Verify(id, msg, tag)
}

func (p *Protocol) HandlePacket(pkt *wire.Packet) {
	nb := p.neighbors[pkt.Sender]
	if !p.admit(nb) {
		return
	}
	switch pkt.Kind {
	case 1:
		p.handleData(pkt)
	case 2:
		p.handleGossip(pkt)
	case 3:
		p.handleSyncResp(pkt)
	case 4:
		p.handleRequest(pkt)
	case 5:
		p.handleFindMissing(pkt)
	case 6:
		p.handleState(pkt)
	}
}

// knownHeaderSig is the lookup helper: it indexes both tables and reaches no
// crypto, so a call to it counts as consulting them.
func (p *Protocol) knownHeaderSig(id uint64) bool {
	return p.store.byID[id] || p.missing[id]
}

func (p *Protocol) handleData(pkt *wire.Packet) {
	if p.store.byID[pkt.ID] {
		return
	}
	if !p.verify(pkt.Sender, pkt.Payload, pkt.Sig) {
		return
	}
	p.store.byID[pkt.ID] = true
}

func (p *Protocol) handleGossip(pkt *wire.Packet) {
	if p.store.byID[pkt.ID] || p.missing[pkt.ID] {
		return
	}
	if !p.verify(pkt.Sender, pkt.Payload, pkt.Sig) {
		return
	}
	p.missing[pkt.ID] = true
}

func (p *Protocol) handleSyncResp(pkt *wire.Packet) {
	if p.store.byID[pkt.ID] {
		return
	}
	if !p.verify(pkt.Sender, pkt.Payload, pkt.Sig) {
		return
	}
	p.store.byID[pkt.ID] = true
}

// handleRequest consults both tables through the helper.
func (p *Protocol) handleRequest(pkt *wire.Packet) {
	if p.knownHeaderSig(pkt.ID) {
		return
	}
	if !p.verify(pkt.Sender, pkt.Payload, pkt.Sig) {
		return
	}
}

func (p *Protocol) handleFindMissing(pkt *wire.Packet) {
	if !p.knownHeaderSig(pkt.ID) && !p.verify(pkt.Sender, pkt.Payload, pkt.Sig) {
		return
	}
}

// handleState compares against the sender's own entry before verifying.
func (p *Protocol) handleState(pkt *wire.Packet) {
	nb := p.neighbors[pkt.Sender]
	if nb != nil && string(nb.stateSig) == string(pkt.Sig) {
		return
	}
	if !p.verify(pkt.Sender, pkt.Payload, pkt.Sig) {
		return
	}
	nb.stateSig = pkt.Sig
}

// Inject is a second verify-bearing packet entry point: rule 3 flags it.
func (p *Protocol) Inject(pkt *wire.Packet) {
	if !p.verify(pkt.Sender, pkt.Payload, pkt.Sig) { // want `exported packet entry point Protocol\.Inject reaches crypto`
		return
	}
	p.store.byID[pkt.ID] = true
}

// Preverify carries a reviewed exception, so rule 3 stays quiet.
func (p *Protocol) Preverify(pkt *wire.Packet) bool {
	//bbvet:ordering fixture: diagnostic probe, not an ingress path
	return p.verify(pkt.Sender, pkt.Payload, pkt.Sig)
}

// A reviewed exception must say why: the bare escape below is reported even
// when ordering runs without the other analyzers.
/* want `//bbvet:ordering needs a justification` */ //bbvet:ordering
