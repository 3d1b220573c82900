// Package core poses as bbcast/internal/core with one violation of each
// ordered-ingress rule, proving the pass still fires.
package core

import (
	"bbcast/internal/sig"
	"bbcast/internal/wire"
)

type neighbor struct {
	tokens   int
	stateSig []byte
}

type Protocol struct {
	scheme    sig.Scheme
	store     map[uint64]bool
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

// HandlePacket pays for a verify before shedding over-budget senders.
func (p *Protocol) HandlePacket(pkt *wire.Packet) {
	if !p.verify(pkt.Sender, pkt.Payload, pkt.Sig) { // want `Protocol\.HandlePacket reaches crypto .* before the admit admission guard`
		return
	}
	if !p.admit(p.neighbors[pkt.Sender]) {
		return
	}
	p.handleData(pkt)
	p.handleRequest(pkt)
	p.handleFindMissing(pkt)
	p.handleState(pkt)
}

// handleData verifies before consulting the store.
func (p *Protocol) handleData(pkt *wire.Packet) {
	if !p.verify(pkt.Sender, pkt.Payload, pkt.Sig) { // want `Protocol\.handleData reaches crypto .* before consulting the store dedup table`
		return
	}
	if p.store[pkt.ID] {
		return
	}
	p.store[pkt.ID] = true
}

// handleGossip consults store but never missing before verifying.
func (p *Protocol) handleGossip(pkt *wire.Packet) {
	if p.store[pkt.ID] {
		return
	}
	if !p.verify(pkt.Sender, pkt.Payload, pkt.Sig) { // want `Protocol\.handleGossip reaches crypto .* before consulting the missing dedup table`
		return
	}
	p.missing[pkt.ID] = true
}

// handleSyncResp is clean: dedup precedes the verify.
func (p *Protocol) handleSyncResp(pkt *wire.Packet) {
	if p.store[pkt.ID] {
		return
	}
	if !p.verify(pkt.Sender, pkt.Payload, pkt.Sig) {
		return
	}
	p.store[pkt.ID] = true
}

// checkedLookup indexes both tables but verifies on its own: calling it says
// nothing about the caller's order, so it does not count as a consult.
func (p *Protocol) checkedLookup(pkt *wire.Packet) bool {
	return p.store[pkt.ID] || p.missing[pkt.ID] || p.verify(pkt.Sender, pkt.Payload, pkt.Sig)
}

// handleRequest verifies before either lookup.
func (p *Protocol) handleRequest(pkt *wire.Packet) {
	if !p.verify(pkt.Sender, pkt.Payload, pkt.Sig) { // want `Protocol\.handleRequest reaches crypto .* before consulting the store dedup table` `Protocol\.handleRequest reaches crypto .* before consulting the missing dedup table`
		return
	}
	if p.store[pkt.ID] || p.missing[pkt.ID] {
		return
	}
}

// handleFindMissing hides its lookups behind a helper that reaches crypto.
func (p *Protocol) handleFindMissing(pkt *wire.Packet) {
	if !p.checkedLookup(pkt) { // want `Protocol\.handleFindMissing reaches crypto .* before consulting the store dedup table` `Protocol\.handleFindMissing reaches crypto .* before consulting the missing dedup table`
		return
	}
}

// handleState looks the sender up only after paying for the verify.
func (p *Protocol) handleState(pkt *wire.Packet) {
	if !p.verify(pkt.Sender, pkt.Payload, pkt.Sig) { // want `Protocol\.handleState reaches crypto .* before consulting the neighbors dedup table`
		return
	}
	p.neighbors[pkt.Sender].stateSig = pkt.Sig
}
