// Package core omits one table handler and renames another so the drift check
// fires: renaming an ingress function must break the build, not silently
// prove nothing.
package core // want `ordering table drift: Protocol\.handleSyncResp not found` `ordering table drift: Protocol\.handleState not found`

import "bbcast/internal/wire"

type Protocol struct{ store map[uint64]bool }

func (p *Protocol) HandlePacket(pkt *wire.Packet) {
	p.handleData(pkt)
	p.handleGossip(pkt)
	p.handleRequest(pkt)
	p.handleFindMissing(pkt)
	p.handleOverlayState(pkt)
}

func (p *Protocol) handleData(pkt *wire.Packet)         { p.store[pkt.ID] = true }
func (p *Protocol) handleGossip(pkt *wire.Packet)       { p.store[pkt.ID] = true }
func (p *Protocol) handleRequest(pkt *wire.Packet)      { p.store[pkt.ID] = true }
func (p *Protocol) handleFindMissing(pkt *wire.Packet)  { p.store[pkt.ID] = true }
func (p *Protocol) handleOverlayState(pkt *wire.Packet) { p.store[pkt.ID] = true }
