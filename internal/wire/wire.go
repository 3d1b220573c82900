// Package wire defines the on-air message format of the broadcast protocol
// and a compact hand-rolled binary codec for it.
//
// Every transmission is a Packet. A packet has a fixed header (kind,
// link-layer sender, TTL, optional addressed target, and the identifier of
// the data message it concerns) plus kind-specific content:
//
//   - Data: the application payload and the originator's signature.
//   - Gossip: a batch of GossipEntry records (aggregation of several
//     message advertisements into one packet, per §1 of the paper).
//   - Request / FindMissing: the advertised header and its originator
//     signature, proving the requested message exists.
//   - OverlayState: the overlay-maintenance record, signed by its sender.
//
// Any packet may piggyback an OverlayState record, which is how maintenance
// traffic rides on gossip packets (§3 "most overlay maintenance messages can
// be piggybacked on gossip messages"); it is the only way nodes here send it.
package wire

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
)

// NodeID identifies a device. IDs are unforgeable in the model (backed by
// signature keys).
type NodeID uint32

// NoNode is the sentinel "no target" value.
const NoNode NodeID = 0xFFFFFFFF

// Seq is a per-originator message sequence number.
type Seq uint32

// MsgID uniquely identifies an application message by originator and
// sequence number.
type MsgID struct {
	Origin NodeID
	Seq    Seq
}

// Less orders MsgIDs lexicographically (origin, then seq).
func (m MsgID) Less(o MsgID) bool { return m.Compare(o) < 0 }

// Compare is the three-way form of Less, for slices.SortFunc.
func (m MsgID) Compare(o MsgID) int {
	if c := cmp.Compare(m.Origin, o.Origin); c != 0 {
		return c
	}
	return cmp.Compare(m.Seq, o.Seq)
}

// String renders the id as "origin/seq".
func (m MsgID) String() string { return fmt.Sprintf("%d/%d", m.Origin, m.Seq) }

// Kind discriminates packet types.
type Kind uint8

// Packet kinds. Values are part of the wire format; do not reorder.
const (
	KindData         Kind = iota + 1 // application data + originator signature
	KindGossip                       // aggregated message advertisements
	KindRequest                      // REQUEST_MSG: ask for a missing message
	KindFindMissing                  // FIND_MISSING_MSG: overlay-level search
	KindOverlayState                 // standalone overlay maintenance record: valid input, but no node in this tree sends one
	KindSyncReq                      // SYNC-REQ: catch-up request with a compact store summary
	KindSyncResp                     // SYNC-RESP: bulk transfer of entries the requester is missing
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindGossip:
		return "gossip"
	case KindRequest:
		return "request"
	case KindFindMissing:
		return "find-missing"
	case KindOverlayState:
		return "overlay-state"
	case KindSyncReq:
		return "sync-req"
	case KindSyncResp:
		return "sync-resp"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// NumKinds is the number of defined packet kinds (for metrics arrays).
const NumKinds = 7

// GossipEntry advertises that the gossiper holds message ID, carrying the
// originator's signature over the message header as proof of existence.
type GossipEntry struct {
	ID  MsgID
	Sig []byte
}

// SyncEntry is one message carried in a SYNC-RESP bulk transfer: the payload
// with the originator's data signature (so the receiver verifies before
// accepting, exactly as on the normal data path) and the header signature so
// the rejoiner can advertise the message in its own gossip rounds.
type SyncEntry struct {
	ID        MsgID
	Payload   []byte
	Sig       []byte // originator signature over DataSigBytes(ID, Payload)
	HeaderSig []byte // originator signature over HeaderSigBytes(ID); may be empty
}

// SyncBody is a sync frame's content.
type SyncBody struct {
	// Have is the requester's compact store summary (SyncReq only): the
	// message ids it already holds, so the responder sends only the gap.
	Have []MsgID
	// Entries is the responder's bulk transfer (SyncResp only).
	Entries []SyncEntry
}

// SyncHave returns the sync summary a SYNC-REQ carries, or nil.
func (p *Packet) SyncHave() []MsgID {
	if p.Sync == nil {
		return nil
	}
	return p.Sync.Have
}

// SyncEntries returns the entries a SYNC-RESP carries, or nil.
func (p *Packet) SyncEntries() []SyncEntry {
	if p.Sync == nil {
		return nil
	}
	return p.Sync.Entries
}

// OverlayState is the record a node publishes for overlay maintenance:
// whether it considers itself active (in the overlay), who its neighbours
// are, which of them it believes active, and whom it suspects. The paper's
// second-hand suspicion rule (§3.3) consumes Suspects.
type OverlayState struct {
	Active bool
	// Dominator distinguishes independent-set members from bridge nodes in
	// the MIS+B maintainer (suppression flows only from dominators). CDS
	// overlay nodes are all dominators.
	Dominator       bool
	Neighbors       []NodeID
	ActiveNeighbors []NodeID
	// DominatorNeighbors is the subset of Neighbors the sender believes to
	// be dominators; bridge election connects dominator pairs.
	DominatorNeighbors []NodeID
	Suspects           []NodeID
}

// Clone returns a deep copy of the record: the struct plus one arena shared
// by the four id lists.
func (s *OverlayState) Clone() *OverlayState {
	var arena []NodeID
	if n := s.IDCount(); n > 0 {
		arena = make([]NodeID, 0, n)
	}
	c := new(OverlayState)
	s.CopyInto(c, arena)
	return c
}

// IDCount is how many ids the record's four lists hold together.
func (s *OverlayState) IDCount() int {
	return len(s.Neighbors) + len(s.ActiveNeighbors) + len(s.DominatorNeighbors) + len(s.Suspects)
}

// CopyInto makes dst a deep copy of s whose id lists are appended to arena,
// and returns the extended arena; it allocates only when arena has no room
// for IDCount more ids. Each list is capped at its length, so a holder's
// append copies it instead of writing into the next list; a nil list stays
// nil and an empty one empty.
func (s *OverlayState) CopyInto(dst *OverlayState, arena []NodeID) []NodeID {
	carve := func(ids []NodeID) []NodeID {
		if len(ids) == 0 {
			if ids == nil {
				return nil
			}
			return []NodeID{}
		}
		start := len(arena)
		arena = append(arena, ids...)
		return arena[start:len(arena):len(arena)]
	}
	*dst = OverlayState{
		Active:             s.Active,
		Dominator:          s.Dominator,
		Neighbors:          carve(s.Neighbors),
		ActiveNeighbors:    carve(s.ActiveNeighbors),
		DominatorNeighbors: carve(s.DominatorNeighbors),
		Suspects:           carve(s.Suspects),
	}
	return arena
}

// Cause tags why a frame was transmitted, for causal lineage tracing. It is
// observability metadata: never serialized, never consulted by the protocol.
type Cause uint8

// Forward causes. CauseNone marks a frame whose sender predates lineage
// tracing (or a live rx, where Meta does not cross the wire).
const (
	CauseNone           Cause = iota
	CauseOrigin               // the originator's initial data transmission
	CauseOriginRelay          // overlay data-path relay of a freshly accepted message
	CauseGossipRecovery       // data (re)sent to repair a gap: request service, find service, TTL-flood
	CauseRetry                // bounded-retransmission request (adaptive retry chain)
	CauseGossip               // periodic gossip advertisement round
	CauseRequest              // first REQUEST_MSG for a gossip-advertised gap
	CauseFind                 // FIND_MISSING_MSG overlay search (dispatch or relay)
	CauseState                // standalone overlay-maintenance record (no node in this tree sends one)
	CauseSyncReq              // rejoiner's catch-up SYNC-REQ
	CauseSyncResp             // neighbour's SYNC-RESP bulk transfer
)

// String implements fmt.Stringer.
func (c Cause) String() string {
	switch c {
	case CauseNone:
		return ""
	case CauseOrigin:
		return "origin"
	case CauseOriginRelay:
		return "origin-relay"
	case CauseGossipRecovery:
		return "gossip-recovery"
	case CauseRetry:
		return "retry"
	case CauseGossip:
		return "gossip"
	case CauseRequest:
		return "request"
	case CauseFind:
		return "find"
	case CauseState:
		return "state"
	case CauseSyncReq:
		return "sync-req"
	case CauseSyncResp:
		return "sync-resp"
	default:
		return fmt.Sprintf("cause(%d)", uint8(c))
	}
}

// Meta is per-frame causal metadata carried alongside a Packet in memory. It
// is not part of the wire format: the simulated medium hands every receiver
// the transmitted packet itself, Meta included, while a live transport decodes
// frames with a zero Meta (rx causality is a simulation-only capability).
// Frame ids are assigned by the transmitting layer; Parent is the frame id of
// the reception that caused this transmission (0 for origin sends).
type Meta struct {
	Frame  uint64 // unique id of this transmission, assigned at tx
	Parent uint64 // frame id this transmission was caused by, or 0
	Digest uint64 // data frames: FNV-64a of the payload
	Hops   uint32 // data frames: path length from the originator (origin tx = 1)
	Cause  Cause  // why this frame was sent
	// Recovered marks a data frame whose payload reached the sender through
	// gossip recovery at some hop (sticky along the forward chain), so every
	// delivery downstream of one repair is attributed to recovery.
	Recovered bool
}

// Digest returns the payload fingerprint carried in lineage events: FNV-64a
// over the raw payload bytes. Zero-length payloads hash to the FNV offset
// basis, never 0, so 0 reads as "no digest".
func Digest(payload []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range payload {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// Packet is one radio transmission.
type Packet struct {
	Kind   Kind
	Sender NodeID // link-layer sender of this hop
	TTL    uint8
	Target NodeID // addressed node, or NoNode
	Origin NodeID // originator of the data message concerned (Data/Request/FindMissing)
	Seq    Seq

	Payload []byte // Data only
	Sig     []byte // originator signature (over data or header bytes)

	Gossip []GossipEntry // Gossip only

	State    *OverlayState // OverlayState, or piggybacked on any kind
	StateSig []byte        // sender's signature over the state record

	// Sync is the catch-up content, set only on the two sync kinds; nil reads
	// as empty. It sits behind a pointer so the fields every other frame
	// leaves empty cost one word of each sent frame, not six.
	Sync *SyncBody

	// Meta is in-memory causal metadata (see Meta). Excluded from
	// Marshal/Unmarshal; receivers under simulation read it off the shared
	// frame, and Clone's value copy keeps it.
	Meta Meta
}

// ID returns the message identifier the packet concerns.
func (p *Packet) ID() MsgID { return MsgID{Origin: p.Origin, Seq: p.Seq} }

// DataSigBytes returns the byte string an originator signs for a data
// message: msg_id ‖ node_id ‖ msg (§3.2 line 1).
func DataSigBytes(id MsgID, payload []byte) []byte {
	return AppendDataSigBytes(make([]byte, 0, 8+len(payload)), id, payload)
}

// AppendDataSigBytes appends DataSigBytes(id, payload) to dst, so a caller
// that signs or verifies repeatedly can reuse one buffer.
func AppendDataSigBytes(dst []byte, id MsgID, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(id.Origin))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(id.Seq))
	return append(dst, payload...)
}

// HeaderSigBytes returns the byte string an originator signs for a gossip
// advertisement: msg_id ‖ node_id (§3.2 line 2).
func HeaderSigBytes(id MsgID) []byte {
	return AppendHeaderSigBytes(make([]byte, 0, 9), id)
}

// AppendHeaderSigBytes appends HeaderSigBytes(id) to dst.
func AppendHeaderSigBytes(dst []byte, id MsgID) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(id.Origin))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(id.Seq))
	return append(dst, 'h') // domain separation from DataSigBytes of empty payload
}

// stateSigFixed is the fixed part of a state record's signed bytes: 4 sender
// + 2 flags + four 4-byte length prefixes.
const stateSigFixed = 4 + 2 + 4*4

// StateSigBytes returns the byte string a sender signs over its overlay
// maintenance record ("overlay maintenance messages are signed as well").
func StateSigBytes(sender NodeID, s *OverlayState) []byte {
	n := len(s.Neighbors) + len(s.ActiveNeighbors) + len(s.DominatorNeighbors) + len(s.Suspects)
	return AppendStateSigBytes(make([]byte, 0, stateSigFixed+4*n), sender, s)
}

// AppendStateSigBytes appends StateSigBytes(sender, s) to dst.
func AppendStateSigBytes(dst []byte, sender NodeID, s *OverlayState) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(sender))
	dst = append(dst, boolByte(s.Active), boolByte(s.Dominator))
	dst = appendIDs(dst, s.Neighbors)
	dst = appendIDs(dst, s.ActiveNeighbors)
	dst = appendIDs(dst, s.DominatorNeighbors)
	return appendIDs(dst, s.Suspects)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Codec errors.
var (
	ErrShortPacket = errors.New("wire: truncated packet")
	ErrBadVersion  = errors.New("wire: unknown format version")
	ErrBadKind     = errors.New("wire: unknown packet kind")
)

const wireVersion = 1

// maxSliceLen bounds decoded slice lengths so a corrupted or hostile packet
// cannot force a huge allocation.
const maxSliceLen = 1 << 16

// Marshal encodes the packet. The result is self-contained and versioned.
func (p *Packet) Marshal() []byte {
	return p.AppendMarshal(make([]byte, 0, p.sizeHint()))
}

// AppendMarshal appends the packet's encoding to dst and returns the extended
// slice, so a sender can encode every frame into one reused buffer.
func (p *Packet) AppendMarshal(b []byte) []byte {
	b = append(b, wireVersion, byte(p.Kind), p.TTL)
	b = binary.LittleEndian.AppendUint32(b, uint32(p.Sender))
	b = binary.LittleEndian.AppendUint32(b, uint32(p.Target))
	b = binary.LittleEndian.AppendUint32(b, uint32(p.Origin))
	b = binary.LittleEndian.AppendUint32(b, uint32(p.Seq))
	b = appendBytes(b, p.Payload)
	b = appendBytes(b, p.Sig)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p.Gossip)))
	for _, g := range p.Gossip {
		b = binary.LittleEndian.AppendUint32(b, uint32(g.ID.Origin))
		b = binary.LittleEndian.AppendUint32(b, uint32(g.ID.Seq))
		b = appendBytes(b, g.Sig)
	}
	if p.State == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1, boolByte(p.State.Active), boolByte(p.State.Dominator))
		b = appendIDs(b, p.State.Neighbors)
		b = appendIDs(b, p.State.ActiveNeighbors)
		b = appendIDs(b, p.State.DominatorNeighbors)
		b = appendIDs(b, p.State.Suspects)
		b = appendBytes(b, p.StateSig)
	}
	// Sync content is encoded only for the sync kinds, so every pre-existing
	// kind keeps a byte-identical encoding.
	switch p.Kind {
	case KindSyncReq:
		have := p.SyncHave()
		b = binary.LittleEndian.AppendUint32(b, uint32(len(have)))
		for _, id := range have {
			b = binary.LittleEndian.AppendUint32(b, uint32(id.Origin))
			b = binary.LittleEndian.AppendUint32(b, uint32(id.Seq))
		}
	case KindSyncResp:
		entries := p.SyncEntries()
		b = binary.LittleEndian.AppendUint32(b, uint32(len(entries)))
		for _, e := range entries {
			b = binary.LittleEndian.AppendUint32(b, uint32(e.ID.Origin))
			b = binary.LittleEndian.AppendUint32(b, uint32(e.ID.Seq))
			b = appendBytes(b, e.Payload)
			b = appendBytes(b, e.Sig)
			b = appendBytes(b, e.HeaderSig)
		}
	}
	return b
}

func (p *Packet) sizeHint() int {
	n := 24 + len(p.Payload) + len(p.Sig) + 8
	for _, g := range p.Gossip {
		n += 12 + len(g.Sig)
	}
	if p.State != nil {
		n += 28 + 4*(len(p.State.Neighbors)+len(p.State.ActiveNeighbors)+len(p.State.DominatorNeighbors)+len(p.State.Suspects)) + len(p.StateSig)
	}
	switch p.Kind {
	case KindSyncReq:
		n += 4 + 8*len(p.SyncHave())
	case KindSyncResp:
		n += 4
		for _, e := range p.SyncEntries() {
			n += 20 + len(e.Payload) + len(e.Sig) + len(e.HeaderSig)
		}
	}
	return n
}

// AirSize returns the packet's size in bytes as transmitted, used by the
// radio layer to compute airtime.
func (p *Packet) AirSize() int { return p.sizeHint() }

// Unmarshal decodes a packet from b into a new Packet (see UnmarshalInto).
func Unmarshal(b []byte) (*Packet, error) {
	p := new(Packet)
	if err := UnmarshalInto(p, b); err != nil {
		return nil, err
	}
	return p, nil
}

// UnmarshalInto decodes a packet from b into dst, overwriting all of it (Meta
// reads zero). Nothing decoded aliases b, so the caller may reuse b at once,
// and every byte field is its own copy, capped at its length, so a receiver
// that keeps one field keeps only that field's bytes, never the datagram:
//   - Payload and Sig share one exact-size allocation, as does each sync
//     entry's Payload and Sig; a node keeps or drops such a pair together;
//   - every gossip entry's signature, the state signature and each sync
//     entry's HeaderSig has an allocation of its own, since each may outlive
//     everything else in the frame;
//   - the state record's four id lists share one array.
//
// A zero-length field decodes as nil. On error dst holds a partial decode.
func UnmarshalInto(dst *Packet, b []byte) error {
	*dst = Packet{}
	p := dst
	d := decoder{b: b}
	ver := d.u8()
	if d.err == nil && ver != wireVersion {
		return ErrBadVersion
	}
	p.Kind = Kind(d.u8())
	p.TTL = d.u8()
	p.Sender = NodeID(d.u32())
	p.Target = NodeID(d.u32())
	p.Origin = NodeID(d.u32())
	p.Seq = Seq(d.u32())
	p.Payload, p.Sig = ownPair(d.span(), d.span())
	ng := d.u32()
	if d.err == nil && ng > maxSliceLen {
		return ErrShortPacket
	}
	if d.err == nil && ng > 0 {
		p.Gossip = make([]GossipEntry, 0, ng)
		for i := uint32(0); i < ng && d.err == nil; i++ {
			var g GossipEntry
			g.ID.Origin = NodeID(d.u32())
			g.ID.Seq = Seq(d.u32())
			g.Sig = own(d.span())
			p.Gossip = append(p.Gossip, g)
		}
	}
	if d.u8() == 1 && d.err == nil {
		st := &OverlayState{}
		st.Active = d.u8() == 1
		st.Dominator = d.u8() == 1
		var lists [4][]byte
		n := 0
		for i := range lists {
			lists[i] = d.idSpan()
			n += len(lists[i]) / 4
		}
		var arena []NodeID
		if n > 0 && d.err == nil {
			arena = make([]NodeID, 0, n)
		}
		carve := func(raw []byte) []NodeID {
			if len(raw) == 0 || d.err != nil {
				return nil
			}
			start := len(arena)
			for i := 0; i < len(raw); i += 4 {
				arena = append(arena, NodeID(binary.LittleEndian.Uint32(raw[i:])))
			}
			return arena[start:len(arena):len(arena)]
		}
		st.Neighbors = carve(lists[0])
		st.ActiveNeighbors = carve(lists[1])
		st.DominatorNeighbors = carve(lists[2])
		st.Suspects = carve(lists[3])
		p.State = st
		p.StateSig = own(d.span())
	}
	switch p.Kind {
	case KindSyncReq:
		if have := d.msgIDs(); have != nil {
			p.Sync = &SyncBody{Have: have}
		}
	case KindSyncResp:
		ne := d.u32()
		if d.err == nil && ne > maxSliceLen {
			return ErrShortPacket
		}
		if d.err == nil && ne > 0 {
			entries := make([]SyncEntry, 0, ne)
			for i := uint32(0); i < ne && d.err == nil; i++ {
				var e SyncEntry
				e.ID.Origin = NodeID(d.u32())
				e.ID.Seq = Seq(d.u32())
				e.Payload, e.Sig = ownPair(d.span(), d.span())
				e.HeaderSig = own(d.span())
				entries = append(entries, e)
			}
			p.Sync = &SyncBody{Entries: entries}
		}
	}
	if d.err != nil {
		return d.err
	}
	if p.Kind < KindData || p.Kind > KindSyncResp {
		return ErrBadKind
	}
	return nil
}

// own returns a copy of b in an allocation of its own, or nil when b is
// empty.
func own(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return append(make([]byte, 0, len(b)), b...)
}

// ownPair returns copies of a and b carved from one exact-size allocation,
// each capped at its length so an append to one cannot write into the other;
// an empty one is nil.
func ownPair(a, b []byte) ([]byte, []byte) {
	switch {
	case len(a) == 0:
		return nil, own(b)
	case len(b) == 0:
		return own(a), nil
	}
	buf := make([]byte, len(a)+len(b))
	copy(buf, a)
	copy(buf[len(a):], b)
	return buf[:len(a):len(a)], buf[len(a):]
}

// Clone returns a deep copy of the packet. A packet is immutable once it has
// been handed to a send path, and every receiver of a transmission sees the
// same *Packet: receivers may retain it and anything it points to, never
// modify it. Copy before editing: a node that relays a received frame with a
// new TTL sends a copy of its fields (the bytes stay shared, as no one writes
// them), and one that tampers with a payload or re-sends a harvested frame
// edits a Clone.
func (p *Packet) Clone() *Packet {
	cp := *p
	// All byte fields share one arena and all id slices another, so a clone
	// costs a handful of allocations regardless of how many fields are set.
	nb := len(p.Payload) + len(p.Sig)
	for _, g := range p.Gossip {
		nb += len(g.Sig)
	}
	if p.State != nil {
		nb += len(p.StateSig)
	}
	for _, e := range p.SyncEntries() {
		nb += len(e.Payload) + len(e.Sig) + len(e.HeaderSig)
	}
	var arena []byte
	if nb > 0 {
		arena = make([]byte, 0, nb)
	}
	carve := func(b []byte) []byte {
		if len(b) == 0 {
			if b == nil {
				return nil
			}
			return []byte{}
		}
		start := len(arena)
		arena = append(arena, b...)
		return arena[start:len(arena):len(arena)]
	}
	cp.Payload = carve(p.Payload)
	cp.Sig = carve(p.Sig)
	if p.Gossip != nil {
		cp.Gossip = make([]GossipEntry, len(p.Gossip))
		for i, g := range p.Gossip {
			cp.Gossip[i] = GossipEntry{ID: g.ID, Sig: carve(g.Sig)}
		}
	}
	if p.State != nil {
		cp.State = p.State.Clone()
		cp.StateSig = carve(p.StateSig)
	}
	if p.Sync != nil {
		cp.Sync = &SyncBody{}
		if p.Sync.Have != nil {
			cp.Sync.Have = append([]MsgID(nil), p.Sync.Have...)
		}
		if p.Sync.Entries != nil {
			cp.Sync.Entries = make([]SyncEntry, len(p.Sync.Entries))
			for i, e := range p.Sync.Entries {
				cp.Sync.Entries[i] = SyncEntry{
					ID:        e.ID,
					Payload:   carve(e.Payload),
					Sig:       carve(e.Sig),
					HeaderSig: carve(e.HeaderSig),
				}
			}
		}
	}
	return &cp
}

func appendBytes(b, v []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
	return append(b, v...)
}

func appendIDs(b []byte, ids []NodeID) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ids)))
	for _, id := range ids {
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
	}
	return b
}

type decoder struct {
	b   []byte
	err error
}

func (d *decoder) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.err = ErrShortPacket
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 4 {
		d.err = ErrShortPacket
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

// span returns the next length-prefixed byte field as a view of the input,
// not a copy.
func (d *decoder) span() []byte {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if n > maxSliceLen || int(n) > len(d.b) {
		d.err = ErrShortPacket
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

func (d *decoder) msgIDs() []MsgID {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if n > maxSliceLen || int(n)*8 > len(d.b) {
		d.err = ErrShortPacket
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]MsgID, n)
	for i := range out {
		out[i].Origin = NodeID(binary.LittleEndian.Uint32(d.b[i*8:]))
		out[i].Seq = Seq(binary.LittleEndian.Uint32(d.b[i*8+4:]))
	}
	d.b = d.b[n*8:]
	return out
}

// idSpan returns the next count-prefixed id list as a view of its 4*count
// encoded bytes.
func (d *decoder) idSpan() []byte {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if n > maxSliceLen || int(n)*4 > len(d.b) {
		d.err = ErrShortPacket
		return nil
	}
	v := d.b[: n*4 : n*4]
	d.b = d.b[n*4:]
	return v
}
