// Package byzantine implements the adversary behaviours used in the
// evaluation (§2.1, §4): Byzantine nodes "may fail to send messages, send
// too many messages, send messages with false information". A behaviour
// wraps a node's send path and observes its receive path; the runner
// installs it between the protocol and the MAC.
//
// Behaviours cannot forge other nodes' signatures (they hold only their own
// key), matching the model's assumption.
package byzantine

import (
	"fmt"
	"math/rand"
	"time"

	"bbcast/internal/wire"
)

// Behavior intercepts one node's traffic. Frames are shared, not copied: the
// packet FilterSend sees is the one the protocol keeps referencing, and the
// packet OnReceive sees is the one every other receiver gets. A behaviour may
// keep either, but edits only its own Clone, and sends no packet twice.
type Behavior interface {
	// Name identifies the behaviour in reports.
	Name() string
	// FilterSend inspects an outgoing packet. It returns the packet to
	// actually transmit (pkt itself, or an edited clone) or nil to silently
	// drop it.
	FilterSend(pkt *wire.Packet) *wire.Packet
	// OnReceive observes every received packet (before the protocol does).
	OnReceive(pkt *wire.Packet)
	// Tick runs periodically and may inject extra traffic via send.
	Tick(send func(*wire.Packet))
}

// Correct is the identity behaviour. The adversaries embed it for the
// methods in which they do not deviate.
type Correct struct{}

var _ Behavior = Correct{}

// Name implements Behavior.
func (Correct) Name() string { return "correct" }

// FilterSend implements Behavior.
func (Correct) FilterSend(pkt *wire.Packet) *wire.Packet { return pkt }

// OnReceive implements Behavior.
func (Correct) OnReceive(*wire.Packet) {}

// Tick implements Behavior.
func (Correct) Tick(func(*wire.Packet)) {}

// Mute models the paper's most adverse failure: the node keeps claiming
// overlay membership (its maintenance and gossip traffic flows) but never
// forwards other nodes' data and never relays searches, silently black-holing
// the overlay paths through it.
type Mute struct {
	Correct
	// Self is the adversary's own id; its own originations still go out
	// (a mute node may still be an application source).
	Self wire.NodeID
	// DropGossip additionally silences its gossip (a totally mute node).
	DropGossip bool
}

var _ Behavior = (*Mute)(nil)

// Name implements Behavior.
func (m *Mute) Name() string { return "mute" }

// FilterSend implements Behavior.
func (m *Mute) FilterSend(pkt *wire.Packet) *wire.Packet {
	switch pkt.Kind {
	case wire.KindData:
		if pkt.Origin != m.Self {
			return nil // refuse to forward or serve others' data
		}
	case wire.KindFindMissing, wire.KindRequest:
		return nil // refuse to relay or initiate searches
	case wire.KindGossip:
		if m.DropGossip {
			if pkt.State == nil {
				return nil
			}
			// Keep claiming overlay membership: strip advertisements but
			// let the piggybacked state through.
			cp := pkt.Clone()
			cp.Gossip = nil
			return cp
		}
	}
	return pkt
}

// Verbose floods the network with valid-looking requests for messages it has
// heard advertised, provoking overlay nodes into re-sending data (a
// reaction-amplification attack, §3.1).
type Verbose struct {
	Correct
	// Self is the adversary's id.
	Self wire.NodeID
	// Rng drives target selection.
	Rng *rand.Rand
	// PerTick is how many spam requests go out per behaviour tick.
	PerTick int

	entries []wire.GossipEntry
	targets []wire.NodeID
}

var _ Behavior = (*Verbose)(nil)

// Name implements Behavior.
func (v *Verbose) Name() string { return "verbose" }

// OnReceive implements Behavior: harvest real gossip entries (their
// signatures are valid, so spam requests referencing them pass verification)
// and candidate targets.
func (v *Verbose) OnReceive(pkt *wire.Packet) {
	if pkt.Sender != v.Self {
		v.noteTarget(pkt.Sender)
	}
	for _, e := range pkt.Gossip {
		if len(v.entries) < 64 {
			v.entries = append(v.entries, e)
		}
	}
}

func (v *Verbose) noteTarget(id wire.NodeID) {
	for _, t := range v.targets {
		if t == id {
			return
		}
	}
	if len(v.targets) < 32 {
		v.targets = append(v.targets, id)
	}
}

// Tick implements Behavior: replay requests for known messages.
func (v *Verbose) Tick(send func(*wire.Packet)) {
	if len(v.entries) == 0 || len(v.targets) == 0 {
		return
	}
	n := v.PerTick
	if n <= 0 {
		n = 3
	}
	for i := 0; i < n; i++ {
		e := v.entries[v.Rng.Intn(len(v.entries))]
		t := v.targets[v.Rng.Intn(len(v.targets))]
		send(&wire.Packet{
			Kind:   wire.KindRequest,
			Sender: v.Self,
			TTL:    1,
			Target: t,
			Origin: e.ID.Origin,
			Seq:    e.ID.Seq,
			Sig:    e.Sig,
		})
	}
}

// Tamper corrupts the payload of every data message it forwards without
// being able to re-sign it, so correct receivers detect the bad signature
// and suspect the tamperer.
type Tamper struct {
	Correct
	// Self is the adversary's id; its own originations are left intact
	// (tampering with its own signed messages would only hurt itself).
	Self wire.NodeID
}

var _ Behavior = (*Tamper)(nil)

// Name implements Behavior.
func (t *Tamper) Name() string { return "tamper" }

// FilterSend implements Behavior.
func (t *Tamper) FilterSend(pkt *wire.Packet) *wire.Packet {
	if pkt.Kind != wire.KindData || pkt.Origin == t.Self || len(pkt.Payload) == 0 {
		return pkt
	}
	cp := pkt.Clone()
	cp.Payload[0] ^= 0xFF
	return cp
}

// SelectiveDrop drops a random fraction of all forwards — a "selfish" node
// saving battery rather than an outright attacker.
type SelectiveDrop struct {
	Correct
	// Self is the adversary's id.
	Self wire.NodeID
	// Rng drives the drop decision.
	Rng *rand.Rand
	// DropProb is the probability of dropping a forwarded packet.
	DropProb float64
}

var _ Behavior = (*SelectiveDrop)(nil)

// Name implements Behavior.
func (s *SelectiveDrop) Name() string { return "selective-drop" }

// FilterSend implements Behavior.
func (s *SelectiveDrop) FilterSend(pkt *wire.Packet) *wire.Packet {
	if pkt.Kind == wire.KindData && pkt.Origin != s.Self && s.Rng.Float64() < s.DropProb {
		return nil
	}
	return pkt
}

// Equivocate is a Byzantine *source*: it signs conflicting payload variants
// of its own messages under the same message id, so different correct nodes
// accept different payloads (the classic equivocation attack). Signatures
// cannot prevent it — the attacker holds its own key and both variants
// verify — which is exactly why the agreement invariant has to watch for it.
// The behaviour originates its own traffic: every OriginateEvery-th tick it
// broadcasts variant A of a fresh message, then re-broadcasts the re-signed
// variant B one tick later. Receivers accept the first valid copy they hear,
// so any node that lost A to a collision or the fringe — or that first hears
// the message from a B-holder's forward — delivers B while the rest of the
// network delivers A.
type Equivocate struct {
	Correct
	// Self is the adversary's id.
	Self wire.NodeID
	// Sign signs bytes with the node's own key (injected by the host; a
	// behaviour may only ever sign as itself, per the model).
	Sign func(data []byte) []byte
	// OriginateEvery is the number of behaviour ticks between fresh
	// messages (default 4, i.e. one equivocating message per 2 s).
	OriginateEvery int

	seq     wire.Seq
	ticks   int
	variant *wire.Packet // variant B awaiting re-broadcast
	sends   map[wire.MsgID]int
}

var _ Behavior = (*Equivocate)(nil)

// equivocateSeqBase keeps behaviour-originated sequence numbers clear of the
// node's protocol-level sequence counter.
const equivocateSeqBase wire.Seq = 1 << 20

// Name implements Behavior.
func (e *Equivocate) Name() string { return "equivocate" }

// FilterSend implements Behavior: every other transmission of one of its own
// protocol-originated data messages carries a mutated, re-signed payload, so
// copies the node re-serves during recovery conflict with the original.
func (e *Equivocate) FilterSend(pkt *wire.Packet) *wire.Packet {
	if pkt.Kind != wire.KindData || pkt.Origin != e.Self || len(pkt.Payload) == 0 || e.Sign == nil {
		return pkt
	}
	if e.sends == nil {
		e.sends = make(map[wire.MsgID]int)
	}
	id := pkt.ID()
	n := e.sends[id]
	e.sends[id] = n + 1
	if n%2 == 0 {
		return pkt // even transmissions: the honest variant
	}
	cp := pkt.Clone()
	cp.Payload[0] ^= 0x01
	cp.Sig = e.Sign(wire.DataSigBytes(id, cp.Payload))
	return cp
}

// Tick implements Behavior: alternately broadcast a fresh variant-A message
// and the conflicting variant B of the previous one.
func (e *Equivocate) Tick(send func(*wire.Packet)) {
	if e.Sign == nil {
		return
	}
	if e.variant != nil {
		send(e.variant)
		e.variant = nil
		return
	}
	every := e.OriginateEvery
	if every <= 0 {
		every = 4
	}
	e.ticks++
	if e.ticks%every != 0 {
		return
	}
	e.seq++
	id := wire.MsgID{Origin: e.Self, Seq: equivocateSeqBase + e.seq}
	payload := []byte(fmt.Sprintf("equivocation %d/%d", e.Self, e.seq))
	a := &wire.Packet{
		Kind:    wire.KindData,
		Sender:  e.Self,
		TTL:     1,
		Target:  wire.NoNode,
		Origin:  id.Origin,
		Seq:     id.Seq,
		Payload: payload,
		Sig:     e.Sign(wire.DataSigBytes(id, payload)),
	}
	b := a.Clone()
	b.Payload[0] ^= 0x01
	b.Sig = e.Sign(wire.DataSigBytes(id, b.Payload))
	send(a)
	e.variant = b
}

// flooderSeqBase keeps Flooder-originated sequence numbers clear of both the
// node's protocol-level counter and the Equivocate range.
const flooderSeqBase wire.Seq = 2 << 20

// Flooder is a resource-exhaustion adversary: it originates a stream of
// fresh, validly signed data messages far above any legitimate workload rate.
// Every message verifies — the attack is not on agreement but on the
// receivers' memory (store growth) and CPU (one verification per message),
// which is exactly what the admission-control layer must bound.
type Flooder struct {
	Correct
	// Self is the adversary's id.
	Self wire.NodeID
	// Sign signs bytes with the node's own key.
	Sign func(data []byte) []byte
	// PerTick is how many fresh messages go out per behaviour tick
	// (default 5 — 10 msg/s at the standard tick, 10× the default workload).
	PerTick int
	// PayloadSize is the spam payload length (default 64 bytes).
	PayloadSize int

	seq wire.Seq
}

var _ Behavior = (*Flooder)(nil)

// Name implements Behavior.
func (f *Flooder) Name() string { return "flooder" }

// Tick implements Behavior: spam fresh signed messages.
func (f *Flooder) Tick(send func(*wire.Packet)) {
	if f.Sign == nil {
		return
	}
	n := f.PerTick
	if n <= 0 {
		n = 5
	}
	size := f.PayloadSize
	if size <= 0 {
		size = 64
	}
	for i := 0; i < n; i++ {
		f.seq++
		id := wire.MsgID{Origin: f.Self, Seq: flooderSeqBase + f.seq}
		payload := make([]byte, size)
		copy(payload, fmt.Sprintf("flood %d/%d", f.Self, f.seq))
		send(&wire.Packet{
			Kind:    wire.KindData,
			Sender:  f.Self,
			TTL:     1,
			Target:  wire.NoNode,
			Origin:  id.Origin,
			Seq:     id.Seq,
			Payload: payload,
			Sig:     f.Sign(wire.DataSigBytes(id, payload)),
		})
	}
}

// Replayer harvests packets off the air and re-transmits byte-identical
// copies later. Every replayed signature verifies (the bytes once did), so
// the defence is duplicate suppression: without dedup-before-verify each
// replay costs a full signature check, and without tombstones an old replay
// is re-accepted.
type Replayer struct {
	Correct
	// Self is the adversary's id.
	Self wire.NodeID
	// Rng picks which harvested packets to replay.
	Rng *rand.Rand
	// PerTick is how many replays go out per behaviour tick (default 8).
	PerTick int

	harvest []*wire.Packet
}

var _ Behavior = (*Replayer)(nil)

// Name implements Behavior.
func (r *Replayer) Name() string { return "replayer" }

// OnReceive implements Behavior: harvest up to 128 distinct packets.
func (r *Replayer) OnReceive(pkt *wire.Packet) {
	if pkt.Sender == r.Self || len(r.harvest) >= 128 {
		return
	}
	r.harvest = append(r.harvest, pkt) // retained as is; Tick clones before editing
}

// Tick implements Behavior: re-send harvested packets verbatim (except the
// sender id, which the radio stamps as us anyway — a node cannot spoof its
// link-layer source here).
func (r *Replayer) Tick(send func(*wire.Packet)) {
	if len(r.harvest) == 0 {
		return
	}
	n := r.PerTick
	if n <= 0 {
		n = 8
	}
	for i := 0; i < n; i++ {
		var pick int
		if r.Rng != nil {
			pick = r.Rng.Intn(len(r.harvest))
		} else {
			pick = i % len(r.harvest)
		}
		cp := r.harvest[pick].Clone()
		cp.Sender = r.Self
		send(cp)
	}
}

// ForgeSpammer sends packets with junk signatures attributed to nodes that do
// not exist, forcing receivers to spend one (failing) verification per packet
// and to churn their neighbour tables with phantom senders. It never frames a
// real node: signer ids are drawn from far outside the deployment's id range,
// so the bad-signature suspicions it provokes indict no one.
type ForgeSpammer struct {
	Correct
	// Self is the adversary's id.
	Self wire.NodeID
	// Rng drives id and payload generation.
	Rng *rand.Rand
	// PerTick is how many junk packets go out per behaviour tick (default 8).
	PerTick int

	seq wire.Seq
}

var _ Behavior = (*ForgeSpammer)(nil)

// forgeIDBase keeps forged origin ids clear of any real deployment's node-id
// range (experiments use small dense ids).
const forgeIDBase = 1 << 24

// Name implements Behavior.
func (s *ForgeSpammer) Name() string { return "forge-spammer" }

// Tick implements Behavior: spam data and gossip packets with random
// signatures from nonexistent origins.
func (s *ForgeSpammer) Tick(send func(*wire.Packet)) {
	if s.Rng == nil {
		return
	}
	n := s.PerTick
	if n <= 0 {
		n = 8
	}
	for i := 0; i < n; i++ {
		s.seq++
		origin := wire.NodeID(forgeIDBase + s.Rng.Intn(1<<20))
		junk := make([]byte, 32)
		s.Rng.Read(junk)
		if s.seq%2 == 0 {
			send(&wire.Packet{
				Kind:   wire.KindGossip,
				Sender: s.Self,
				TTL:    1,
				Target: wire.NoNode,
				Origin: wire.NoNode,
				Gossip: []wire.GossipEntry{{ID: wire.MsgID{Origin: origin, Seq: s.seq}, Sig: junk}},
			})
			continue
		}
		payload := make([]byte, 32)
		s.Rng.Read(payload)
		send(&wire.Packet{
			Kind:    wire.KindData,
			Sender:  s.Self,
			TTL:     1,
			Target:  wire.NoNode,
			Origin:  origin,
			Seq:     s.seq,
			Payload: payload,
			Sig:     junk,
		})
	}
}

// Switchable wraps a Behavior so the fault-injection layer can replace it
// mid-run (a correct node turning mute, an adversary being "patched"). The
// zero value delegates to Correct.
type Switchable struct {
	cur Behavior
}

// NewSwitchable wraps b (nil means Correct).
func NewSwitchable(b Behavior) *Switchable {
	if b == nil {
		b = Correct{}
	}
	return &Switchable{cur: b}
}

var _ Behavior = (*Switchable)(nil)

// Set replaces the current behaviour (nil means Correct). The swap takes
// effect on the next packet.
func (s *Switchable) Set(b Behavior) {
	if b == nil {
		b = Correct{}
	}
	s.cur = b
}

// Current returns the behaviour currently in effect.
func (s *Switchable) Current() Behavior {
	if s.cur == nil {
		return Correct{}
	}
	return s.cur
}

// Name implements Behavior.
func (s *Switchable) Name() string { return s.Current().Name() }

// FilterSend implements Behavior.
func (s *Switchable) FilterSend(pkt *wire.Packet) *wire.Packet {
	return s.Current().FilterSend(pkt)
}

// OnReceive implements Behavior.
func (s *Switchable) OnReceive(pkt *wire.Packet) { s.Current().OnReceive(pkt) }

// Tick implements Behavior.
func (s *Switchable) Tick(send func(*wire.Packet)) { s.Current().Tick(send) }

// tools is what a host can hand a behaviour: its id, a random stream and a
// function signing with the node's own key.
type tools struct {
	self wire.NodeID
	rng  *rand.Rand
	sign func([]byte) []byte
}

// makers is the behaviour vocabulary — the names fault plans swap to, the
// runner's adversary kinds map to, and reports print — with what each one
// cannot be built without.
var makers = map[string]struct {
	rng, sign bool
	build     func(tools) Behavior
}{
	"correct":        {build: func(tools) Behavior { return Correct{} }},
	"mute":           {build: func(t tools) Behavior { return &Mute{Self: t.self} }},
	"mute-silent":    {build: func(t tools) Behavior { return &Mute{Self: t.self, DropGossip: true} }},
	"verbose":        {rng: true, build: func(t tools) Behavior { return &Verbose{Self: t.self, Rng: t.rng, PerTick: 4} }},
	"tamper":         {build: func(t tools) Behavior { return &Tamper{Self: t.self} }},
	"selective-drop": {rng: true, build: func(t tools) Behavior { return &SelectiveDrop{Self: t.self, Rng: t.rng, DropProb: 0.5} }},
	"equivocate":     {sign: true, build: func(t tools) Behavior { return &Equivocate{Self: t.self, Sign: t.sign} }},
	"flooder":        {sign: true, build: func(t tools) Behavior { return &Flooder{Self: t.self, Sign: t.sign} }},
	"replayer":       {build: func(t tools) Behavior { return &Replayer{Self: t.self, Rng: t.rng} }},
	"forge-spammer":  {rng: true, build: func(t tools) Behavior { return &ForgeSpammer{Self: t.self, Rng: t.rng} }},
}

// Known reports whether name is in Make's vocabulary.
func Known(name string) bool {
	_, ok := makers[name]
	return ok
}

// Make builds a behaviour by name (the empty name is "correct"). rng and sign
// may be nil for behaviours that do not need them.
func Make(name string, self wire.NodeID, rng *rand.Rand, sign func([]byte) []byte) (Behavior, error) {
	if name == "" {
		name = "correct"
	}
	m, ok := makers[name]
	switch {
	case !ok:
		return nil, fmt.Errorf("byzantine: unknown behaviour %q", name)
	case m.rng && rng == nil:
		return nil, fmt.Errorf("byzantine: %q needs a random stream", name)
	case m.sign && sign == nil:
		return nil, fmt.Errorf("byzantine: %q needs a signing function", name)
	}
	return m.build(tools{self, rng, sign}), nil
}

// Faulty reports whether the named behaviour deviates from the protocol
// (anything but "correct").
func Faulty(name string) bool { return name != "correct" && name != "" }

// TickInterval is the behaviour tick period used by the runner.
const TickInterval = 500 * time.Millisecond
