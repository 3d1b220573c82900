package byzantine

import (
	"math/rand"
	"testing"

	"bbcast/internal/wire"
)

func dataPkt(origin, sender wire.NodeID) *wire.Packet {
	return &wire.Packet{
		Kind: wire.KindData, Sender: sender, TTL: 1, Target: wire.NoNode,
		Origin: origin, Seq: 1, Payload: []byte("payload"), Sig: []byte{1, 2},
	}
}

func TestCorrectPassesEverything(t *testing.T) {
	var b Behavior = Correct{}
	pkt := dataPkt(1, 0)
	if got := b.FilterSend(pkt); got != pkt {
		t.Fatal("correct behaviour altered a packet")
	}
	b.OnReceive(pkt)
	b.Tick(func(*wire.Packet) { t.Fatal("correct behaviour injected traffic") })
}

func TestMuteDropsForwardsKeepsOwn(t *testing.T) {
	m := &Mute{Self: 5}
	if m.FilterSend(dataPkt(1, 5)) != nil {
		t.Fatal("mute node forwarded someone else's data")
	}
	own := dataPkt(5, 5)
	if m.FilterSend(own) != own {
		t.Fatal("mute node dropped its own origination")
	}
	if m.FilterSend(&wire.Packet{Kind: wire.KindRequest, Sender: 5}) != nil {
		t.Fatal("mute node sent a request")
	}
	if m.FilterSend(&wire.Packet{Kind: wire.KindFindMissing, Sender: 5}) != nil {
		t.Fatal("mute node relayed a search")
	}
	gossip := &wire.Packet{Kind: wire.KindGossip, Sender: 5, Gossip: []wire.GossipEntry{{}}}
	if m.FilterSend(gossip) != gossip {
		t.Fatal("non-silent mute node should keep gossiping (the sneaky variant)")
	}
}

func TestMuteSilentStripsGossipKeepsState(t *testing.T) {
	m := &Mute{Self: 5, DropGossip: true}
	bare := &wire.Packet{Kind: wire.KindGossip, Sender: 5, Gossip: []wire.GossipEntry{{}}}
	if m.FilterSend(bare) != nil {
		t.Fatal("silent mute node sent bare gossip")
	}
	withState := &wire.Packet{
		Kind: wire.KindGossip, Sender: 5,
		Gossip: []wire.GossipEntry{{}},
		State:  &wire.OverlayState{Active: true},
	}
	out := m.FilterSend(withState)
	if out == nil {
		t.Fatal("state beacon dropped — node would stop claiming overlay membership")
	}
	if len(out.Gossip) != 0 {
		t.Fatal("advertisements not stripped")
	}
	if out.State == nil || !out.State.Active {
		t.Fatal("overlay claim lost")
	}
	// The original packet must not be mutated.
	if len(withState.Gossip) != 1 {
		t.Fatal("FilterSend mutated the input packet")
	}
}

func TestVerboseHarvestsAndSpams(t *testing.T) {
	v := &Verbose{Self: 9, Rng: rand.New(rand.NewSource(1)), PerTick: 3}
	// Nothing to spam yet.
	v.Tick(func(*wire.Packet) { t.Fatal("spam without harvested entries") })
	// Harvest a gossip entry and a target.
	v.OnReceive(&wire.Packet{
		Kind: wire.KindGossip, Sender: 2,
		Gossip: []wire.GossipEntry{{ID: wire.MsgID{Origin: 1, Seq: 4}, Sig: []byte{7}}},
	})
	var spammed []*wire.Packet
	v.Tick(func(p *wire.Packet) { spammed = append(spammed, p) })
	if len(spammed) != 3 {
		t.Fatalf("spam count = %d, want 3", len(spammed))
	}
	for _, p := range spammed {
		if p.Kind != wire.KindRequest || p.Sender != 9 {
			t.Fatalf("bad spam packet: %+v", p)
		}
		if p.Origin != 1 || p.Seq != 4 {
			t.Fatal("spam does not reference a harvested (verifiable) entry")
		}
	}
}

func TestVerboseDoesNotTargetSelf(t *testing.T) {
	v := &Verbose{Self: 9, Rng: rand.New(rand.NewSource(1)), PerTick: 1}
	v.OnReceive(&wire.Packet{Kind: wire.KindGossip, Sender: 9,
		Gossip: []wire.GossipEntry{{ID: wire.MsgID{Origin: 1, Seq: 1}}}})
	v.Tick(func(*wire.Packet) { t.Fatal("spammed with only itself as target") })
}

func TestTamperCorruptsForwardsOnly(t *testing.T) {
	tm := &Tamper{Self: 5}
	fwd := dataPkt(1, 5)
	out := tm.FilterSend(fwd)
	if out == fwd || out.Payload[0] == fwd.Payload[0] {
		t.Fatal("forwarded data not corrupted")
	}
	if fwd.Payload[0] != 'p' {
		t.Fatal("original packet mutated")
	}
	own := dataPkt(5, 5)
	if tm.FilterSend(own) != own {
		t.Fatal("own origination corrupted")
	}
	gossip := &wire.Packet{Kind: wire.KindGossip, Sender: 5}
	if tm.FilterSend(gossip) != gossip {
		t.Fatal("non-data packet altered")
	}
}

func TestSelectiveDropProbabilistic(t *testing.T) {
	s := &SelectiveDrop{Self: 5, Rng: rand.New(rand.NewSource(1)), DropProb: 0.5}
	dropped, passed := 0, 0
	for i := 0; i < 1000; i++ {
		if s.FilterSend(dataPkt(1, 5)) == nil {
			dropped++
		} else {
			passed++
		}
	}
	if dropped < 400 || dropped > 600 {
		t.Fatalf("dropped %d of 1000 at p=0.5", dropped)
	}
	// Own messages never dropped.
	for i := 0; i < 100; i++ {
		if s.FilterSend(dataPkt(5, 5)) == nil {
			t.Fatal("own origination dropped")
		}
	}
}

func TestNames(t *testing.T) {
	cases := map[string]Behavior{
		"correct":        Correct{},
		"mute":           &Mute{},
		"verbose":        &Verbose{},
		"tamper":         &Tamper{},
		"selective-drop": &SelectiveDrop{},
	}
	for want, b := range cases {
		if b.Name() != want {
			t.Errorf("Name() = %q, want %q", b.Name(), want)
		}
	}
}

func TestMakeVocabulary(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sign := func(d []byte) []byte { return []byte{1} }
	wantName := map[string]string{
		"":               "correct",
		"correct":        "correct",
		"mute":           "mute",
		"mute-silent":    "mute",
		"verbose":        "verbose",
		"tamper":         "tamper",
		"selective-drop": "selective-drop",
		"equivocate":     "equivocate",
		"flooder":        "flooder",
		"replayer":       "replayer",
		"forge-spammer":  "forge-spammer",
	}
	for in, want := range wantName {
		b, err := Make(in, 3, rng, sign)
		if err != nil {
			t.Fatalf("Make(%q): %v", in, err)
		}
		if b.Name() != want {
			t.Errorf("Make(%q).Name() = %q, want %q", in, b.Name(), want)
		}
		if Known(in) != (in != "") { // fault plans must spell "correct" out
			t.Errorf("Known(%q) = %v", in, Known(in))
		}
	}
	if len(makers) != len(wantName)-1 {
		t.Errorf("vocabulary has %d names, this test knows %d", len(makers), len(wantName)-1)
	}
	if m, _ := Make("mute-silent", 3, nil, nil); !m.(*Mute).DropGossip {
		t.Error("mute-silent did not set DropGossip")
	}
	// Missing dependencies and unknown names fail.
	for _, name := range []string{"verbose", "selective-drop"} {
		if _, err := Make(name, 3, nil, sign); err == nil {
			t.Errorf("Make(%q) without rng accepted", name)
		}
	}
	if _, err := Make("equivocate", 3, rng, nil); err == nil {
		t.Error("Make(equivocate) without signer accepted")
	}
	if _, err := Make("gremlin", 3, rng, sign); err == nil || Known("gremlin") {
		t.Error("unknown behaviour accepted")
	}
}

func TestFaulty(t *testing.T) {
	for name, want := range map[string]bool{
		"": false, "correct": false, "mute": true, "equivocate": true,
	} {
		if Faulty(name) != want {
			t.Errorf("Faulty(%q) = %v", name, !want)
		}
	}
}

func TestSwitchableDelegatesAndSwaps(t *testing.T) {
	sw := NewSwitchable(nil)
	if sw.Name() != "correct" {
		t.Fatalf("zero switchable = %q", sw.Name())
	}
	pkt := &wire.Packet{Kind: wire.KindData, Sender: 1, Origin: 2, Payload: []byte("x")}
	if sw.FilterSend(pkt) != pkt {
		t.Fatal("correct switchable altered a packet")
	}
	sw.Set(&Mute{Self: 1})
	if sw.Name() != "mute" {
		t.Fatalf("after swap = %q", sw.Name())
	}
	if sw.FilterSend(pkt) != nil {
		t.Fatal("mute switchable forwarded another node's data")
	}
	sw.Set(nil)
	if sw.Name() != "correct" || sw.FilterSend(pkt) != pkt {
		t.Fatal("Set(nil) did not restore correct")
	}
	var zero Switchable
	if zero.Name() != "correct" || zero.FilterSend(pkt) != pkt {
		t.Fatal("zero value does not behave as correct")
	}
}

func TestEquivocateOriginatesConflictingVariants(t *testing.T) {
	signed := map[string]bool{}
	e := &Equivocate{
		Self:           5,
		OriginateEvery: 1,
		Sign: func(d []byte) []byte {
			signed[string(d)] = true
			return append([]byte("sig:"), d...)
		},
	}
	var sent []*wire.Packet
	collect := func(p *wire.Packet) { sent = append(sent, p) }
	e.Tick(collect) // fresh message, variant A
	e.Tick(collect) // variant B of the same message
	if len(sent) != 2 {
		t.Fatalf("got %d packets, want 2", len(sent))
	}
	a, b := sent[0], sent[1]
	if a.ID() != b.ID() {
		t.Fatalf("variants have different ids: %v vs %v", a.ID(), b.ID())
	}
	if a.Origin != 5 || a.Seq < equivocateSeqBase {
		t.Fatalf("bad origination: %+v", a)
	}
	if string(a.Payload) == string(b.Payload) {
		t.Fatal("variants carry identical payloads")
	}
	if string(a.Sig) == string(b.Sig) {
		t.Fatal("variant B was not re-signed")
	}
	// Both variants were signed over their own payload.
	if !signed[string(wire.DataSigBytes(a.ID(), a.Payload))] ||
		!signed[string(wire.DataSigBytes(b.ID(), b.Payload))] {
		t.Fatal("signing input did not cover both payloads")
	}
	// The next cycle uses a fresh sequence number.
	e.Tick(collect)
	if sent[2].ID() == a.ID() {
		t.Fatal("sequence number not advanced")
	}
}

func TestEquivocateFilterSendAlternates(t *testing.T) {
	e := &Equivocate{Self: 2, Sign: func(d []byte) []byte { return []byte("s") }}
	own := &wire.Packet{Kind: wire.KindData, Sender: 2, Origin: 2, Seq: 9,
		Payload: []byte("hello"), Sig: []byte("orig")}
	first := e.FilterSend(own)
	if first != own {
		t.Fatal("first transmission must be honest")
	}
	second := e.FilterSend(own)
	if second == own || string(second.Payload) == "hello" {
		t.Fatal("second transmission not mutated")
	}
	if own.Payload[0] != 'h' {
		t.Fatal("original packet mutated in place")
	}
	third := e.FilterSend(own)
	if third != own {
		t.Fatal("third transmission must be honest again")
	}
	// Other nodes' data passes untouched.
	other := &wire.Packet{Kind: wire.KindData, Sender: 2, Origin: 7, Payload: []byte("x")}
	if e.FilterSend(other) != other {
		t.Fatal("forwarded data altered")
	}
}
