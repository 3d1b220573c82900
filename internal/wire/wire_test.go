package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestPacketSize holds a Packet at 168 bytes, six to a 1 KiB chunk of sent
// frames: the sync content sits behind one pointer and Meta packs into 32
// bytes. One more word and a chunk holds five.
func TestPacketSize(t *testing.T) {
	if size := unsafe.Sizeof(Meta{}); size > 32 {
		t.Errorf("Meta is %d bytes, want <= 32", size)
	}
	if size := unsafe.Sizeof(Packet{}); size > 168 {
		t.Errorf("Packet is %d bytes, want <= 168", size)
	}
}

func samplePacket() *Packet {
	return &Packet{
		Kind:    KindData,
		Sender:  7,
		TTL:     2,
		Target:  NoNode,
		Origin:  3,
		Seq:     41,
		Payload: []byte("hello world"),
		Sig:     []byte{1, 2, 3, 4},
		State: &OverlayState{
			Active:          true,
			Neighbors:       []NodeID{1, 2, 3},
			ActiveNeighbors: []NodeID{2},
			Suspects:        []NodeID{9},
		},
		StateSig: []byte{9, 9},
	}
}

func TestRoundTripData(t *testing.T) {
	p := samplePacket()
	got, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", p, got)
	}
}

func TestRoundTripGossip(t *testing.T) {
	p := &Packet{
		Kind:   KindGossip,
		Sender: 1,
		TTL:    1,
		Target: NoNode,
		Origin: NoNode,
		Gossip: []GossipEntry{
			{ID: MsgID{Origin: 3, Seq: 1}, Sig: []byte{0xa}},
			{ID: MsgID{Origin: 4, Seq: 9}, Sig: []byte{0xb, 0xc}},
		},
	}
	got, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", p, got)
	}
}

func TestRoundTripMinimal(t *testing.T) {
	p := &Packet{Kind: KindRequest, Sender: 2, TTL: 1, Target: 5, Origin: 1, Seq: 1}
	got, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", p, got)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("nil input should error")
	}
	if _, err := Unmarshal([]byte{99}); err != ErrBadVersion {
		t.Fatalf("bad version: got %v", err)
	}
	p := &Packet{Kind: Kind(200), Sender: 1, TTL: 1, Target: NoNode}
	if _, err := Unmarshal(p.Marshal()); err != ErrBadKind {
		t.Fatalf("bad kind: got %v", err)
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	full := samplePacket().Marshal()
	for i := 1; i < len(full); i++ {
		if _, err := Unmarshal(full[:i]); err == nil {
			t.Fatalf("truncation at %d bytes did not error", i)
		}
	}
}

func TestUnmarshalHugeLengthRejected(t *testing.T) {
	p := &Packet{Kind: KindData, Sender: 1, TTL: 1, Target: NoNode, Payload: []byte("x")}
	b := p.Marshal()
	// Payload length field sits right after the 19-byte fixed header.
	b[19] = 0xff
	b[20] = 0xff
	b[21] = 0xff
	b[22] = 0xff
	if _, err := Unmarshal(b); err == nil {
		t.Fatal("oversized length field should be rejected")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := samplePacket()
	p.Gossip = []GossipEntry{{ID: MsgID{Origin: 1, Seq: 2}, Sig: []byte{5}}}
	c := p.Clone()
	if !reflect.DeepEqual(p, c) {
		t.Fatal("clone differs")
	}
	c.Payload[0] = 'X'
	c.Sig[0] = 0xFF
	c.Gossip[0].Sig[0] = 0xFF
	c.State.Neighbors[0] = 42
	c.StateSig[0] = 0xFF
	if p.Payload[0] == 'X' || p.Sig[0] == 0xFF || p.Gossip[0].Sig[0] == 0xFF ||
		p.State.Neighbors[0] == 42 || p.StateSig[0] == 0xFF {
		t.Fatal("clone aliases original buffers")
	}
}

func TestMsgIDOrdering(t *testing.T) {
	a := MsgID{Origin: 1, Seq: 5}
	b := MsgID{Origin: 2, Seq: 1}
	c := MsgID{Origin: 1, Seq: 6}
	if !a.Less(b) || !a.Less(c) || b.Less(a) || c.Less(a) {
		t.Fatal("Less ordering wrong")
	}
	if a.Less(a) {
		t.Fatal("Less not irreflexive")
	}
	if a.String() != "1/5" {
		t.Fatalf("String = %q", a.String())
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindData:         "data",
		KindGossip:       "gossip",
		KindRequest:      "request",
		KindFindMissing:  "find-missing",
		KindOverlayState: "overlay-state",
		Kind(99):         "kind(99)",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestSigBytesDomainSeparation(t *testing.T) {
	id := MsgID{Origin: 1, Seq: 2}
	if bytes.Equal(DataSigBytes(id, nil), HeaderSigBytes(id)) {
		t.Fatal("data and header signing bytes must differ for empty payload")
	}
	if !bytes.Equal(HeaderSigBytes(id), HeaderSigBytes(id)) {
		t.Fatal("HeaderSigBytes not deterministic")
	}
}

// TestSigBytesAreExactlySized pins the wrappers' capacity to the encoded
// length (an undersized hint costs every call a regrow) and the append forms
// to the same bytes.
func TestSigBytesAreExactlySized(t *testing.T) {
	fifteen := make([]NodeID, 15)
	for i := range fifteen {
		fifteen[i] = NodeID(i + 1)
	}
	records := map[string]*OverlayState{
		"empty": {},
		"15-neighbour": {
			Active: true, Dominator: true,
			Neighbors: fifteen, ActiveNeighbors: fifteen[:9], DominatorNeighbors: fifteen[:4], Suspects: fifteen[13:],
		},
	}
	for name, s := range records {
		b := StateSigBytes(7, s)
		if cap(b) != len(b) {
			t.Errorf("StateSigBytes(%s): cap %d != len %d", name, cap(b), len(b))
		}
		if got := AppendStateSigBytes([]byte("prefix"), 7, s); !bytes.Equal(got[6:], b) {
			t.Errorf("AppendStateSigBytes(%s) differs from StateSigBytes", name)
		}
	}
	id, payload := MsgID{Origin: 3, Seq: 9}, []byte("payload")
	if b := DataSigBytes(id, payload); cap(b) != len(b) || !bytes.Equal(AppendDataSigBytes(nil, id, payload), b) {
		t.Errorf("DataSigBytes: cap %d, len %d, or append form differs", cap(b), len(b))
	}
	if b := HeaderSigBytes(id); cap(b) != len(b) || !bytes.Equal(AppendHeaderSigBytes(nil, id), b) {
		t.Errorf("HeaderSigBytes: cap %d, len %d, or append form differs", cap(b), len(b))
	}
}

func TestStateSigBytesSensitive(t *testing.T) {
	s := &OverlayState{Active: true, Neighbors: []NodeID{1, 2}}
	base := StateSigBytes(5, s)
	if bytes.Equal(base, StateSigBytes(6, s)) {
		t.Fatal("sender not bound into state signature bytes")
	}
	s2 := &OverlayState{Active: false, Neighbors: []NodeID{1, 2}}
	if bytes.Equal(base, StateSigBytes(5, s2)) {
		t.Fatal("active flag not bound")
	}
	s3 := &OverlayState{Active: true, Neighbors: []NodeID{1}, ActiveNeighbors: []NodeID{2}}
	if bytes.Equal(base, StateSigBytes(5, s3)) {
		t.Fatal("list boundaries not bound (ambiguous concatenation)")
	}
}

func TestAirSizeCoversMarshal(t *testing.T) {
	p := samplePacket()
	if p.AirSize() < len(p.Marshal()) {
		t.Fatalf("AirSize %d < marshal size %d", p.AirSize(), len(p.Marshal()))
	}
}

// Property: Marshal/Unmarshal round-trips arbitrary packets.
func TestQuickRoundTrip(t *testing.T) {
	f := func(kindRaw uint8, sender, target, origin uint32, seq uint32, ttl uint8,
		payload, sig []byte, gossipN uint8, active bool, nbrs []uint32) bool {
		p := &Packet{
			Kind:    Kind(kindRaw%NumKinds) + KindData,
			Sender:  NodeID(sender),
			TTL:     ttl,
			Target:  NodeID(target),
			Origin:  NodeID(origin),
			Seq:     Seq(seq),
			Payload: payload,
			Sig:     sig,
		}
		for i := uint8(0); i < gossipN%8; i++ {
			p.Gossip = append(p.Gossip, GossipEntry{
				ID:  MsgID{Origin: NodeID(i), Seq: Seq(seq + uint32(i))},
				Sig: []byte{i, i + 1},
			})
		}
		if active {
			ids := make([]NodeID, 0, len(nbrs))
			for _, n := range nbrs {
				ids = append(ids, NodeID(n))
			}
			p.State = &OverlayState{Active: true, Neighbors: ids}
			p.StateSig = []byte{1}
		}
		got, err := Unmarshal(p.Marshal())
		if err != nil {
			return false
		}
		// Normalize empty-vs-nil slices before comparing.
		if len(p.Payload) == 0 {
			p.Payload = nil
		}
		if len(p.Sig) == 0 {
			p.Sig = nil
		}
		if p.State != nil && len(p.State.Neighbors) == 0 {
			p.State.Neighbors = nil
		}
		return reflect.DeepEqual(p, got)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Unmarshal never panics on arbitrary input.
func TestQuickUnmarshalNoPanic(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on input %x: %v", b, r)
			}
		}()
		p, err := Unmarshal(b)
		return err == nil && p != nil || err != nil && p == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding valid bytes, mutating one byte, never panics.
func TestQuickBitFlipNoPanic(t *testing.T) {
	base := samplePacket().Marshal()
	f := func(idx uint16, val byte) bool {
		b := make([]byte, len(base))
		copy(b, base)
		b[int(idx)%len(b)] = val
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic: %v", r)
			}
		}()
		Unmarshal(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripSync(t *testing.T) {
	req := &Packet{
		Kind: KindSyncReq, Sender: 12, TTL: 1, Target: 3, Origin: NoNode,
		Sync: &SyncBody{Have: []MsgID{{Origin: 1, Seq: 1}, {Origin: 1, Seq: 2}, {Origin: 7, Seq: 9}}},
	}
	resp := &Packet{
		Kind: KindSyncResp, Sender: 3, TTL: 1, Target: 12, Origin: NoNode,
		Sync: &SyncBody{Entries: []SyncEntry{
			{ID: MsgID{Origin: 1, Seq: 3}, Payload: []byte("alpha"), Sig: []byte{1, 2, 3}, HeaderSig: []byte{4, 5}},
			{ID: MsgID{Origin: 7, Seq: 10}, Payload: []byte("beta"), Sig: []byte{6}},
		}},
	}
	for _, p := range []*Packet{req, resp} {
		got, err := Unmarshal(p.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, got) {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", p, got)
		}
	}
	// Sync fields are kind-conditional: attached to any other kind they must
	// not reach the wire, so pre-sync decoders stay byte-compatible.
	data := samplePacket()
	plain := data.Marshal()
	data.Sync = &SyncBody{Have: []MsgID{{Origin: 1, Seq: 1}}, Entries: []SyncEntry{{ID: MsgID{Origin: 1, Seq: 1}}}}
	if !bytes.Equal(data.Marshal(), plain) {
		t.Fatal("sync fields leaked into a non-sync packet encoding")
	}
}

func TestCloneSyncIsDeep(t *testing.T) {
	p := &Packet{
		Kind: KindSyncResp, Sender: 3, TTL: 1, Target: 12, Origin: NoNode,
		Sync: &SyncBody{
			Have: []MsgID{{Origin: 2, Seq: 2}},
			Entries: []SyncEntry{
				{ID: MsgID{Origin: 1, Seq: 3}, Payload: []byte("alpha"), Sig: []byte{1, 2}, HeaderSig: []byte{3}},
			},
		},
	}
	c := p.Clone()
	if !reflect.DeepEqual(p, c) {
		t.Fatalf("clone mismatch:\n in: %+v\nout: %+v", p, c)
	}
	if c.Sync == p.Sync {
		t.Fatal("clone shares the sync body")
	}
	c.Sync.Have[0] = MsgID{Origin: 99, Seq: 99}
	c.Sync.Entries[0].Payload[0] = 'X'
	c.Sync.Entries[0].Sig[0] = 0xFF
	if p.Sync.Have[0].Origin == 99 {
		t.Fatal("clone shares SyncHave backing array")
	}
	if p.Sync.Entries[0].Payload[0] == 'X' || p.Sync.Entries[0].Sig[0] == 0xFF {
		t.Fatal("clone shares SyncEntries backing arrays")
	}
}
