package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"bbcast/internal/alloctest"
)

// fullPacket sets every byte field a packet of kind k can carry, each with
// distinct bytes.
func fullPacket(k Kind) *Packet {
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	p := &Packet{
		Kind: k, Sender: 7, TTL: 2, Target: NoNode, Origin: 3, Seq: 41,
		Payload: fill(200, 'p'), Sig: fill(56, 's'),
		Gossip: []GossipEntry{
			{ID: MsgID{Origin: 3, Seq: 1}, Sig: fill(64, 'a')},
			{ID: MsgID{Origin: 4, Seq: 9}, Sig: fill(64, 'b')},
			{ID: MsgID{Origin: 5, Seq: 2}, Sig: fill(64, 'c')},
		},
		State: &OverlayState{
			Active: true, Neighbors: []NodeID{1, 2, 3}, ActiveNeighbors: []NodeID{2},
			DominatorNeighbors: []NodeID{3}, Suspects: []NodeID{9},
		},
		StateSig: fill(64, 'x'),
	}
	switch k {
	case KindSyncReq:
		p.Sync = &SyncBody{Have: []MsgID{{Origin: 1, Seq: 1}}}
	case KindSyncResp:
		p.Sync = &SyncBody{Entries: []SyncEntry{
			{ID: MsgID{Origin: 1, Seq: 1}, Payload: fill(30, 'q'), Sig: fill(64, 't'), HeaderSig: fill(64, 'h')},
			{ID: MsgID{Origin: 1, Seq: 2}, Payload: fill(31, 'r'), Sig: fill(64, 'u'), HeaderSig: fill(64, 'i')},
		}}
	}
	return p
}

// byteFields lists every non-empty byte field of p by name.
func byteFields(p *Packet) map[string][]byte {
	f := map[string][]byte{"Payload": p.Payload, "Sig": p.Sig, "StateSig": p.StateSig}
	for i, g := range p.Gossip {
		f[fmt.Sprintf("Gossip[%d].Sig", i)] = g.Sig
	}
	for i, e := range p.SyncEntries() {
		n := fmt.Sprintf("Sync[%d].", i)
		f[n+"Payload"], f[n+"Sig"], f[n+"HeaderSig"] = e.Payload, e.Sig, e.HeaderSig
	}
	return f
}

// follows reports whether b starts where a's backing array ends.
func follows(a, b []byte) bool {
	return unsafe.Add(unsafe.Pointer(unsafe.SliceData(a)), cap(a)) == unsafe.Pointer(unsafe.SliceData(b))
}

// TestDecodedFieldsAreOwned: a decoded packet survives the reuse of its
// datagram buffer, and every byte field is capped at its length, so no
// holder's append can reach into the bytes that follow it.
func TestDecodedFieldsAreOwned(t *testing.T) {
	for k := KindData; k <= KindSyncResp; k++ {
		want := fullPacket(k)
		buf := want.Marshal()
		var got Packet
		if err := UnmarshalInto(&got, buf); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		for i := range buf {
			buf[i] = 0xEE
		}
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("%v: decoded packet changed with its datagram buffer:\n got %+v\nwant %+v", k, &got, want)
		}
		for name, f := range byteFields(&got) {
			if cap(f) != len(f) {
				t.Errorf("%v: %s has cap %d, len %d", k, name, cap(f), len(f))
			}
		}
	}
}

// TestDecodeAllocationCeiling counts what one decode allocates into a reused
// Packet, and so which fields share an allocation: a data frame's Payload and
// Sig share one; every gossip-entry signature has its own, shared with
// neither another entry nor the payload; the state record is its struct, one
// id array and its signature.
func TestDecodeAllocationCeiling(t *testing.T) {
	alloctest.SkipUnderRace(t)
	data := fullPacket(KindData)
	data.Gossip, data.State, data.StateSig = nil, nil, nil
	gossip := fullPacket(KindData)
	gossip.State, gossip.StateSig = nil, nil
	for _, tc := range []struct {
		name   string
		pkt    *Packet
		allocs float64
	}{
		{"data", data, 1},
		{"data+gossip", gossip, 1 + 1 + 3}, // pair, entry slice, three signatures
		{"data+gossip+state", fullPacket(KindData), 5 + 3},
	} {
		buf := tc.pkt.Marshal()
		var dst Packet
		if got := testing.AllocsPerRun(100, func() { _ = UnmarshalInto(&dst, buf) }); got != tc.allocs {
			t.Errorf("%s: %v allocations per decode, want %v", tc.name, got, tc.allocs)
		}
	}
}

// TestDecodeDataFrameAllocationCeiling: a data frame's Payload and Sig are
// one allocation of exactly len(Payload)+len(Sig) bytes, Sig right after
// Payload. 200+56 is a size class of its own; two allocations would take
// 208+64.
func TestDecodeDataFrameAllocationCeiling(t *testing.T) {
	alloctest.SkipUnderRace(t)
	pkt := fullPacket(KindData)
	pkt.Gossip, pkt.State, pkt.StateSig = nil, nil, nil
	buf := pkt.Marshal()
	var dst Packet
	if err := UnmarshalInto(&dst, buf); err != nil {
		t.Fatal(err)
	}
	if !follows(dst.Payload, dst.Sig) {
		t.Fatal("Sig does not follow Payload in one array")
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_ = UnmarshalInto(&dst, buf)
	}
	runtime.ReadMemStats(&after)
	if got, want := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(len(pkt.Payload)+len(pkt.Sig)); got != want {
		t.Fatalf("%d bytes allocated per decode, want %d", got, want)
	}
}

// TestAppendMarshalDoesNotAllocate: AppendMarshal writes what Marshal returns,
// into the caller's buffer, and allocates nothing once the buffer is large
// enough.
func TestAppendMarshalDoesNotAllocate(t *testing.T) {
	for k := KindData; k <= KindSyncResp; k++ {
		pkt := fullPacket(k)
		buf := pkt.AppendMarshal(nil)
		if !bytes.Equal(buf, pkt.Marshal()) {
			t.Fatalf("%v: AppendMarshal and Marshal differ", k)
		}
		prefix := pkt.AppendMarshal([]byte("head"))
		if string(prefix[:4]) != "head" || !bytes.Equal(prefix[4:], buf) {
			t.Fatalf("%v: AppendMarshal did not append", k)
		}
	}
	pkt := fullPacket(KindData)
	buf := pkt.Marshal()
	alloctest.AtMost(t, 0, func() { buf = pkt.AppendMarshal(buf[:0]) })
}
