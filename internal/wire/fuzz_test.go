package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzUnmarshal drives the codec with arbitrary bytes (run with
// `go test -fuzz=FuzzUnmarshal ./internal/wire` for continuous fuzzing; the
// seed corpus runs in normal test mode).
func FuzzUnmarshal(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add(samplePacket().Marshal())
	gossip := &Packet{
		Kind: KindGossip, Sender: 1, TTL: 1, Target: NoNode, Origin: NoNode,
		Gossip: []GossipEntry{{ID: MsgID{Origin: 3, Seq: 1}, Sig: []byte{0xa}}},
	}
	f.Add(gossip.Marshal())
	// Truncations of a valid packet at a few interesting boundaries (the
	// deterministic sweep over every prefix lives in TestUnmarshalTruncated).
	full := samplePacket().Marshal()
	for _, cut := range []int{1, 2, 3, 7, 15, len(full) / 2, len(full) - 1} {
		if cut < len(full) {
			f.Add(full[:cut])
		}
	}
	// Oversized declared lengths: a hostile packet claiming a payload far
	// beyond the buffer, and one just past maxSliceLen.
	huge := append([]byte{}, full[:19]...)
	huge = binary.LittleEndian.AppendUint32(huge, 0xFFFFFFFF)
	f.Add(huge)
	capped := append([]byte{}, full[:19]...)
	capped = binary.LittleEndian.AppendUint32(capped, maxSliceLen+1)
	f.Add(capped)
	f.Fuzz(func(t *testing.T, data []byte) {
		pkt, err := Unmarshal(data)
		if err != nil {
			if pkt != nil {
				t.Fatal("error with non-nil packet")
			}
			return
		}
		// Round-trip stability: re-marshalling a decoded packet and decoding
		// again must be a fixpoint.
		again, err := Unmarshal(pkt.Marshal())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(again.Marshal(), pkt.Marshal()) {
			t.Fatal("marshal not a fixpoint after one round trip")
		}
	})
}

// TestUnmarshalTruncatedAllKinds feeds every strict prefix of a valid packet
// of each kind to the decoder: none may panic, and all must fail cleanly (a
// shorter valid packet cannot be a prefix of a longer one in this format,
// because every variable-length field is length-prefixed and the state flag
// byte is mandatory).
func TestUnmarshalTruncatedAllKinds(t *testing.T) {
	for _, pkt := range fuzzKindSamples() {
		full := pkt.Marshal()
		for cut := 0; cut < len(full); cut++ {
			got, err := Unmarshal(full[:cut])
			if err == nil {
				t.Fatalf("kind %v: decoding %d of %d bytes succeeded: %+v", pkt.Kind, cut, len(full), got)
			}
			if got != nil {
				t.Fatalf("kind %v: error with non-nil packet at cut %d", pkt.Kind, cut)
			}
		}
		if _, err := Unmarshal(full); err != nil {
			t.Fatalf("kind %v: full packet failed to decode: %v", pkt.Kind, err)
		}
	}
}

// TestUnmarshalOversizedLengths checks that declared slice lengths beyond the
// buffer or beyond maxSliceLen are rejected without huge allocations.
func TestUnmarshalOversizedLengths(t *testing.T) {
	full := samplePacket().Marshal()
	// The payload length field sits right after the 19-byte fixed header
	// (version, kind, ttl, then four 4-byte id/seq fields).
	const payloadLenOff = 19
	for _, declared := range []uint32{maxSliceLen + 1, 1 << 30, 0xFFFFFFFF} {
		evil := append([]byte{}, full...)
		binary.LittleEndian.PutUint32(evil[payloadLenOff:], declared)
		got, err := Unmarshal(evil)
		if err == nil {
			t.Fatalf("declared payload length %d accepted: %+v", declared, got)
		}
		if !errors.Is(err, ErrShortPacket) {
			t.Fatalf("declared payload length %d: got %v, want ErrShortPacket", declared, err)
		}
	}
	// A declared length larger than the remaining buffer but under the cap
	// must also fail as a short packet, not read out of bounds.
	evil := append([]byte{}, full...)
	binary.LittleEndian.PutUint32(evil[payloadLenOff:], uint32(len(full)))
	if _, err := Unmarshal(evil); !errors.Is(err, ErrShortPacket) {
		t.Fatalf("over-buffer payload length: got %v, want ErrShortPacket", err)
	}
}

// fuzzKindSamples returns one representative valid packet per kind.
func fuzzKindSamples() []*Packet {
	return []*Packet{
		samplePacket(),
		{
			Kind: KindGossip, Sender: 2, TTL: 3, Target: NoNode, Origin: NoNode,
			Gossip: []GossipEntry{
				{ID: MsgID{Origin: 3, Seq: 1}, Sig: []byte{0xa, 0xb}},
				{ID: MsgID{Origin: 9, Seq: 4}, Sig: []byte{0xc}},
			},
		},
		{Kind: KindRequest, Sender: 5, TTL: 1, Target: 6, Origin: 3, Seq: 41, Sig: []byte{1, 2, 3}},
		{Kind: KindFindMissing, Sender: 5, TTL: 4, Target: NoNode, Origin: 3, Seq: 41, Sig: []byte{1, 2, 3}},
		{
			Kind: KindOverlayState, Sender: 8, TTL: 1, Target: NoNode, Origin: NoNode,
			State: &OverlayState{
				Active: true, Dominator: true,
				Neighbors:       []NodeID{1, 2, 3},
				ActiveNeighbors: []NodeID{2},
				Suspects:        []NodeID{3},
			},
			StateSig: []byte{9, 9},
		},
		{
			Kind: KindSyncReq, Sender: 4, TTL: 1, Target: 9, Origin: NoNode,
			Sync: &SyncBody{Have: []MsgID{{Origin: 1, Seq: 2}, {Origin: 3, Seq: 4}}},
		},
		{
			Kind: KindSyncResp, Sender: 9, TTL: 1, Target: 4, Origin: NoNode,
			Sync: &SyncBody{Entries: []SyncEntry{
				{ID: MsgID{Origin: 1, Seq: 5}, Payload: []byte("pay"), Sig: []byte{1, 2}, HeaderSig: []byte{3}},
				{ID: MsgID{Origin: 2, Seq: 6}, Payload: []byte("load"), Sig: []byte{4}},
			}},
		},
	}
}
