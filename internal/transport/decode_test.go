package transport

import (
	"bytes"
	"net"
	"reflect"
	"testing"

	"bbcast/internal/alloctest"
	"bbcast/internal/chunk"
	"bbcast/internal/sig"
	"bbcast/internal/wire"
)

// dataFrame is a 256-byte-payload data frame numbered seq.
func dataFrame(seq wire.Seq) *wire.Packet {
	return &wire.Packet{
		Kind: wire.KindData, Sender: 1, TTL: 1, Target: wire.NoNode, Origin: 1, Seq: seq,
		Payload: bytes.Repeat([]byte{byte(seq)}, 256), Sig: bytes.Repeat([]byte{0x5a}, 64),
	}
}

// TestReadLoopPacketsAreNeverOverwritten decodes datagrams the way readLoop
// does, through one reused buffer into one packet chunk, with garbage between
// them, across several chunks: every packet handed out still reads as its own
// datagram after all the later reads.
func TestReadLoopPacketsAreNeverOverwritten(t *testing.T) {
	buf := make([]byte, maxDatagram)
	var pkts chunk.Of[wire.Packet]
	var want, got []*wire.Packet
	for seq := wire.Seq(1); seq <= wire.Seq(3*chunk.Len[wire.Packet]()+1); seq++ {
		garbage := copy(buf, []byte{1, byte(wire.KindData)}) // truncated header
		if err := wire.UnmarshalInto(pkts.New(), buf[:garbage]); err == nil {
			t.Fatal("a truncated datagram decoded")
		}
		pkt := dataFrame(seq)
		n := copy(buf, pkt.Marshal())
		dec := pkts.New()
		if err := wire.UnmarshalInto(dec, buf[:n]); err != nil {
			t.Fatal(err)
		}
		want, got = append(want, pkt), append(got, dec)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("packet %d changed after later reads: %+v", i, got[i])
		}
		for j := range i {
			if got[i] == got[j] {
				t.Fatalf("packets %d and %d share a slot", j, i)
			}
		}
	}
}

// TestDecodeDataFrameAllocationCeiling: readLoop decodes a data frame in one
// allocation, its payload and signature together. The packet is a sixth of
// its chunk's allocation, which AllocsPerRun's whole-number average drops; a
// packet of its own would make two.
func TestDecodeDataFrameAllocationCeiling(t *testing.T) {
	b := dataFrame(1).Marshal()
	var pkts chunk.Of[wire.Packet]
	alloctest.AtMost(t, 1, func() {
		if err := wire.UnmarshalInto(pkts.New(), b); err != nil {
			t.Fatal(err)
		}
	})
}

// TestUDPSendDoesNotAllocate: once its buffer has grown, a node encodes and
// sends a frame to its peers without allocating. The frames go to a socket
// nobody reads, and the count runs on the node's own goroutine, so no other
// protocol work runs meanwhile.
func TestUDPSendDoesNotAllocate(t *testing.T) {
	alloctest.SkipUnderRace(t)
	n, err := NewUDPNode(fastConfig(), 0, sig.NewHMAC(1, 1), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if err := n.SetPeers([]string{peer.LocalAddr().String(), peer.LocalAddr().String()}); err != nil {
		t.Fatal(err)
	}
	frame := dataFrame(1)
	var allocs float64
	// Only the test's goroutine may fail or skip it, so loop just counts.
	n.call(func() { allocs = testing.AllocsPerRun(100, func() { n.send(frame) }) })
	if allocs > 0 {
		t.Errorf("%v allocations per send, ceiling is 0", allocs)
	}
}
