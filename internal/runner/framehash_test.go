package runner

import (
	"hash/fnv"
	"testing"

	"bbcast/internal/wire"
)

// frameHash runs sc and returns a 64-bit FNV-1a hash over the wire encoding
// of every frame the nodes send, in send order, and the number of frames.
func frameHash(t *testing.T, sc Scenario) (uint64, int) {
	t.Helper()
	h := fnv.New64a()
	var buf []byte
	frames := 0
	sentFrameHook = func(pkt *wire.Packet) {
		buf = pkt.AppendMarshal(buf[:0])
		h.Write(buf)
		frames++
	}
	defer func() { sentFrameHook = nil }()
	if _, err := Run(sc); err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	return h.Sum64(), frames
}

// TestFrameHashDeterminism runs each trace-golden scenario twice in one
// process and requires the same bytes on the air, frame for frame. Go
// randomises map iteration per run, so an order leak that reaches any frame
// shows here even where the trace does not record it. The logged hashes
// (go test -v) compare the frames of two versions of the code.
func TestFrameHashDeterminism(t *testing.T) {
	for _, sc := range goldenConfigs() {
		first, frames := frameHash(t, sc)
		again, framesAgain := frameHash(t, sc)
		if first != again || frames != framesAgain {
			t.Errorf("%s: two runs sent different frames: %016x (%d frames) vs %016x (%d)",
				sc.Name, first, frames, again, framesAgain)
		}
		t.Logf("%s: %d frames, hash %016x", sc.Name, frames, first)
	}
}
