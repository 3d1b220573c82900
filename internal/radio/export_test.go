package radio

import "bbcast/internal/wire"

// Frame-life stages, for tests in package radio_test.
const (
	FrameOnAir     = frameOnAir
	FrameDelivered = frameDelivered
	FrameBatchDone = frameBatchDone
)

// SetFrameHook installs the frame-life test seam and returns a function that
// removes it. Tests using it must not run in parallel with other tests of
// this package.
func SetFrameHook(hook func(stage string, node wire.NodeID, pkt *wire.Packet)) (restore func()) {
	frameHook = hook
	return func() { frameHook = nil }
}
