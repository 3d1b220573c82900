// Package env defines the small runtime interface the protocol stack needs
// from its host — a clock and timers — so the same code runs inside the
// deterministic simulator and over a real transport.
package env

import (
	"time"

	"bbcast/internal/sim"
)

// Clock provides virtual or real time and one-shot timers.
type Clock interface {
	// Now returns the current time as an offset from an arbitrary epoch.
	Now() time.Duration
	// After runs fn once after d. The returned function cancels the timer;
	// cancelling a fired timer is a no-op.
	After(d time.Duration, fn func()) (cancel func())
}

// SimClock adapts a simulation engine to Clock. It is the only Clock: the
// simulator moves the engine from event to event, and a live node moves its
// own engine to wall time.
type SimClock struct {
	Eng *sim.Engine
}

var _ Clock = SimClock{}

// Now implements Clock.
func (c SimClock) Now() time.Duration { return c.Eng.Now() }

// After implements Clock.
func (c SimClock) After(d time.Duration, fn func()) func() {
	t := c.Eng.After(d, fn)
	return func() { t.Stop() }
}
