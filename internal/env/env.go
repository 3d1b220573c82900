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
	// After runs fn once after d, a negative d counting as zero. Timers fire
	// in deadline order, and timers with equal deadlines in the order they
	// were armed: core's recovery timers rely on that, passing one shared fn
	// for every timer and keeping the timers themselves as values in a heap
	// popped in the same order. Timers cannot be cancelled: the protocol
	// re-checks a timer's precondition when it fires and does nothing if the
	// state that armed it has moved on. The result is nil; it stays in the
	// signature only until the benchmark's wrapping clock stops returning
	// it.
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

// After implements Clock. It schedules fn on the engine and allocates
// nothing once the engine's free list is warm.
func (c SimClock) After(d time.Duration, fn func()) func() {
	c.Eng.After(d, fn)
	return nil
}
