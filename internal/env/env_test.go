package env

import (
	"testing"
	"time"

	"bbcast/internal/alloctest"
	"bbcast/internal/sim"
)

func TestSimClock(t *testing.T) {
	eng := sim.New(1)
	var c Clock = SimClock{Eng: eng}
	if c.Now() != 0 {
		t.Fatal("sim clock not at zero")
	}
	fired := false
	c.After(10*time.Millisecond, func() { fired = true })
	eng.RunAll()
	if !fired {
		t.Fatal("sim timer did not fire")
	}
	if c.Now() != 10*time.Millisecond {
		t.Fatalf("Now() = %v", c.Now())
	}
}

// TestSimClockAfterDoesNotAllocate: a timer costs the engine's recycled
// event record and nothing else, and After hands back no cancel.
func TestSimClockAfterDoesNotAllocate(t *testing.T) {
	eng := sim.New(1)
	var c Clock = SimClock{Eng: eng}
	fn := func() {}
	if cancel := c.After(time.Millisecond, fn); cancel != nil {
		t.Fatal("After returned a cancel function")
	}
	eng.RunAll() // warm the free list
	alloctest.AtMost(t, 0, func() {
		c.After(time.Millisecond, fn)
		eng.RunAll()
	})
}
