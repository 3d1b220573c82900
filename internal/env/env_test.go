package env

import (
	"testing"
	"time"

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

func TestSimClockCancel(t *testing.T) {
	eng := sim.New(1)
	var c Clock = SimClock{Eng: eng}
	fired := false
	cancel := c.After(10*time.Millisecond, func() { fired = true })
	cancel()
	eng.RunAll()
	if fired {
		t.Fatal("cancelled sim timer fired")
	}
}
