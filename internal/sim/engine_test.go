package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := New(1)
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestAfterFiresInOrder(t *testing.T) {
	e := New(1)
	var got []int
	e.After(30*time.Millisecond, func() { got = append(got, 3) })
	e.After(10*time.Millisecond, func() { got = append(got, 1) })
	e.After(20*time.Millisecond, func() { got = append(got, 2) })
	e.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(time.Millisecond, func() { got = append(got, i) })
	}
	e.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events out of scheduling order: %v", got)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	e := New(1)
	var at time.Duration
	e.After(42*time.Millisecond, func() { at = e.Now() })
	e.RunAll()
	if at != 42*time.Millisecond {
		t.Fatalf("fired at %v, want 42ms", at)
	}
}

func TestRunStopsAtDeadline(t *testing.T) {
	e := New(1)
	fired := 0
	e.After(10*time.Millisecond, func() { fired++ })
	e.After(30*time.Millisecond, func() { fired++ })
	n := e.Run(20 * time.Millisecond)
	if n != 1 || fired != 1 {
		t.Fatalf("fired %d events, want 1", fired)
	}
	if e.Now() != 20*time.Millisecond {
		t.Fatalf("Now() = %v, want 20ms", e.Now())
	}
	e.RunAll()
	if fired != 2 {
		t.Fatalf("second event never fired")
	}
}

func TestNextReportsEarliestPendingDeadline(t *testing.T) {
	e := New(1)
	if at, ok := e.Next(); ok {
		t.Fatalf("empty queue: Next() = %v, true", at)
	}

	head := e.After(5*time.Millisecond, func() {})
	var got []int
	e.After(10*time.Millisecond, func() { got = append(got, 1) })
	e.After(10*time.Millisecond, func() { got = append(got, 2) })
	e.After(20*time.Millisecond, func() { got = append(got, 3) })
	if at, ok := e.Next(); !ok || at != 5*time.Millisecond {
		t.Fatalf("Next() = %v, %v; want 5ms, true", at, ok)
	}

	// A cancelled head is dropped, not reported, and Next does not fire or
	// move the clock.
	head.Stop()
	if at, ok := e.Next(); !ok || at != 10*time.Millisecond {
		t.Fatalf("after cancelling the head: Next() = %v, %v; want 10ms, true", at, ok)
	}
	if len(e.queue) != 3 || e.Now() != 0 || e.Processed() != 0 {
		t.Fatalf("Next changed the engine: queue %d, now %v, processed %d", len(e.queue), e.Now(), e.Processed())
	}

	// Equal deadlines: Next keeps reporting the shared instant until both
	// events have fired, in scheduling order.
	e.Run(10 * time.Millisecond)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("equal deadlines fired %v, want [1 2]", got)
	}
	if at, ok := e.Next(); !ok || at != 20*time.Millisecond {
		t.Fatalf("after the 10ms pair: Next() = %v, %v; want 20ms, true", at, ok)
	}
	e.RunAll()
	if at, ok := e.Next(); ok {
		t.Fatalf("drained queue: Next() = %v, true", at)
	}

	// Only cancelled events left: Next reports nothing and empties the queue.
	e.After(time.Millisecond, func() {}).Stop()
	e.After(time.Millisecond, func() {}).Stop()
	if at, ok := e.Next(); ok || len(e.queue) != 0 {
		t.Fatalf("all cancelled: Next() = %v, %v with %d queued", at, ok, len(e.queue))
	}
}

func TestTimerStop(t *testing.T) {
	e := New(1)
	fired := false
	tm := e.After(time.Millisecond, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true for pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	e.RunAll()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	e := New(1)
	tm := e.After(time.Millisecond, func() {})
	e.RunAll()
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
	if tm.Stop() {
		t.Fatal("Stop after fire should report false")
	}
}

func TestScheduleInPastRunsNow(t *testing.T) {
	e := New(1)
	var at time.Duration
	e.After(10*time.Millisecond, func() {
		e.At(0, func() { at = e.Now() })
	})
	e.RunAll()
	if at != 10*time.Millisecond {
		t.Fatalf("past event ran at %v, want now (10ms)", at)
	}
}

func TestEveryRepeatsAndStops(t *testing.T) {
	e := New(1)
	count := 0
	stop := e.Every(10*time.Millisecond, func() {
		count++
		if count == 5 {
			// stop from within the callback
		}
	})
	e.Run(45 * time.Millisecond)
	if count != 4 {
		t.Fatalf("count = %d, want 4 after 45ms of 10ms period", count)
	}
	stop()
	e.Run(200 * time.Millisecond)
	if count != 4 {
		t.Fatalf("ticker fired after stop: count = %d", count)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New(1)
	depth := 0
	var recur func()
	recur = func() {
		depth++
		if depth < 100 {
			e.After(time.Microsecond, recur)
		}
	}
	e.After(0, recur)
	e.RunAll()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	trace := func(seed int64) []int64 {
		e := New(seed)
		var out []int64
		var tick func()
		tick = func() {
			out = append(out, int64(e.Now()), e.Rand().Int63n(1000))
			if len(out) < 200 {
				e.After(time.Duration(1+e.Rand().Intn(50))*time.Millisecond, tick)
			}
		}
		e.After(0, tick)
		e.RunAll()
		return out
	}
	a, b := trace(42), trace(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := trace(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestSubRandDeterministicAndDistinct(t *testing.T) {
	e1, e2 := New(7), New(7)
	r1, r2 := e1.SubRand(5), e2.SubRand(5)
	for i := 0; i < 100; i++ {
		if r1.Int63() != r2.Int63() {
			t.Fatal("SubRand not deterministic for same seed/id")
		}
	}
	ra, rb := e1.SubRand(1), e1.SubRand(2)
	same := true
	for i := 0; i < 10; i++ {
		if ra.Int63() != rb.Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("SubRand streams for distinct ids are identical")
	}
}

func TestProcessedCounter(t *testing.T) {
	e := New(1)
	for i := 0; i < 17; i++ {
		e.After(time.Duration(i)*time.Millisecond, func() {})
	}
	e.RunAll()
	if e.Processed() != 17 {
		t.Fatalf("Processed = %d, want 17", e.Processed())
	}
}

// Property: for any set of delays, events fire in nondecreasing time order.
func TestQuickEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New(99)
		var times []time.Duration
		for _, d := range delays {
			e.After(time.Duration(d)*time.Microsecond, func() {
				times = append(times, e.Now())
			})
		}
		e.RunAll()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: stopping a random subset of timers means exactly the others fire.
func TestQuickTimerStopSubset(t *testing.T) {
	f := func(delays []uint8, mask uint64) bool {
		if len(delays) > 64 {
			delays = delays[:64]
		}
		e := New(3)
		fired := make([]bool, len(delays))
		timers := make([]Timer, len(delays))
		for i, d := range delays {
			i := i
			timers[i] = e.After(time.Duration(d)*time.Millisecond, func() { fired[i] = true })
		}
		for i := range timers {
			if mask&(1<<uint(i)) != 0 {
				timers[i].Stop()
			}
		}
		e.RunAll()
		for i := range fired {
			stopped := mask&(1<<uint(i)) != 0
			if fired[i] == stopped {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestEpochsRecordedAndObserved(t *testing.T) {
	e := New(1)
	var observed []string
	var fired []string
	e.OnEpoch(func(ep Epoch) {
		observed = append(observed, ep.Name)
		// The epoch must already be visible to observers.
		eps := e.Epochs()
		if len(eps) == 0 || eps[len(eps)-1].Name != ep.Name {
			t.Errorf("epoch %q not recorded before observers ran", ep.Name)
		}
	})
	e.AtEpoch(2*time.Second, "beta", func() { fired = append(fired, "beta") })
	e.AtEpoch(1*time.Second, "alpha", func() { fired = append(fired, "alpha") })
	e.AtEpoch(3*time.Second, "gamma", nil) // nil callback is allowed
	e.RunAll()

	wantNames := []string{"alpha", "beta", "gamma"}
	eps := e.Epochs()
	if len(eps) != 3 {
		t.Fatalf("got %d epochs", len(eps))
	}
	for i, ep := range eps {
		if ep.Name != wantNames[i] {
			t.Fatalf("epoch %d = %q, want %q", i, ep.Name, wantNames[i])
		}
		if ep.At != time.Duration(i+1)*time.Second {
			t.Fatalf("epoch %q at %s", ep.Name, ep.At)
		}
	}
	if len(observed) != 3 || observed[0] != "alpha" {
		t.Fatalf("observers saw %v", observed)
	}
	if len(fired) != 2 {
		t.Fatalf("callbacks fired %v", fired)
	}
	// Epochs() returns a copy.
	eps[0].Name = "mutated"
	if e.Epochs()[0].Name != "alpha" {
		t.Fatal("Epochs() exposed internal state")
	}
}

func TestEpochTimerStopPreventsRecording(t *testing.T) {
	e := New(1)
	tm := e.AtEpoch(time.Second, "cancelled", nil)
	tm.Stop()
	e.RunAll()
	if len(e.Epochs()) != 0 {
		t.Fatalf("stopped epoch recorded: %v", e.Epochs())
	}
}
