// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and an ordered queue of events.
// Events scheduled for the same instant fire in scheduling order, which makes
// runs fully reproducible for a fixed seed. The kernel is single-threaded:
// all callbacks run on the goroutine that calls Run or Step.
//
// The event queue is a hand-rolled binary heap over recycled event records:
// scheduling an event allocates nothing once the free list is warm, which
// matters because the heap push/pop pair is the hottest edge in every
// simulation (one per transmission, reception batch, MAC attempt and
// protocol timer).
package sim

import (
	"math/rand"
	"time"
)

// Engine is a discrete-event scheduler with a virtual clock.
// The zero value is not usable; construct with New.
type Engine struct {
	now       time.Duration
	queue     []*event
	free      []*event
	seq       uint64
	rng       *rand.Rand
	seed      int64
	processed uint64

	epochs     []Epoch
	epochHooks []func(Epoch)
}

// New returns an Engine whose clock starts at zero and whose random stream is
// derived from seed. Two engines built with the same seed and fed the same
// schedule of events produce identical runs.
func New(seed int64) *Engine {
	return &Engine{
		rng:  rand.New(rand.NewSource(seed)),
		seed: seed,
	}
}

// Now reports the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Seed reports the seed the engine was built with.
func (e *Engine) Seed() int64 { return e.seed }

// Processed reports how many events have fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Rand returns the engine's random stream. Protocol code must draw all
// randomness from here (or from SubRand) to keep runs reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// SubRand derives an independent, deterministic random stream for the given
// identifier (typically a node ID). Streams for distinct ids are decorrelated
// but fully determined by the engine seed.
func (e *Engine) SubRand(id uint64) *rand.Rand {
	// SplitMix64 finalizer decorrelates nearby ids.
	z := uint64(e.seed) ^ (id + 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

// Timer is a handle to a scheduled event. A Timer may be stopped before it
// fires; stopping an already-fired or already-stopped timer is a no-op. The
// zero Timer is valid and never pending. Timers are values: copy them
// freely.
type Timer struct {
	ev  *event
	gen uint32
}

// live reports whether the timer still refers to the event it was issued
// for (events are recycled after firing; the generation check keeps a stale
// handle from touching an unrelated reuse).
func (t Timer) live() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.cancelled && !t.ev.fired
}

// Stop cancels the timer. It reports whether the event was still pending.
func (t Timer) Stop() bool {
	if !t.live() {
		return false
	}
	t.ev.cancelled = true
	return true
}

// Pending reports whether the timer has neither fired nor been stopped.
func (t Timer) Pending() bool { return t.live() }

// alloc takes an event record from the free list (or allocates one) and
// initializes it for time t.
func (e *Engine) alloc(t time.Duration, fn func()) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	ev.cancelled = false
	ev.fired = false
	e.seq++
	return ev
}

// recycle returns a popped event to the free list, bumping its generation so
// outstanding Timer handles to it go stale.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (or present) runs the event at the current time, after already-queued
// events for that time.
func (e *Engine) At(t time.Duration, fn func()) Timer {
	if t < e.now {
		t = e.now
	}
	ev := e.alloc(t, fn)
	e.push(ev)
	return Timer{ev: ev, gen: ev.gen}
}

// After schedules fn to run d from now. Negative d behaves like zero.
func (e *Engine) After(d time.Duration, fn func()) Timer {
	return e.At(e.now+d, fn)
}

// Every schedules fn to run every period, starting one period from now,
// until the returned stop function is called.
func (e *Engine) Every(period time.Duration, fn func()) (stop func()) {
	stopped := false
	var cur Timer
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			cur = e.After(period, tick)
		}
	}
	cur = e.After(period, tick)
	return func() {
		stopped = true
		cur.Stop()
	}
}

// Epoch is a named marker in virtual time. Epochs give a run a coarse,
// inspectable timeline: the fault-injection layer schedules each fault event
// as a named epoch, and observers (invariant checkers, tracers) subscribe to
// the firings without coupling to the scheduler of those events.
type Epoch struct {
	Name string
	At   time.Duration
}

// AtEpoch schedules fn at absolute virtual time t like At, and additionally
// records a named epoch and notifies OnEpoch observers when it fires. The
// epoch is recorded before fn runs, so fn (and anything it schedules at the
// same instant) observes it.
func (e *Engine) AtEpoch(t time.Duration, name string, fn func()) Timer {
	return e.At(t, func() {
		ep := Epoch{Name: name, At: e.now}
		e.epochs = append(e.epochs, ep)
		for _, h := range e.epochHooks {
			h(ep)
		}
		if fn != nil {
			fn()
		}
	})
}

// OnEpoch registers an observer for epoch firings. Observers run in
// registration order, synchronously, before the epoch's own callback.
func (e *Engine) OnEpoch(h func(Epoch)) {
	e.epochHooks = append(e.epochHooks, h)
}

// Epochs returns a copy of the epochs fired so far, in firing order.
func (e *Engine) Epochs() []Epoch {
	out := make([]Epoch, len(e.epochs))
	copy(out, e.epochs)
	return out
}

// Next reports the time of the earliest pending event, dropping cancelled
// events at the head of the queue on the way. It reports false when nothing
// is pending. A host that drives the engine from wall time sleeps until the
// instant Next reports.
func (e *Engine) Next() (time.Duration, bool) {
	for len(e.queue) > 0 {
		if ev := e.queue[0]; !ev.cancelled {
			return ev.at, true
		}
		e.recycle(e.pop())
	}
	return 0, false
}

// Step fires the earliest pending event. It reports false when the queue is
// empty.
func (e *Engine) Step() bool {
	if _, ok := e.Next(); !ok {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	ev.fired = true
	e.processed++
	fn := ev.fn
	e.recycle(ev)
	fn()
	return true
}

// Run processes events until the queue is exhausted or the clock would pass
// until. The clock is left at until, or where it was if that is later; events
// scheduled beyond until remain queued. It returns the number of events fired.
func (e *Engine) Run(until time.Duration) uint64 {
	var fired uint64
	for at, ok := e.Next(); ok && at <= until; at, ok = e.Next() {
		e.Step()
		fired++
	}
	if e.now < until {
		e.now = until
	}
	return fired
}

// RunAll processes events until the queue is exhausted. Use with care: a
// self-rescheduling event makes this loop forever.
func (e *Engine) RunAll() uint64 {
	var fired uint64
	for e.Step() {
		fired++
	}
	return fired
}

type event struct {
	at        time.Duration
	seq       uint64
	fn        func()
	gen       uint32
	cancelled bool
	fired     bool
}

// before orders events by (time, scheduling sequence).
func (ev *event) before(o *event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

// push adds ev to the heap (sift-up).
func (e *Engine) push(ev *event) {
	q := append(e.queue, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	e.queue = q
}

// pop removes and returns the minimum event (sift-down).
func (e *Engine) pop() *event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && q[r].before(q[l]) {
			least = r
		}
		if !q[least].before(q[i]) {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	e.queue = q
	return top
}
