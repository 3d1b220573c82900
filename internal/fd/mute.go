package fd

import (
	"slices"
	"time"

	"bbcast/internal/wire"
)

// MuteConfig parameterizes the MUTE detector.
type MuteConfig struct {
	// Timeout is how long after Expect a matching message must arrive.
	Timeout time.Duration
	// Threshold is how many misses make a node suspected.
	Threshold int
	// SuspicionTTL is how long a suspicion lasts (the paper's suspicion
	// interval). Zero or negative means forever (◇P_mute behaviour).
	SuspicionTTL time.Duration
	// AgeInterval is the decay period of miss counters (the paper's aging
	// mechanism). Zero disables decay.
	AgeInterval time.Duration
}

// expectation is one armed Expect call.
type expectation struct {
	id       wire.MsgID
	deadline time.Duration
	// waiting is the set of nodes on the hook, ascending and without repeats.
	// One fulfilment by any of them clears the whole expectation.
	waiting []wire.NodeID
}

// Mute is the MUTE failure detector: it suspects nodes that failed to send
// an anticipated message (§3.1). Not safe for concurrent use.
type Mute struct {
	now     Now
	cfg     MuteConfig
	set     *counterSet
	pending []expectation
	// spare holds the waiting slices of expectations that were fulfilled or
	// swept, emptied, for Expect to fill again. pending bounds it: a slice
	// moves here only when its expectation leaves pending and back when
	// Expect arms one, so the two together never hold more than the most
	// expectations ever pending at once.
	spare [][]wire.NodeID

	// OnSuspect, if non-nil, observes suspicion transitions.
	OnSuspect func(id wire.NodeID, suspected bool)
}

// NewMute builds a MUTE detector.
func NewMute(now Now, cfg MuteConfig) *Mute {
	m := &Mute{
		now: now,
		cfg: cfg,
		set: newCounterSet(now, cfg.Threshold, cfg.SuspicionTTL, cfg.AgeInterval),
	}
	m.set.onChange = func(id wire.NodeID, s bool) {
		if m.OnSuspect != nil {
			m.OnSuspect(id, s)
		}
	}
	return m
}

// Expect arms the detector: one of the nodes must send the data of message id
// within the configured timeout (the paper's expect(header, nodes, ONE)).
// Arming with no nodes is a no-op.
func (m *Mute) Expect(id wire.MsgID, nodes []wire.NodeID) {
	m.sweep()
	if len(nodes) == 0 {
		return
	}
	var waiting []wire.NodeID
	if n := len(m.spare); n > 0 {
		waiting = m.spare[n-1]
		m.spare[n-1] = nil
		m.spare = m.spare[:n-1]
	}
	waiting = append(waiting, nodes...)
	slices.Sort(waiting)
	m.pending = append(m.pending, expectation{
		id:       id,
		deadline: m.now() + m.cfg.Timeout,
		waiting:  slices.Compact(waiting),
	})
}

// SetTimeout changes the expectation timeout applied to future Expect calls.
// Already-armed expectations keep the deadline they were armed with. Values
// <= 0 are ignored.
func (m *Mute) SetTimeout(d time.Duration) {
	if d > 0 {
		m.cfg.Timeout = d
	}
}

// Timeout reports the expectation timeout applied to future Expect calls.
func (m *Mute) Timeout() time.Duration { return m.cfg.Timeout }

// Fulfill records that `from` sent the data of message id. It clears every
// expectation for id that listed `from`.
func (m *Mute) Fulfill(id wire.MsgID, from wire.NodeID) {
	m.sweep()
	kept := m.pending[:0]
	for _, e := range m.pending {
		if e.id == id {
			if _, ok := slices.BinarySearch(e.waiting, from); ok {
				m.retire(e) // satisfied
				continue
			}
		}
		kept = append(kept, e)
	}
	m.pending = kept
}

// retire hands a dropped expectation's waiting slice, emptied, to spare.
func (m *Mute) retire(e expectation) {
	m.spare = append(m.spare, e.waiting[:0])
}

// sweep folds expired expectations into miss counters.
func (m *Mute) sweep() {
	now := m.now()
	kept := m.pending[:0]
	for _, e := range m.pending {
		if now < e.deadline {
			kept = append(kept, e)
			continue
		}
		// Missed: every listed node takes a miss. This matches the paper's
		// Lemma 3.7 flavour — if none of the overlay neighbours forwarded,
		// they are all suspected (only genuinely mute nodes stay suspected
		// once good ones fulfil later expectations and counters age).
		// Ascending: bump can raise a suspicion, and the OnSuspect emissions
		// must come in id order.
		for _, id := range e.waiting {
			m.set.bump(id, 1)
		}
		m.retire(e)
	}
	m.pending = kept
}

// Suspected reports whether the detector currently suspects id.
func (m *Mute) Suspected(id wire.NodeID) bool {
	m.sweep()
	return m.set.suspected(id)
}

// Suspects returns the currently suspected nodes, sorted.
func (m *Mute) Suspects() []wire.NodeID { return m.appendSuspects(nil) }

func (m *Mute) appendSuspects(dst []wire.NodeID) []wire.NodeID {
	m.sweep()
	return m.set.appendSuspects(dst)
}

// Misses reports id's current (decayed) miss count, for tests and debugging.
func (m *Mute) Misses(id wire.NodeID) int {
	m.sweep()
	return m.set.count(id)
}

// PendingExpectations reports how many expectations are armed (test hook).
func (m *Mute) PendingExpectations() int {
	m.sweep()
	return len(m.pending)
}
