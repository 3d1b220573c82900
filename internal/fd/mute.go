package fd

import (
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
	key      ExpectKey
	mode     ExpectMode
	deadline time.Duration
	// waiting is the set of nodes still on the hook. For ExpectAny a single
	// fulfilment clears the whole expectation; for ExpectAll nodes clear
	// individually.
	waiting map[wire.NodeID]bool
}

// Mute is the MUTE failure detector: it suspects nodes that failed to send
// an anticipated message (§3.1). Not safe for concurrent use.
type Mute struct {
	now     Now
	cfg     MuteConfig
	set     *counterSet
	pending []*expectation
	keys    []wire.NodeID // sortedKeys scratch for sweep

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

// Expect arms the detector: one of (ExpectAny) or each of (ExpectAll) the
// nodes must send a message matching key within the configured timeout.
// Arming with no nodes is a no-op.
func (m *Mute) Expect(key ExpectKey, nodes []wire.NodeID, mode ExpectMode) {
	m.sweep()
	if len(nodes) == 0 {
		return
	}
	waiting := make(map[wire.NodeID]bool, len(nodes))
	for _, id := range nodes {
		waiting[id] = true
	}
	m.pending = append(m.pending, &expectation{
		key:      key,
		mode:     mode,
		deadline: m.now() + m.cfg.Timeout,
		waiting:  waiting,
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

// Fulfill records that `from` sent a message matching key. It clears every
// matching ExpectAny expectation that listed `from`, and removes `from` from
// matching ExpectAll expectations.
func (m *Mute) Fulfill(key ExpectKey, from wire.NodeID) {
	m.sweep()
	kept := m.pending[:0]
	for _, e := range m.pending {
		if e.key == key && e.waiting[from] {
			if e.mode == ExpectAny {
				continue // fully satisfied; drop
			}
			delete(e.waiting, from)
			if len(e.waiting) == 0 {
				continue
			}
		}
		kept = append(kept, e)
	}
	m.pending = kept
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
		// Missed: every still-waiting node takes a miss. Under ExpectAny
		// this matches the paper's Lemma 3.7 flavour — if none of the
		// overlay neighbours forwarded, they are all suspected (only
		// genuinely mute nodes stay suspected once good ones fulfil later
		// expectations and counters age).
		// Sorted: bump can raise a suspicion, and the OnSuspect emissions
		// must not depend on map iteration order.
		m.keys = sortedKeys(m.keys, e.waiting)
		for _, id := range m.keys {
			m.set.bump(id, 1)
		}
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
