// Package fd implements the paper's three failure detectors (§2.2, §3.1):
//
//   - MUTE detects nodes that fail to send a message with an expected
//     header. The protocol arms it with Expect(header, nodes), the paper's
//     expect(header, nodes, ONE); a node that misses its deadline
//     accumulates a miss and, past a threshold, is suspected for a
//     suspicion interval.
//   - VERBOSE detects nodes that send too many messages. The protocol
//     indicts offenders; past a threshold they are suspected.
//   - TRUST aggregates MUTE, VERBOSE, locally observed deviations (bad
//     signatures), and second-hand reports from trusted neighbours into a
//     per-node trust level: Trusted, Unknown or Untrusted.
//
// Both MUTE and VERBOSE use an aging mechanism — suspicion counters decay
// over time — which realizes the paper's Interval failure-detector classes
// (I_mute, I_verbose): suspicions triggered during a mute interval last for
// a suspicion interval and then heal. With decay disabled and an infinite
// suspicion TTL the detectors behave like the eventually-perfect classes
// (◇P_mute, ◇P_verbose) instead.
//
// All detectors are driven purely by a Clock (no internal goroutines or
// timers): expired expectations are folded into counters lazily whenever a
// method runs. This keeps them deterministic under simulation and trivially
// portable to real time.
package fd

import (
	"slices"
	"time"

	"bbcast/internal/wire"
)

// Now is the time source the detectors sample. It is a function rather than
// an interface so detectors can share the protocol's clock cheaply.
type Now func() time.Duration

// Reason classifies why a node was suspected, for TRUST bookkeeping and logs.
type Reason string

// Suspicion reasons.
const (
	ReasonMute         Reason = "mute"
	ReasonVerbose      Reason = "verbose"
	ReasonBadSignature Reason = "bad-signature"
)

// agingCounter is a per-node miss counter with linear decay.
type agingCounter struct {
	count     int
	lastDecay time.Duration
}

// counterSet manages aging counters and suspicion deadlines for many nodes.
type counterSet struct {
	now          Now
	threshold    int
	suspicionTTL time.Duration
	ageInterval  time.Duration // 0 disables decay

	counters map[wire.NodeID]*agingCounter
	until    map[wire.NodeID]time.Duration // suspected until
	onChange func(id wire.NodeID, suspected bool)

	keys []wire.NodeID // sortedKeys scratch for appendSuspects
}

func newCounterSet(now Now, threshold int, suspicionTTL, ageInterval time.Duration) *counterSet {
	if threshold < 1 {
		threshold = 1
	}
	return &counterSet{
		now:          now,
		threshold:    threshold,
		suspicionTTL: suspicionTTL,
		ageInterval:  ageInterval,
		counters:     make(map[wire.NodeID]*agingCounter),
		until:        make(map[wire.NodeID]time.Duration),
	}
}

func (c *counterSet) bump(id wire.NodeID, n int) {
	now := c.now()
	ctr := c.counters[id]
	if ctr == nil {
		ctr = &agingCounter{lastDecay: now}
		c.counters[id] = ctr
	}
	c.decay(ctr, now)
	ctr.count += n
	if ctr.count >= c.threshold {
		wasSuspected := c.suspected(id)
		if c.suspicionTTL <= 0 {
			c.until[id] = 1<<62 - 1 // effectively forever (◇P-style)
		} else {
			c.until[id] = now + c.suspicionTTL
		}
		if !wasSuspected && c.onChange != nil {
			c.onChange(id, true)
		}
	}
}

func (c *counterSet) decay(ctr *agingCounter, now time.Duration) {
	if c.ageInterval <= 0 || ctr.count == 0 {
		ctr.lastDecay = now
		return
	}
	steps := int((now - ctr.lastDecay) / c.ageInterval)
	if steps <= 0 {
		return
	}
	ctr.count -= steps
	if ctr.count < 0 {
		ctr.count = 0
	}
	ctr.lastDecay += time.Duration(steps) * c.ageInterval
}

func (c *counterSet) suspected(id wire.NodeID) bool {
	u, ok := c.until[id]
	if !ok {
		return false
	}
	if c.now() >= u {
		delete(c.until, id)
		if c.onChange != nil {
			c.onChange(id, false)
		}
		return false
	}
	return true
}

func (c *counterSet) count(id wire.NodeID) int {
	ctr := c.counters[id]
	if ctr == nil {
		return 0
	}
	c.decay(ctr, c.now())
	return ctr.count
}

// appendSuspects appends the currently suspected nodes to dst, ascending.
func (c *counterSet) appendSuspects(dst []wire.NodeID) []wire.NodeID {
	// Iterate in id order: suspected() emits clear events through onChange
	// when an entry has expired, and those must not fire in map order.
	c.keys = sortedKeys(c.keys, c.until)
	for _, id := range c.keys {
		if c.suspected(id) {
			dst = append(dst, id)
		}
	}
	return dst
}

// sortedKeys overwrites buf with m's keys in ascending id order and returns
// it. The detectors touch suspicion state only in sorted order wherever a
// callback (and hence an observer emission) can fire, so Go's randomized map
// iteration never leaks into the event trace. Each detector passes its own
// scratch: the walks nest (TRUST's walk calls into MUTE's sweep).
func sortedKeys[V any](buf []wire.NodeID, m map[wire.NodeID]V) []wire.NodeID {
	buf = buf[:0]
	for id := range m {
		buf = append(buf, id)
	}
	slices.Sort(buf)
	return buf
}
