// Package invariant is the runtime safety/liveness checker wired into every
// simulated run. It continuously asserts the properties the protocol claims
// (§2.3 of the paper) and the recovery behaviour the fault-injection harness
// exercises:
//
//  1. Agreement — no two correct nodes deliver different payloads for the
//     same message id. (The paper's protocol accepts the first validly
//     signed copy, so an equivocating Byzantine *source* genuinely violates
//     this; the checker exists to catch exactly that class of bug/attack.)
//  2. Validity — every correct node that stayed up and connected to the
//     source's partition group eventually delivers, modulo nodes the fault
//     plan crashed.
//  3. Detector soundness — after a quiet heal window, no correct reachable
//     node remains suspected by a majority of correct nodes.
//  4. Overlay recovery — a bounded time after each fault event, the overlay
//     backbone again covers the network: every correct up node is in the
//     overlay or adjacent to it, and the overlay is connected within each
//     connected component of up nodes.
//
// The checker is fed by the runner through plain callbacks and probes; it
// never touches protocol internals itself. Violations are recorded, not
// thrown: the runner surfaces them in Result and the CLI fails the run with
// a reproducible seed and the fault-event log.
package invariant

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"bbcast/internal/wire"
)

// Config selects which invariants run and their windows. The zero value
// disables everything; start from DefaultConfig.
type Config struct {
	// Agreement enables the delivered-payload agreement check.
	Agreement bool
	// Validity enables the end-of-run eventual-delivery check.
	Validity bool
	// Detectors enables the end-of-run detector-soundness check.
	Detectors bool
	// Recovery enables the post-fault overlay-coverage check.
	Recovery bool
	// StateBounds enables the resource-bound check: every sampled
	// protocol-state queue must stay at or under its configured cap
	// (Probes.Bounds), no matter what adversaries send.
	StateBounds bool
	// TimerBounds enables the adaptive-timer check: every committed
	// adaptive-timer change must land inside the timer's configured range
	// (Probes.TimerRanges), no matter how hostile the channel gets.
	TimerBounds bool
	// AtMostOnce enables the duplicate-delivery check: a correct node must
	// never deliver the same message id twice. Two exemptions reflect the
	// protocol's documented semantics: a node whose amnesiac wipe (OnWipe)
	// erased its duplicate filter may re-deliver pre-wipe traffic, and a
	// re-delivery at least RedeliveryGrace after the first reflects benign
	// tombstone quiescence GC. Dedup must hold again for post-rejoin traffic:
	// a second re-delivery of the same id after one wipe is a violation.
	AtMostOnce bool

	// RedeliveryGrace exempts re-deliveries separated from the previous
	// delivery of the same id by at least this much: the store's quiescence
	// GC may legitimately forget a message that old, letting a late replay
	// through. Zero disables the exemption (strict at-most-once).
	RedeliveryGrace time.Duration

	// ValidityGrace exempts messages injected within this window before the
	// end of the run — they may legitimately still be in flight.
	ValidityGrace time.Duration
	// ValidityRatio is the minimum fraction of eligible correct nodes that
	// must deliver each checked message. Radio loss makes per-message
	// delivery statistical even in correct runs, so this is a floor rather
	// than 1.0.
	ValidityRatio float64
	// HealWindow is the quiet time after the last fault event before the
	// detector-soundness check applies; it must exceed the detectors'
	// suspicion TTL so honest suspicions from the fault itself can age out.
	HealWindow time.Duration
	// RecoveryWindow is the deadline for the overlay to re-cover the
	// network after a fault event. The checker probes repeatedly inside the
	// window (roles flap while the detectors digest a topology change) and
	// records a violation only if no probe before the deadline comes back
	// clean. It should exceed the detectors' suspicion TTL, which paces the
	// flapping.
	RecoveryWindow time.Duration
}

// DefaultConfig enables all four invariants with windows suited to the
// default protocol timescales (30 s suspicion TTL, 1 s maintenance period).
func DefaultConfig() Config {
	return Config{
		Agreement:       true,
		Validity:        true,
		Detectors:       true,
		Recovery:        true,
		StateBounds:     true,
		TimerBounds:     true,
		AtMostOnce:      true,
		RedeliveryGrace: 60 * time.Second,
		ValidityGrace:   10 * time.Second,
		ValidityRatio:   0.90,
		HealWindow:      45 * time.Second,
		RecoveryWindow:  35 * time.Second,
	}
}

// Enabled reports whether any invariant is switched on.
func (c Config) Enabled() bool {
	return c.Agreement || c.Validity || c.Detectors || c.Recovery || c.StateBounds || c.TimerBounds || c.AtMostOnce
}

// Violation is one detected invariant breach.
type Violation struct {
	// At is the virtual time the breach was detected.
	At time.Duration
	// Invariant names the property: agreement, validity,
	// detector-soundness or overlay-recovery.
	Invariant string
	// Detail is a human-readable description with the offending ids.
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s: %s", v.At, v.Invariant, v.Detail)
}

// Probes are the read-only views of the live run the checker consults. All
// probes are invoked synchronously on the simulation goroutine.
type Probes struct {
	// N is the network size.
	N int
	// Correct reports whether a node is correct for the whole run (not an
	// adversary at t=0 and never swapped to a faulty behaviour).
	Correct func(wire.NodeID) bool
	// Up reports whether the node's radio is currently on the air.
	Up func(wire.NodeID) bool
	// Neighbors returns the ground-truth reachable neighbours of a node
	// (mask-aware: crashed nodes and cross-partition links excluded).
	Neighbors func(wire.NodeID) []wire.NodeID
	// ReliableNeighbors, when set, restricts the validity reachability
	// snapshot to links the radio model treats as loss-free (inside the
	// fringe-decay boundary). Nodes connected only through lossy fringe
	// links cannot be promised delivery within a bounded grace window.
	// Falls back to Neighbors when nil.
	ReliableNeighbors func(wire.NodeID) []wire.NodeID
	// OverlayActive reports whether the node currently considers itself in
	// the overlay.
	OverlayActive func(wire.NodeID) bool
	// Suspects reports whether observer currently distrusts subject.
	Suspects func(observer, subject wire.NodeID) bool
	// Bounds maps a sampled queue name (obsv.Queue values, string-keyed so
	// this package stays observer-agnostic) to its configured cap. Queues
	// absent from the map are unbounded. Consulted by the state-bounds check.
	Bounds map[string]int
	// TimerRanges maps an adaptive timer name (obsv.AdaptiveTimer values,
	// string-keyed) to its configured [min, max] range. Timers absent from
	// the map are unchecked. Consulted by the timer-bounds check.
	TimerRanges map[string][2]time.Duration
}

// delivery records the first payload a correct node delivered for a message.
type delivery struct {
	hash uint64
	node wire.NodeID
}

// window is a closed downtime interval; To==0 means still down.
type window struct {
	from time.Duration
	to   time.Duration
	open bool
}

// partEpoch is one partition era: group assignment per node from At until
// the next epoch. groups==nil means healed (single group).
type partEpoch struct {
	at     time.Duration
	groups []int // per-node group index; nil = all connected
}

// injection records one workload origination.
type injection struct {
	id         wire.MsgID
	origin     wire.NodeID
	at         time.Duration
	originDown bool // origin was off the air when it "sent" — uncheckable
	// reachable snapshots the origin's connected component at injection
	// time; nodes outside it (sparse deployments legitimately leave
	// disconnected clusters) owe no delivery. nil means no topology probe
	// was available and every node counts.
	reachable nodeSet
}

// nodeSet is a set of the run's node ids (below Probes.N), one bit each.
type nodeSet []uint64

// add inserts id and reports whether it was absent. Ids at or above
// Probes.N are not nodes of the run and are never added.
func (s nodeSet) add(id wire.NodeID) bool {
	w, bit := int(id/64), uint64(1)<<(id%64)
	if w >= len(s) || s[w]&bit != 0 {
		return false
	}
	s[w] |= bit
	return true
}

func (s nodeSet) has(id wire.NodeID) bool {
	w := int(id / 64)
	return w < len(s) && s[w]&(uint64(1)<<(id%64)) != 0
}

// Checker accumulates run events and evaluates the invariants. It is
// single-threaded (simulation callbacks only).
type Checker struct {
	cfg    Config
	probes Probes
	now    func() time.Duration

	firstPayload map[wire.MsgID]delivery
	// delivered maps each message to the time of the most recent delivery at
	// each node. Presence feeds the validity check; the timestamp feeds the
	// at-most-once check (re-delivery is exempt only if a wipe or the
	// RedeliveryGrace window separates it from the previous delivery).
	delivered  map[wire.MsgID]map[wire.NodeID]time.Duration
	injections []injection
	// wipes records amnesiac-wipe times per node: a wipe erases the node's
	// duplicate filter, so exactly the deliveries preceding it may repeat.
	wipes map[wire.NodeID][]time.Duration

	downtime   map[wire.NodeID][]window
	partitions []partEpoch
	lastFault  time.Duration
	faultLog   []string

	// boundBreached dedupes state-bounds violations: one report per
	// (node, queue), not one per sample while the breach persists.
	boundBreached map[boundKey]bool
	// timerBreached dedupes timer-bounds violations per (node, timer).
	timerBreached map[boundKey]bool

	violations []Violation

	// queue is component's breadth-first queue, kept between injections.
	queue []wire.NodeID
}

// boundKey identifies one node's sampled queue for violation dedup.
type boundKey struct {
	node  wire.NodeID
	queue string
}

// New builds a checker. probes.N, Correct, Up, Neighbors, OverlayActive and
// Suspects must be set for the checks enabled in cfg.
func New(cfg Config, now func() time.Duration, probes Probes) *Checker {
	return &Checker{
		cfg:           cfg,
		probes:        probes,
		now:           now,
		firstPayload:  make(map[wire.MsgID]delivery),
		delivered:     make(map[wire.MsgID]map[wire.NodeID]time.Duration),
		wipes:         make(map[wire.NodeID][]time.Duration),
		downtime:      make(map[wire.NodeID][]window),
		partitions:    []partEpoch{{at: 0, groups: nil}},
		boundBreached: make(map[boundKey]bool),
		timerBreached: make(map[boundKey]bool),
	}
}

// Violations returns the breaches recorded so far.
func (c *Checker) Violations() []Violation { return c.violations }

// FaultLog returns the fault events observed, formatted "t name".
func (c *Checker) FaultLog() []string { return c.faultLog }

func (c *Checker) violate(invariant, format string, args ...any) {
	c.violations = append(c.violations, Violation{
		At:        c.now(),
		Invariant: invariant,
		Detail:    fmt.Sprintf(format, args...),
	})
}

// OnInject records a workload origination.
func (c *Checker) OnInject(id wire.MsgID, origin wire.NodeID, at time.Duration) {
	c.injections = append(c.injections, injection{
		id: id, origin: origin, at: at,
		originDown: c.downNow(origin),
		reachable:  c.component(origin),
	})
}

// component returns the set of nodes reachable from start over the current
// ground-truth adjacency (reliable links when that probe is wired up), or
// nil when no topology probe is available. The set is the one allocation.
func (c *Checker) component(start wire.NodeID) nodeSet {
	adj := c.probes.ReliableNeighbors
	if adj == nil {
		adj = c.probes.Neighbors
	}
	if adj == nil {
		return nil
	}
	reached := make(nodeSet, (c.probes.N+63)/64)
	reached.add(start)
	queue := append(c.queue[:0], start)
	for i := 0; i < len(queue); i++ {
		for _, w := range adj(queue[i]) {
			if reached.add(w) {
				queue = append(queue, w)
			}
		}
	}
	c.queue = queue
	return reached
}

// OnDeliver records that a correct node accepted (id, payload), checks the
// at-most-once property against the node's previous delivery of the same id,
// and checks agreement against every earlier delivery of the same id.
func (c *Checker) OnDeliver(node wire.NodeID, id wire.MsgID, payload []byte) {
	at := c.now()
	m := c.delivered[id]
	if m == nil {
		m = make(map[wire.NodeID]time.Duration)
		c.delivered[id] = m
	}
	if prev, again := m[node]; again && c.cfg.AtMostOnce {
		// A repeat delivery is legitimate only when the node's duplicate
		// filter could not have caught it: an amnesiac wipe erased the
		// filter after the previous delivery, or the previous delivery is so
		// old the quiescence GC forgot it. Because the exemption is measured
		// against the *latest* delivery, dedup is re-established for
		// post-rejoin traffic: a second repeat after one wipe violates.
		grace := c.cfg.RedeliveryGrace > 0 && at-prev >= c.cfg.RedeliveryGrace
		if !grace && !c.wipedBetween(node, prev, at) {
			c.violate("at-most-once",
				"node %d delivered message %s twice (%s then %s) with no wipe in between",
				node, id, prev, at)
		}
	}
	m[node] = at

	if !c.cfg.Agreement {
		return
	}
	h := fnv.New64a()
	h.Write(payload)
	sum := h.Sum64()
	if first, ok := c.firstPayload[id]; ok {
		if first.hash != sum {
			c.violate("agreement",
				"message %s: node %d delivered a payload different from node %d's (%#x vs %#x)",
				id, node, first.node, sum, first.hash)
		}
		return
	}
	c.firstPayload[id] = delivery{hash: sum, node: node}
}

// OnQueueSample checks one periodic queue-depth sample against the node's
// configured state bound (the resource-exhaustion hardening invariant: no
// adversary traffic may push a node's tables past their caps; behaviours only
// wrap the send path, so the bound holds for every protocol instance). A
// persistent breach is reported once per (node, queue).
func (c *Checker) OnQueueSample(node wire.NodeID, queue string, depth int) {
	if !c.cfg.StateBounds {
		return
	}
	bound, ok := c.probes.Bounds[queue]
	if !ok || bound <= 0 || depth <= bound {
		return
	}
	key := boundKey{node: node, queue: queue}
	if c.boundBreached[key] {
		return
	}
	c.boundBreached[key] = true
	c.violate("state-bounds",
		"node %d: queue %q depth %d exceeds configured bound %d", node, queue, depth, bound)
}

// OnTimerChange checks one committed adaptive-timer change against the
// timer's configured range (the adaptive-timing invariant: no channel
// condition may drive a timer outside its hard [min, max] bounds). A
// persistently out-of-range timer is reported once per (node, timer).
func (c *Checker) OnTimerChange(node wire.NodeID, timer string, value time.Duration) {
	if !c.cfg.TimerBounds {
		return
	}
	r, ok := c.probes.TimerRanges[timer]
	if !ok || (value >= r[0] && value <= r[1]) {
		return
	}
	key := boundKey{node: node, queue: timer}
	if c.timerBreached[key] {
		return
	}
	c.timerBreached[key] = true
	c.violate("timer-bounds",
		"node %d: adaptive timer %q moved to %s, outside configured bounds [%s, %s]",
		node, timer, value, r[0], r[1])
}

// OnFault records a fault event (crash/recover/partition/heal/degrade/swap)
// for the event log and the heal-window bookkeeping.
func (c *Checker) OnFault(name string, at time.Duration) {
	c.lastFault = at
	c.faultLog = append(c.faultLog, fmt.Sprintf("%s %s", at, name))
}

// OnDown records node id going off the air.
func (c *Checker) OnDown(id wire.NodeID, at time.Duration) {
	c.downtime[id] = append(c.downtime[id], window{from: at, open: true})
}

// OnWipe records an amnesiac wipe: node id lost its volatile state
// (including its duplicate filter) at time at, so deliveries made before the
// wipe may legitimately repeat once afterwards.
func (c *Checker) OnWipe(id wire.NodeID, at time.Duration) {
	c.wipes[id] = append(c.wipes[id], at)
}

// wipedBetween reports whether node id was wiped at any point in [from, to].
// The interval is closed on both ends: in the discrete-event world a wipe can
// share an instant with a delivery, and ordering inside one instant is not
// observable here, so ties resolve leniently.
func (c *Checker) wipedBetween(id wire.NodeID, from, to time.Duration) bool {
	for _, w := range c.wipes[id] {
		if w >= from && w <= to {
			return true
		}
	}
	return false
}

// OnUp records node id coming back on the air.
func (c *Checker) OnUp(id wire.NodeID, at time.Duration) {
	ws := c.downtime[id]
	if len(ws) > 0 && ws[len(ws)-1].open {
		ws[len(ws)-1].to = at
		ws[len(ws)-1].open = false
	}
}

// OnPartition records a new partition era. groups is the per-node group
// assignment (length N); nil records a heal.
func (c *Checker) OnPartition(groups []int, at time.Duration) {
	c.partitions = append(c.partitions, partEpoch{at: at, groups: groups})
}

func (c *Checker) downNow(id wire.NodeID) bool {
	ws := c.downtime[id]
	return len(ws) > 0 && ws[len(ws)-1].open
}

// downDuring reports whether id was down at any point in [from, to].
func (c *Checker) downDuring(id wire.NodeID, from, to time.Duration) bool {
	for _, w := range c.downtime[id] {
		end := w.to
		if w.open {
			end = to
		}
		if w.from <= to && from <= end {
			return true
		}
	}
	return false
}

// coGrouped reports whether a and b were in the same partition group for the
// whole of [from, to].
func (c *Checker) coGrouped(a, b wire.NodeID, from, to time.Duration) bool {
	for i, ep := range c.partitions {
		end := to
		if i+1 < len(c.partitions) {
			end = c.partitions[i+1].at
		}
		if ep.at > to || end < from {
			continue // era does not overlap the window
		}
		if ep.groups == nil {
			continue
		}
		if int(a) >= len(ep.groups) || int(b) >= len(ep.groups) || ep.groups[a] != ep.groups[b] {
			return false
		}
	}
	return true
}

// CheckRecovery asserts the overlay-recovery invariant now, recording any
// breaches. Equivalent to recording ProbeRecovery's findings.
func (c *Checker) CheckRecovery() {
	c.violations = append(c.violations, c.ProbeRecovery()...)
}

// ProbeRecovery evaluates the overlay-recovery invariant at this instant
// without recording anything. Overlay roles legitimately flap while failure
// detectors digest a topology change (suspicions age out on their own
// 30-second clocks), so the runner probes repeatedly after each fault event
// and records a violation only if no clean cover appears before the
// RecoveryWindow deadline.
func (c *Checker) ProbeRecovery() []Violation {
	if !c.cfg.Recovery {
		return nil
	}
	var out []Violation
	p := c.probes
	// Components of the up-nodes graph (ground truth, mask-aware).
	seen := make([]bool, p.N)
	for start := 0; start < p.N; start++ {
		id := wire.NodeID(start)
		if seen[start] || !p.Up(id) {
			continue
		}
		var comp []wire.NodeID
		queue := []wire.NodeID{id}
		seen[start] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			comp = append(comp, v)
			for _, w := range p.Neighbors(v) {
				if int(w) < p.N && !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		if len(comp) < 2 {
			continue // a lone node has nobody to cover or reach
		}
		out = append(out, c.probeComponent(comp)...)
	}
	return out
}

func (c *Checker) recViolation(format string, args ...any) Violation {
	return Violation{
		At:        c.now(),
		Invariant: "overlay-recovery",
		Detail:    fmt.Sprintf(format, args...),
	}
}

// probeComponent evaluates domination and overlay connectivity inside one
// connected component of up nodes.
func (c *Checker) probeComponent(comp []wire.NodeID) []Violation {
	p := c.probes
	var out []Violation
	inComp := make(map[wire.NodeID]bool, len(comp))
	var active []wire.NodeID
	for _, v := range comp {
		inComp[v] = true
		if p.OverlayActive(v) {
			active = append(active, v)
		}
	}
	if len(active) == 0 {
		return append(out, c.recViolation(
			"component of %d nodes (e.g. node %d) has no overlay node", len(comp), comp[0]))
	}
	// Domination: every correct node is active or hears an active neighbour.
	for _, v := range comp {
		if !p.Correct(v) || p.OverlayActive(v) {
			continue
		}
		covered := false
		for _, w := range p.Neighbors(v) {
			if inComp[w] && p.OverlayActive(w) {
				covered = true
				break
			}
		}
		if !covered {
			out = append(out, c.recViolation(
				"correct node %d has no overlay neighbour (component of %d nodes)", v, len(comp)))
		}
	}
	// Connectivity: the active nodes inside the component must be one
	// cluster under ground-truth adjacency.
	activeSet := make(map[wire.NodeID]bool, len(active))
	for _, v := range active {
		activeSet[v] = true
	}
	reached := map[wire.NodeID]bool{active[0]: true}
	queue := []wire.NodeID{active[0]}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range p.Neighbors(v) {
			if activeSet[w] && !reached[w] {
				reached[w] = true
				queue = append(queue, w)
			}
		}
	}
	if len(reached) != len(active) {
		out = append(out, c.recViolation(
			"overlay disconnected: %d of %d overlay nodes reachable from node %d (component of %d nodes)",
			len(reached), len(active), active[0], len(comp)))
	}
	return out
}

// Report records externally-evaluated violations (e.g. the last failing
// recovery probe once its deadline passes).
func (c *Checker) Report(vs ...Violation) {
	c.violations = append(c.violations, vs...)
}

// Finish runs the end-of-run checks (validity, detector soundness) at
// virtual time end.
func (c *Checker) Finish(end time.Duration) {
	if c.cfg.Validity {
		c.checkValidity(end)
	}
	if c.cfg.Detectors {
		c.checkDetectors(end)
	}
}

func (c *Checker) checkValidity(end time.Duration) {
	p := c.probes
	for _, inj := range c.injections {
		if inj.originDown || !p.Correct(inj.origin) {
			continue // nothing is promised for Byzantine or dark senders
		}
		if inj.at > end-c.cfg.ValidityGrace {
			continue // may legitimately still be in flight
		}
		var eligible, got int
		var missing []wire.NodeID
		for i := 0; i < p.N; i++ {
			id := wire.NodeID(i)
			if id == inj.origin || !p.Correct(id) {
				continue
			}
			if c.downDuring(id, inj.at, end) || !c.coGrouped(id, inj.origin, inj.at, end) {
				continue // the plan cut it off; validity is modulo those
			}
			if inj.reachable != nil && !inj.reachable.has(id) {
				continue // physically disconnected from the origin at injection
			}
			eligible++
			if _, ok := c.delivered[inj.id][id]; ok {
				got++
			} else if len(missing) < 8 {
				missing = append(missing, id)
			}
		}
		if eligible == 0 {
			continue
		}
		if ratio := float64(got) / float64(eligible); ratio < c.cfg.ValidityRatio {
			c.violate("validity",
				"message %s (injected %s): delivered to %d/%d eligible correct nodes (%.3f < %.2f); missing e.g. %v",
				inj.id, inj.at, got, eligible, ratio, c.cfg.ValidityRatio, missing)
		}
	}
}

func (c *Checker) checkDetectors(end time.Duration) {
	p := c.probes
	if p.Suspects == nil {
		return
	}
	if end-c.lastFault < c.cfg.HealWindow {
		return // not quiet long enough for suspicions to age out
	}
	// Observers: correct, up nodes.
	var observers []wire.NodeID
	for i := 0; i < p.N; i++ {
		id := wire.NodeID(i)
		if p.Correct(id) && p.Up(id) {
			observers = append(observers, id)
		}
	}
	for _, subject := range observers {
		if len(p.Neighbors(subject)) == 0 {
			continue // unreachable nodes may be honestly suspected forever
		}
		var suspectors []wire.NodeID
		for _, obs := range observers {
			if obs != subject && p.Suspects(obs, subject) {
				suspectors = append(suspectors, obs)
			}
		}
		if 2*len(suspectors) > len(observers)-1 {
			sort.Slice(suspectors, func(i, j int) bool { return suspectors[i] < suspectors[j] })
			if len(suspectors) > 8 {
				suspectors = suspectors[:8]
			}
			c.violate("detector-soundness",
				"correct reachable node %d still suspected by a majority (%d of %d correct nodes, e.g. %v) %s after the last fault",
				subject, len(suspectors), len(observers)-1, suspectors, end-c.lastFault)
		}
	}
}
