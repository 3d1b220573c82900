package invariant

import (
	"strings"
	"testing"
	"time"

	"bbcast/internal/alloctest"
	"bbcast/internal/wire"
)

// fakeNet is a hand-built network for probing the checker: a ground-truth
// adjacency list plus per-node overlay/suspicion state.
type fakeNet struct {
	n       int
	adj     map[wire.NodeID][]wire.NodeID
	down    map[wire.NodeID]bool
	faulty  map[wire.NodeID]bool
	active  map[wire.NodeID]bool
	suspect map[[2]wire.NodeID]bool
	now     time.Duration
}

func newFakeNet(n int) *fakeNet {
	return &fakeNet{
		n:       n,
		adj:     map[wire.NodeID][]wire.NodeID{},
		down:    map[wire.NodeID]bool{},
		faulty:  map[wire.NodeID]bool{},
		active:  map[wire.NodeID]bool{},
		suspect: map[[2]wire.NodeID]bool{},
	}
}

func (f *fakeNet) connect(a, b wire.NodeID) {
	f.adj[a] = append(f.adj[a], b)
	f.adj[b] = append(f.adj[b], a)
}

func (f *fakeNet) probes() Probes {
	return Probes{
		N:       f.n,
		Correct: func(id wire.NodeID) bool { return !f.faulty[id] },
		Up:      func(id wire.NodeID) bool { return !f.down[id] },
		Neighbors: func(id wire.NodeID) []wire.NodeID {
			if f.down[id] {
				return nil
			}
			var out []wire.NodeID
			for _, w := range f.adj[id] {
				if !f.down[w] {
					out = append(out, w)
				}
			}
			return out
		},
		OverlayActive: func(id wire.NodeID) bool { return f.active[id] },
		Suspects: func(obs, sub wire.NodeID) bool {
			return f.suspect[[2]wire.NodeID{obs, sub}]
		},
	}
}

func (f *fakeNet) checker(cfg Config) *Checker {
	return New(cfg, func() time.Duration { return f.now }, f.probes())
}

func countByKind(vs []Violation, kind string) int {
	n := 0
	for _, v := range vs {
		if v.Invariant == kind {
			n++
		}
	}
	return n
}

func TestAgreementViolation(t *testing.T) {
	f := newFakeNet(3)
	c := f.checker(Config{Agreement: true})
	id := wire.MsgID{Origin: 0, Seq: 1}
	c.OnDeliver(1, id, []byte("variant A"))
	c.OnDeliver(2, id, []byte("variant A"))
	if len(c.Violations()) != 0 {
		t.Fatalf("identical payloads flagged: %v", c.Violations())
	}
	c.OnDeliver(0, id, []byte("variant B"))
	if got := countByKind(c.Violations(), "agreement"); got != 1 {
		t.Fatalf("want 1 agreement violation, got %v", c.Violations())
	}
	// A second message with consistent payloads stays clean.
	id2 := wire.MsgID{Origin: 0, Seq: 2}
	c.OnDeliver(1, id2, []byte("x"))
	c.OnDeliver(2, id2, []byte("x"))
	if got := countByKind(c.Violations(), "agreement"); got != 1 {
		t.Fatalf("consistent message added violations: %v", c.Violations())
	}
}

// TestTimerBoundsViolation: adaptive-timer changes inside the configured
// range are clean, the first excursion outside it is one violation, and
// repeats on the same (node, timer) pair are deduplicated. Unregistered
// timers are ignored.
func TestTimerBoundsViolation(t *testing.T) {
	f := newFakeNet(3)
	p := f.probes()
	p.TimerRanges = map[string][2]time.Duration{
		"gossip": {250 * time.Millisecond, 2 * time.Second},
	}
	c := New(Config{TimerBounds: true}, func() time.Duration { return f.now }, p)
	c.OnTimerChange(1, "gossip", 250*time.Millisecond) // at the floor: fine
	c.OnTimerChange(1, "gossip", 2*time.Second)        // at the ceiling: fine
	c.OnTimerChange(1, "unregistered", time.Hour)      // unknown timer: ignored
	if len(c.Violations()) != 0 {
		t.Fatalf("in-range changes flagged: %v", c.Violations())
	}
	c.OnTimerChange(1, "gossip", 200*time.Millisecond)
	c.OnTimerChange(1, "gossip", 100*time.Millisecond) // same pair: deduplicated
	c.OnTimerChange(2, "gossip", 3*time.Second)        // other node: its own violation
	if got := countByKind(c.Violations(), "timer-bounds"); got != 2 {
		t.Fatalf("want 2 timer-bounds violations, got %v", c.Violations())
	}
	// With the check disabled, nothing fires.
	off := New(Config{}, func() time.Duration { return f.now }, p)
	off.OnTimerChange(1, "gossip", time.Hour)
	if len(off.Violations()) != 0 {
		t.Fatalf("disabled check fired: %v", off.Violations())
	}
}

// connectedFakeNet builds a fakeNet where every node hears every other.
func connectedFakeNet(n int) *fakeNet {
	f := newFakeNet(n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			f.connect(wire.NodeID(a), wire.NodeID(b))
		}
	}
	return f
}

func TestValidityViolationAndExemptions(t *testing.T) {
	cfg := Config{Validity: true, ValidityRatio: 0.9, ValidityGrace: 10 * time.Second}
	end := 100 * time.Second

	// All eligible nodes delivered: clean.
	f := connectedFakeNet(4)
	c := f.checker(cfg)
	id := wire.MsgID{Origin: 0, Seq: 1}
	c.OnInject(id, 0, 20*time.Second)
	for _, n := range []wire.NodeID{1, 2, 3} {
		c.OnDeliver(n, id, []byte("p"))
	}
	c.Finish(end)
	if len(c.Violations()) != 0 {
		t.Fatalf("full delivery flagged: %v", c.Violations())
	}

	// A missing eligible node below the ratio: violation.
	f = connectedFakeNet(4)
	c = f.checker(cfg)
	c.OnInject(id, 0, 20*time.Second)
	c.OnDeliver(1, id, []byte("p"))
	c.Finish(end)
	if got := countByKind(c.Violations(), "validity"); got != 1 {
		t.Fatalf("want validity violation, got %v", c.Violations())
	}

	// The same miss is exempt if the node was crashed meanwhile.
	f = connectedFakeNet(4)
	c = f.checker(cfg)
	c.OnInject(id, 0, 20*time.Second)
	c.OnDeliver(1, id, []byte("p"))
	c.OnDown(2, 30*time.Second)
	c.OnDown(3, 40*time.Second)
	c.Finish(end)
	if len(c.Violations()) != 0 {
		t.Fatalf("crashed nodes not exempt: %v", c.Violations())
	}

	// Exempt if injected within the grace window before the end.
	f = connectedFakeNet(4)
	c = f.checker(cfg)
	c.OnInject(id, 0, 95*time.Second)
	c.Finish(end)
	if len(c.Violations()) != 0 {
		t.Fatalf("grace window not honoured: %v", c.Violations())
	}

	// Exempt if the origin was in another partition group.
	f = connectedFakeNet(4)
	c = f.checker(cfg)
	c.OnPartition([]int{0, 0, 1, 1}, 10*time.Second)
	c.OnInject(id, 0, 20*time.Second)
	c.OnDeliver(1, id, []byte("p"))
	c.Finish(end)
	if len(c.Violations()) != 0 {
		t.Fatalf("cross-partition nodes not exempt: %v", c.Violations())
	}

	// Nothing is promised for a Byzantine origin.
	f = connectedFakeNet(4)
	f.faulty[0] = true
	c = f.checker(cfg)
	c.OnInject(id, 0, 20*time.Second)
	c.Finish(end)
	if len(c.Violations()) != 0 {
		t.Fatalf("byzantine origin not exempt: %v", c.Violations())
	}
}

func TestDetectorSoundness(t *testing.T) {
	cfg := Config{Detectors: true, HealWindow: 45 * time.Second}
	// 5 connected correct nodes; 3 of the other 4 suspect node 0.
	build := func() *fakeNet {
		f := newFakeNet(5)
		for i := 1; i < 5; i++ {
			f.connect(0, wire.NodeID(i))
		}
		for _, obs := range []wire.NodeID{1, 2, 3} {
			f.suspect[[2]wire.NodeID{obs, 0}] = true
		}
		return f
	}

	f := build()
	c := f.checker(cfg)
	c.OnFault("crash(9)", 10*time.Second)
	c.Finish(100 * time.Second) // 90s quiet > HealWindow
	if got := countByKind(c.Violations(), "detector-soundness"); got != 1 {
		t.Fatalf("want a detector violation, got %v", c.Violations())
	}

	// Not yet quiet for HealWindow: the check must not fire.
	f = build()
	c = f.checker(cfg)
	c.OnFault("crash(9)", 70*time.Second)
	c.Finish(100 * time.Second)
	if len(c.Violations()) != 0 {
		t.Fatalf("fired inside the heal window: %v", c.Violations())
	}

	// A minority of suspicions is tolerated.
	f = build()
	delete(f.suspect, [2]wire.NodeID{3, 0})
	c = f.checker(cfg)
	c.Finish(100 * time.Second)
	if len(c.Violations()) != 0 {
		t.Fatalf("minority suspicion flagged: %v", c.Violations())
	}
}

func TestRecoveryProbe(t *testing.T) {
	cfg := Config{Recovery: true, RecoveryWindow: 10 * time.Second}
	// Line 0-1-2-3-4; node 2 active covers 1 and 3 but not 0 and 4.
	f := newFakeNet(5)
	for i := 0; i < 4; i++ {
		f.connect(wire.NodeID(i), wire.NodeID(i+1))
	}
	f.active[2] = true
	c := f.checker(cfg)
	vs := c.ProbeRecovery()
	if len(vs) != 2 {
		t.Fatalf("want 2 coverage violations (nodes 0 and 4), got %v", vs)
	}

	// Dominators at 1 and 3: full cover, and active nodes 1,3 are NOT
	// adjacent — connectivity violation.
	f.active[2] = false
	f.active[1], f.active[3] = true, true
	vs = c.ProbeRecovery()
	if len(vs) != 1 || !strings.Contains(vs[0].Detail, "disconnected") {
		t.Fatalf("want a connectivity violation, got %v", vs)
	}

	// Add node 2 as a bridge: clean.
	f.active[2] = true
	if vs = c.ProbeRecovery(); len(vs) != 0 {
		t.Fatalf("covered+connected overlay flagged: %v", vs)
	}

	// Crash node 4: the shrunken component must still be judged correctly,
	// and the lone remainder is skipped.
	f.down[4] = true
	if vs = c.ProbeRecovery(); len(vs) != 0 {
		t.Fatalf("after crash: %v", vs)
	}

	// No overlay at all in a component of two.
	f2 := newFakeNet(2)
	f2.connect(0, 1)
	c2 := f2.checker(cfg)
	if vs := c2.ProbeRecovery(); len(vs) != 1 || !strings.Contains(vs[0].Detail, "no overlay node") {
		t.Fatalf("want no-overlay violation, got %v", vs)
	}

	// CheckRecovery records what ProbeRecovery reports.
	c2.CheckRecovery()
	if len(c2.Violations()) != 1 {
		t.Fatalf("CheckRecovery did not record: %v", c2.Violations())
	}
}

func TestDownWindowsAndPartitionEras(t *testing.T) {
	f := newFakeNet(3)
	c := f.checker(Config{Validity: true, ValidityRatio: 0.9})
	c.OnDown(1, 10*time.Second)
	c.OnUp(1, 20*time.Second)
	if c.downDuring(1, 0, 5*time.Second) {
		t.Fatal("down before the window")
	}
	if !c.downDuring(1, 15*time.Second, 30*time.Second) {
		t.Fatal("missed an overlapping down window")
	}
	if c.downDuring(1, 25*time.Second, 30*time.Second) {
		t.Fatal("down after recovery")
	}
	// Open-ended window.
	c.OnDown(2, 40*time.Second)
	if !c.downDuring(2, 50*time.Second, 60*time.Second) {
		t.Fatal("missed an open down window")
	}

	// Partition eras: same group throughout vs split.
	c.OnPartition([]int{0, 0, 1}, 30*time.Second)
	c.OnPartition(nil, 50*time.Second)
	if !c.coGrouped(0, 1, 35*time.Second, 45*time.Second) {
		t.Fatal("co-grouped nodes reported split")
	}
	if c.coGrouped(0, 2, 35*time.Second, 45*time.Second) {
		t.Fatal("split nodes reported co-grouped")
	}
	if !c.coGrouped(0, 2, 55*time.Second, 60*time.Second) {
		t.Fatal("healed nodes reported split")
	}
}

func TestFaultLogAndViolationString(t *testing.T) {
	f := newFakeNet(2)
	c := f.checker(DefaultConfig())
	c.OnFault("crash(1)", 5*time.Second)
	c.OnFault("heal", 9*time.Second)
	log := c.FaultLog()
	if len(log) != 2 || !strings.Contains(log[0], "crash(1)") {
		t.Fatalf("fault log = %v", log)
	}
	v := Violation{At: 3 * time.Second, Invariant: "agreement", Detail: "boom"}
	if s := v.String(); !strings.Contains(s, "agreement") || !strings.Contains(s, "boom") {
		t.Fatalf("Violation.String() = %q", s)
	}
	if !DefaultConfig().Enabled() || (Config{}).Enabled() {
		t.Fatal("Enabled() wrong")
	}
}

// TestAtMostOnceRejoinSemantics: re-delivery without a wipe violates; a wipe
// re-arms the allowance exactly once per pre-wipe delivery; dedup must hold
// again for traffic delivered after the rejoin; and a quiescence-old repeat
// is exempt under RedeliveryGrace.
func TestAtMostOnceRejoinSemantics(t *testing.T) {
	cfg := Config{AtMostOnce: true, RedeliveryGrace: 60 * time.Second}
	id := wire.MsgID{Origin: 0, Seq: 1}

	// Plain duplicate: violation.
	f := newFakeNet(3)
	c := f.checker(cfg)
	f.now = 10 * time.Second
	c.OnDeliver(1, id, []byte("p"))
	f.now = 12 * time.Second
	c.OnDeliver(1, id, []byte("p"))
	if got := countByKind(c.Violations(), "at-most-once"); got != 1 {
		t.Fatalf("want 1 at-most-once violation, got %v", c.Violations())
	}
	// Different nodes delivering the same id is not a duplicate.
	f.now = 13 * time.Second
	c.OnDeliver(2, id, []byte("p"))
	if got := countByKind(c.Violations(), "at-most-once"); got != 1 {
		t.Fatalf("cross-node delivery flagged: %v", c.Violations())
	}

	// Deliver → wipe → re-deliver: clean (the wipe erased the filter).
	f = newFakeNet(3)
	c = f.checker(cfg)
	f.now = 10 * time.Second
	c.OnDeliver(1, id, []byte("p"))
	f.now = 15 * time.Second
	c.OnWipe(1, f.now)
	f.now = 18 * time.Second
	c.OnDeliver(1, id, []byte("p"))
	if len(c.Violations()) != 0 {
		t.Fatalf("post-wipe re-delivery flagged: %v", c.Violations())
	}
	// ...but the rejoined node's filter is re-established: repeating the same
	// id again with no further wipe violates.
	f.now = 20 * time.Second
	c.OnDeliver(1, id, []byte("p"))
	if got := countByKind(c.Violations(), "at-most-once"); got != 1 {
		t.Fatalf("post-rejoin duplicate not flagged: %v", c.Violations())
	}

	// A wipe only excuses the node it hit.
	f = newFakeNet(3)
	c = f.checker(cfg)
	f.now = 10 * time.Second
	c.OnDeliver(1, id, []byte("p"))
	f.now = 15 * time.Second
	c.OnWipe(2, f.now)
	f.now = 18 * time.Second
	c.OnDeliver(1, id, []byte("p"))
	if got := countByKind(c.Violations(), "at-most-once"); got != 1 {
		t.Fatalf("other node's wipe excused the duplicate: %v", c.Violations())
	}

	// Quiescence GC: a repeat older than RedeliveryGrace is benign.
	f = newFakeNet(3)
	c = f.checker(cfg)
	f.now = 10 * time.Second
	c.OnDeliver(1, id, []byte("p"))
	f.now = 75 * time.Second // 65s later > 60s grace
	c.OnDeliver(1, id, []byte("p"))
	if len(c.Violations()) != 0 {
		t.Fatalf("quiescence-old repeat flagged: %v", c.Violations())
	}

	// Strict mode (zero grace): the same old repeat violates.
	f = newFakeNet(3)
	c = f.checker(Config{AtMostOnce: true})
	f.now = 10 * time.Second
	c.OnDeliver(1, id, []byte("p"))
	f.now = 75 * time.Second
	c.OnDeliver(1, id, []byte("p"))
	if got := countByKind(c.Violations(), "at-most-once"); got != 1 {
		t.Fatalf("strict mode missed the repeat: %v", c.Violations())
	}

	// Disabled: duplicates pass silently.
	f = newFakeNet(3)
	c = f.checker(Config{})
	c.OnDeliver(1, id, []byte("p"))
	c.OnDeliver(1, id, []byte("p"))
	if len(c.Violations()) != 0 {
		t.Fatalf("disabled check fired: %v", c.Violations())
	}
}

func TestValidityExemptsDisconnectedCluster(t *testing.T) {
	cfg := Config{Validity: true, ValidityRatio: 0.9, ValidityGrace: 10 * time.Second}
	// Two components: 0-1-2 and 3-4. A message from node 0 owes nothing to
	// the far cluster.
	f := newFakeNet(5)
	f.connect(0, 1)
	f.connect(1, 2)
	f.connect(3, 4)
	c := f.checker(cfg)
	id := wire.MsgID{Origin: 0, Seq: 1}
	c.OnInject(id, 0, 20*time.Second)
	c.OnDeliver(1, id, []byte("p"))
	c.OnDeliver(2, id, []byte("p"))
	c.Finish(100 * time.Second)
	if len(c.Violations()) != 0 {
		t.Fatalf("disconnected cluster not exempt: %v", c.Violations())
	}
	// But a missing node inside the origin's own component still counts.
	c = f.checker(cfg)
	c.OnInject(id, 0, 20*time.Second)
	c.OnDeliver(1, id, []byte("p"))
	c.Finish(100 * time.Second)
	if got := countByKind(c.Violations(), "validity"); got != 1 {
		t.Fatalf("want 1 violation for in-component miss, got %v", c.Violations())
	}
}

// TestOnInjectAllocationCeiling: an injection's reachability snapshot on a
// 75-node grid (15 × 5, four-neighbour links) costs one allocation, its
// bitset; the breadth-first queue is reused.
func TestOnInjectAllocationCeiling(t *testing.T) {
	const cols, rows = 15, 5
	adj := make([][]wire.NodeID, cols*rows)
	for i := range adj {
		x, y := i%cols, i/cols
		for _, d := range [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
			if nx, ny := x+d[0], y+d[1]; nx >= 0 && nx < cols && ny >= 0 && ny < rows {
				adj[i] = append(adj[i], wire.NodeID(ny*cols+nx))
			}
		}
	}
	c := New(Config{}, func() time.Duration { return 0 }, Probes{
		N:         len(adj),
		Neighbors: func(id wire.NodeID) []wire.NodeID { return adj[id] },
	})
	c.injections = make([]injection, 0, 1024) // keep the log's growth out of the count
	seq := wire.Seq(0)
	alloctest.AtMost(t, 1, func() {
		seq++
		c.OnInject(wire.MsgID{Origin: 7, Seq: seq}, 7, 0)
	})
	last := c.injections[len(c.injections)-1].reachable
	for i := range adj {
		if !last.has(wire.NodeID(i)) {
			t.Fatalf("node %d missing from the connected grid's component", i)
		}
	}
}
