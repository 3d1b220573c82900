package fd

import (
	"slices"
	"testing"
	"time"

	"bbcast/internal/alloctest"
	"bbcast/internal/wire"
)

// fakeClock is a manually advanced time source.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) Now() time.Duration      { return c.t }
func (c *fakeClock) Advance(d time.Duration) { c.t += d }
func (c *fakeClock) NowFunc() Now            { return c.Now }
func key(origin, seq uint32) wire.MsgID {
	return wire.MsgID{Origin: wire.NodeID(origin), Seq: wire.Seq(seq)}
}

func muteCfg() MuteConfig {
	return MuteConfig{
		Timeout:      100 * time.Millisecond,
		Threshold:    1,
		SuspicionTTL: time.Second,
		AgeInterval:  500 * time.Millisecond,
	}
}

func TestMuteFulfilledNotSuspected(t *testing.T) {
	c := &fakeClock{}
	m := NewMute(c.NowFunc(), muteCfg())
	m.Expect(key(1, 1), []wire.NodeID{5})
	c.Advance(50 * time.Millisecond)
	m.Fulfill(key(1, 1), 5)
	c.Advance(200 * time.Millisecond)
	if m.Suspected(5) {
		t.Fatal("fulfilled expectation led to suspicion (accuracy violated)")
	}
}

func TestMuteTimeoutSuspects(t *testing.T) {
	c := &fakeClock{}
	m := NewMute(c.NowFunc(), muteCfg())
	m.Expect(key(1, 1), []wire.NodeID{5})
	c.Advance(150 * time.Millisecond)
	if !m.Suspected(5) {
		t.Fatal("missed expectation not suspected (completeness violated)")
	}
}

func TestMuteExpectAnySatisfiedByOne(t *testing.T) {
	c := &fakeClock{}
	m := NewMute(c.NowFunc(), muteCfg())
	m.Expect(key(1, 1), []wire.NodeID{2, 3, 4})
	m.Fulfill(key(1, 1), 3)
	c.Advance(time.Second)
	for _, id := range []wire.NodeID{2, 3, 4} {
		if m.Suspected(id) {
			t.Fatalf("node %d suspected though ANY expectation was satisfied", id)
		}
	}
}

func TestMuteExpectAnyTimeoutSuspectsAll(t *testing.T) {
	c := &fakeClock{}
	m := NewMute(c.NowFunc(), muteCfg())
	m.Expect(key(1, 1), []wire.NodeID{2, 3})
	c.Advance(150 * time.Millisecond)
	if !m.Suspected(2) || !m.Suspected(3) {
		t.Fatal("unfulfilled ANY expectation should suspect all listed nodes")
	}
}

// TestMuteExpectListIsASet: a node listed twice takes one miss, and the
// caller's slice is neither kept nor reordered.
func TestMuteExpectListIsASet(t *testing.T) {
	c := &fakeClock{}
	cfg := muteCfg()
	cfg.Threshold = 2
	m := NewMute(c.NowFunc(), cfg)
	nodes := []wire.NodeID{7, 3, 7, 5}
	m.Expect(key(1, 1), nodes)
	nodes[0] = 9
	c.Advance(150 * time.Millisecond)
	for id, want := range map[wire.NodeID]int{3: 1, 5: 1, 7: 1, 9: 0} {
		if got := m.Misses(id); got != want {
			t.Errorf("node %d: %d misses, want %d", id, got, want)
		}
	}
	if nodes[1] != 3 || nodes[2] != 7 || nodes[3] != 5 {
		t.Errorf("Expect reordered the caller's slice: %v", nodes)
	}
}

func TestMuteFulfillWrongKeyIgnored(t *testing.T) {
	c := &fakeClock{}
	m := NewMute(c.NowFunc(), muteCfg())
	m.Expect(key(1, 1), []wire.NodeID{5})
	m.Fulfill(key(1, 2), 5) // different message
	c.Advance(150 * time.Millisecond)
	if !m.Suspected(5) {
		t.Fatal("fulfilment of unrelated key cleared the expectation")
	}
}

func TestMuteFulfillFromUnlistedNodeIgnored(t *testing.T) {
	c := &fakeClock{}
	m := NewMute(c.NowFunc(), muteCfg())
	m.Expect(key(1, 1), []wire.NodeID{5})
	m.Fulfill(key(1, 1), 9)
	c.Advance(150 * time.Millisecond)
	if !m.Suspected(5) {
		t.Fatal("fulfilment by unlisted node cleared the expectation")
	}
}

func TestMuteSuspicionExpires(t *testing.T) {
	c := &fakeClock{}
	m := NewMute(c.NowFunc(), muteCfg()) // suspicion TTL 1s
	m.Expect(key(1, 1), []wire.NodeID{5})
	c.Advance(150 * time.Millisecond)
	if !m.Suspected(5) {
		t.Fatal("not suspected")
	}
	c.Advance(2 * time.Second)
	if m.Suspected(5) {
		t.Fatal("suspicion did not expire after suspicion interval")
	}
}

func TestMuteThresholdRequiresRepeatedMisses(t *testing.T) {
	c := &fakeClock{}
	cfg := muteCfg()
	cfg.Threshold = 3
	cfg.AgeInterval = 0
	m := NewMute(c.NowFunc(), cfg)
	for i := 0; i < 2; i++ {
		m.Expect(key(1, uint32(i)), []wire.NodeID{5})
		c.Advance(150 * time.Millisecond)
	}
	if m.Suspected(5) {
		t.Fatal("suspected below threshold")
	}
	m.Expect(key(1, 9), []wire.NodeID{5})
	c.Advance(150 * time.Millisecond)
	if !m.Suspected(5) {
		t.Fatal("not suspected at threshold")
	}
}

func TestMuteCounterAging(t *testing.T) {
	c := &fakeClock{}
	cfg := muteCfg()
	cfg.Threshold = 2
	cfg.AgeInterval = 300 * time.Millisecond
	m := NewMute(c.NowFunc(), cfg)
	m.Expect(key(1, 1), []wire.NodeID{5})
	c.Advance(150 * time.Millisecond)
	if got := m.Misses(5); got != 1 {
		t.Fatalf("Misses = %d, want 1", got)
	}
	// After one age interval the counter decays back to 0, so a later
	// single miss does not cross the threshold.
	c.Advance(400 * time.Millisecond)
	if got := m.Misses(5); got != 0 {
		t.Fatalf("Misses after aging = %d, want 0", got)
	}
	m.Expect(key(1, 2), []wire.NodeID{5})
	c.Advance(150 * time.Millisecond)
	if m.Suspected(5) {
		t.Fatal("aged counter should prevent suspicion from isolated misses")
	}
}

func TestMuteOnSuspectCallback(t *testing.T) {
	c := &fakeClock{}
	m := NewMute(c.NowFunc(), muteCfg())
	var events []bool
	m.OnSuspect = func(id wire.NodeID, s bool) { events = append(events, s) }
	m.Expect(key(1, 1), []wire.NodeID{5})
	c.Advance(150 * time.Millisecond)
	m.Suspected(5) // trigger sweep
	c.Advance(2 * time.Second)
	m.Suspected(5) // trigger expiry
	if len(events) != 2 || events[0] != true || events[1] != false {
		t.Fatalf("callback events = %v, want [true false]", events)
	}
}

func TestMutePendingCleanup(t *testing.T) {
	c := &fakeClock{}
	m := NewMute(c.NowFunc(), muteCfg())
	for i := 0; i < 10; i++ {
		m.Expect(key(1, uint32(i)), []wire.NodeID{5})
	}
	if got := m.PendingExpectations(); got != 10 {
		t.Fatalf("pending = %d", got)
	}
	c.Advance(time.Second)
	if got := m.PendingExpectations(); got != 0 {
		t.Fatalf("expired expectations not reaped: %d", got)
	}
}

func TestMuteEmptyExpectNoop(t *testing.T) {
	c := &fakeClock{}
	m := NewMute(c.NowFunc(), muteCfg())
	m.Expect(key(1, 1), nil)
	c.Advance(time.Second)
	if len(m.Suspects()) != 0 {
		t.Fatal("empty expectation produced suspects")
	}
}

// TestMuteExpectDoesNotAllocate: an expectation fills the waiting slice of
// one that was fulfilled or swept before it.
func TestMuteExpectDoesNotAllocate(t *testing.T) {
	c := &fakeClock{}
	m := NewMute(c.NowFunc(), muteCfg())
	overlay := []wire.NodeID{9, 4, 7, 4}
	seq := uint32(0)
	alloctest.AtMost(t, 0, func() {
		seq++
		m.Expect(key(1, seq), overlay)
		m.Fulfill(key(1, seq), 7)
		m.Expect(key(2, seq), []wire.NodeID{3})
		c.Advance(time.Second)
		m.Suspected(3) // sweeps the second, which 3 missed
	})
}

// TestMuteRecycledSliceIsNotShared: a waiting slice goes back to Expect only
// once its own expectation is gone, so one still pending keeps its nodes.
func TestMuteRecycledSliceIsNotShared(t *testing.T) {
	c := &fakeClock{}
	m := NewMute(c.NowFunc(), muteCfg())
	m.Expect(key(1, 1), []wire.NodeID{2})
	m.Expect(key(1, 1), []wire.NodeID{3})
	m.Fulfill(key(1, 1), 2) // drops the first, keeps the second
	m.Expect(key(1, 2), []wire.NodeID{4})
	m.Fulfill(key(1, 2), 4)
	c.Advance(time.Second)
	if m.Misses(2) != 0 || m.Misses(3) != 1 || m.Misses(4) != 0 {
		t.Errorf("misses of 2, 3, 4 = %d, %d, %d; want 0, 1, 0", m.Misses(2), m.Misses(3), m.Misses(4))
	}
}

func verboseCfg() VerboseConfig {
	return VerboseConfig{
		Threshold:    3,
		SuspicionTTL: time.Second,
		AgeInterval:  500 * time.Millisecond,
	}
}

func TestVerboseThreshold(t *testing.T) {
	c := &fakeClock{}
	v := NewVerbose(c.NowFunc(), verboseCfg())
	v.Indict(7)
	v.Indict(7)
	if v.Suspected(7) {
		t.Fatal("suspected below threshold")
	}
	v.Indict(7)
	if !v.Suspected(7) {
		t.Fatal("not suspected at threshold")
	}
}

func TestVerboseSuspicionExpiresAndAges(t *testing.T) {
	c := &fakeClock{}
	v := NewVerbose(c.NowFunc(), verboseCfg())
	for i := 0; i < 3; i++ {
		v.Indict(7)
	}
	c.Advance(2 * time.Second)
	if v.Suspected(7) {
		t.Fatal("suspicion did not expire")
	}
	if v.Indictments(7) != 0 {
		t.Fatalf("indictments did not age out: %d", v.Indictments(7))
	}
}

func trustCfg() TrustConfig {
	return TrustConfig{DirectTTL: 60 * time.Second, ReportTTL: 30 * time.Second}
}

// TestAppendSuspectsEmitsInIDOrder: when direct suspicions have expired,
// AppendSuspects' Level call falls through to MUTE for each of them, and MUTE
// clears its own expired suspicion there. Those clears are observer events,
// so they must come in ascending id however the direct suspicions are held.
func TestAppendSuspectsEmitsInIDOrder(t *testing.T) {
	ids := []wire.NodeID{21, 3, 55, 8, 34, 5, 13, 89} // suspected out of order
	want := slices.Clone(ids)
	slices.Sort(want)
	for trial := 0; trial < 5; trial++ {
		c := &fakeClock{}
		m := NewMute(c.NowFunc(), muteCfg())
		tr := NewTrust(c.NowFunc(), trustCfg(), m, nil)
		m.Expect(key(1, 1), ids)
		c.Advance(150 * time.Millisecond)
		if got := m.Suspects(); len(got) != len(ids) {
			t.Fatalf("MUTE suspects %v, want all of %v", got, ids)
		}
		for _, id := range ids {
			tr.Suspect(id, ReasonBadSignature)
		}
		var cleared []wire.NodeID
		m.OnSuspect = func(id wire.NodeID, suspected bool) {
			if !suspected {
				cleared = append(cleared, id)
			}
		}
		c.Advance(trustCfg().DirectTTL) // past both the direct and the MUTE TTL
		if got := tr.AppendSuspects(nil); len(got) != 0 {
			t.Fatalf("suspects after expiry = %v, want none", got)
		}
		if !slices.Equal(cleared, want) {
			t.Fatalf("MUTE clears came in order %v, want %v", cleared, want)
		}
	}
}

func TestTrustDefaultsTrusted(t *testing.T) {
	c := &fakeClock{}
	tr := NewTrust(c.NowFunc(), trustCfg(), nil, nil)
	if tr.Level(1) != Trusted {
		t.Fatal("fresh node not trusted")
	}
}

func TestTrustDirectSuspicion(t *testing.T) {
	c := &fakeClock{}
	cfg := TrustConfig{DirectTTL: time.Second, ReportTTL: time.Second}
	tr := NewTrust(c.NowFunc(), cfg, nil, nil)
	tr.Suspect(4, ReasonBadSignature)
	if tr.Level(4) != Untrusted {
		t.Fatal("direct suspicion not Untrusted")
	}
	r, ok := tr.Reason(4)
	if !ok || r != ReasonBadSignature {
		t.Fatalf("Reason = %v,%v", r, ok)
	}
	c.Advance(2 * time.Second)
	if tr.Level(4) != Trusted {
		t.Fatal("direct suspicion did not expire")
	}
}

func TestTrustConsultsMuteAndVerbose(t *testing.T) {
	c := &fakeClock{}
	m := NewMute(c.NowFunc(), muteCfg())
	v := NewVerbose(c.NowFunc(), verboseCfg())
	tr := NewTrust(c.NowFunc(), trustCfg(), m, v)
	m.Expect(key(1, 1), []wire.NodeID{8})
	c.Advance(150 * time.Millisecond)
	if tr.Level(8) != Untrusted {
		t.Fatal("mute suspicion not reflected in trust")
	}
	for i := 0; i < 3; i++ {
		v.Indict(9)
	}
	if tr.Level(9) != Untrusted {
		t.Fatal("verbose suspicion not reflected in trust")
	}
	if got, _ := tr.Reason(8); got != ReasonMute {
		t.Fatalf("Reason(8) = %v", got)
	}
	if got, _ := tr.Reason(9); got != ReasonVerbose {
		t.Fatalf("Reason(9) = %v", got)
	}
}

func TestTrustSecondHandReportUnknown(t *testing.T) {
	c := &fakeClock{}
	tr := NewTrust(c.NowFunc(), TrustConfig{DirectTTL: time.Second, ReportTTL: time.Second}, nil, nil)
	tr.Report(2, 3)
	if tr.Level(3) != Unknown {
		t.Fatalf("Level(3) = %v, want Unknown", tr.Level(3))
	}
	c.Advance(2 * time.Second)
	if tr.Level(3) != Trusted {
		t.Fatal("second-hand report did not expire")
	}
}

func TestTrustReportFromUntrustedIgnored(t *testing.T) {
	// §3.3: "unless p already suspects either q or r".
	c := &fakeClock{}
	tr := NewTrust(c.NowFunc(), trustCfg(), nil, nil)
	tr.Suspect(2, ReasonBadSignature)
	tr.Report(2, 3) // reporter untrusted
	if tr.Level(3) != Trusted {
		t.Fatal("report from untrusted node demoted subject")
	}
}

func TestTrustReportAboutUntrustedKeepsUntrusted(t *testing.T) {
	c := &fakeClock{}
	tr := NewTrust(c.NowFunc(), trustCfg(), nil, nil)
	tr.Suspect(3, ReasonBadSignature)
	tr.Report(2, 3)
	if tr.Level(3) != Untrusted {
		t.Fatal("already-untrusted node should stay untrusted")
	}
}

func TestTrustSuspectsAggregates(t *testing.T) {
	c := &fakeClock{}
	m := NewMute(c.NowFunc(), muteCfg())
	v := NewVerbose(c.NowFunc(), verboseCfg())
	tr := NewTrust(c.NowFunc(), trustCfg(), m, v)
	tr.Suspect(1, ReasonBadSignature)
	m.Expect(key(9, 9), []wire.NodeID{2})
	c.Advance(150 * time.Millisecond)
	for i := 0; i < 3; i++ {
		v.Indict(3)
	}
	got := tr.Suspects()
	want := []wire.NodeID{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Suspects = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Suspects = %v, want %v", got, want)
		}
	}
}

func TestTrustSecondHandDoesNotAppearInSuspects(t *testing.T) {
	// Only locally observed (Untrusted) nodes are advertised; Unknown nodes
	// are not, preventing endless rumor propagation.
	c := &fakeClock{}
	tr := NewTrust(c.NowFunc(), trustCfg(), nil, nil)
	tr.Report(2, 3)
	if len(tr.Suspects()) != 0 {
		t.Fatalf("Suspects = %v, want empty", tr.Suspects())
	}
}

func TestForeverSuspicionWithZeroTTL(t *testing.T) {
	// Zero TTL realizes the ◇P (eventually-perfect) variants.
	c := &fakeClock{}
	cfg := muteCfg()
	cfg.SuspicionTTL = 0
	cfg.AgeInterval = 0
	m := NewMute(c.NowFunc(), cfg)
	m.Expect(key(1, 1), []wire.NodeID{5})
	c.Advance(150 * time.Millisecond)
	if !m.Suspected(5) {
		t.Fatal("not suspected")
	}
	c.Advance(1000 * time.Hour)
	if !m.Suspected(5) {
		t.Fatal("◇P-style suspicion expired")
	}
}

func TestMuteHealFiresOnChangeExactlyOnce(t *testing.T) {
	c := &fakeClock{}
	m := NewMute(c.NowFunc(), muteCfg())
	type ev struct {
		id wire.NodeID
		s  bool
	}
	var events []ev
	m.OnSuspect = func(id wire.NodeID, s bool) { events = append(events, ev{id, s}) }
	m.Expect(key(1, 1), []wire.NodeID{5})
	c.Advance(150 * time.Millisecond)
	if !m.Suspected(5) {
		t.Fatal("not suspected after miss")
	}
	// Past the TTL: the first query heals and notifies; repeated queries
	// through every read path must not re-fire the heal notification.
	c.Advance(2 * time.Second)
	for i := 0; i < 3; i++ {
		if m.Suspected(5) {
			t.Fatal("suspicion did not expire")
		}
		if len(m.Suspects()) != 0 {
			t.Fatal("Suspects still lists healed node")
		}
	}
	want := []ev{{5, true}, {5, false}}
	if len(events) != 2 || events[0] != want[0] || events[1] != want[1] {
		t.Fatalf("onChange events = %v, want %v", events, want)
	}
}

func TestMuteDecayAcrossMultipleAgeIntervals(t *testing.T) {
	c := &fakeClock{}
	cfg := muteCfg()
	cfg.Threshold = 10 // never suspect; this test is about the counter
	cfg.AgeInterval = 200 * time.Millisecond
	m := NewMute(c.NowFunc(), cfg)
	for i := 0; i < 5; i++ {
		m.Expect(key(1, uint32(i)), []wire.NodeID{5})
	}
	c.Advance(150 * time.Millisecond)
	if got := m.Misses(5); got != 5 {
		t.Fatalf("Misses = %d, want 5", got)
	}
	// 3 full age intervals elapse at once: the counter must decay by 3,
	// not by 1, and the residue must keep decaying on later reads.
	c.Advance(600 * time.Millisecond)
	if got := m.Misses(5); got != 2 {
		t.Fatalf("Misses after 3 intervals = %d, want 2", got)
	}
	c.Advance(10 * cfg.AgeInterval)
	if got := m.Misses(5); got != 0 {
		t.Fatalf("counter did not drain to 0: %d", got)
	}
	// Draining past zero must not go negative (a fresh miss still counts).
	m.Expect(key(1, 99), []wire.NodeID{5})
	c.Advance(150 * time.Millisecond)
	if got := m.Misses(5); got != 1 {
		t.Fatalf("Misses after drain+miss = %d, want 1", got)
	}
}

func TestMuteReSuspicionAfterHeal(t *testing.T) {
	c := &fakeClock{}
	cfg := muteCfg()
	cfg.AgeInterval = 0 // isolate the TTL cycle from counter decay
	m := NewMute(c.NowFunc(), cfg)
	var events []bool
	m.OnSuspect = func(id wire.NodeID, s bool) { events = append(events, s) }

	m.Expect(key(1, 1), []wire.NodeID{5})
	c.Advance(150 * time.Millisecond)
	if !m.Suspected(5) {
		t.Fatal("first suspicion missing")
	}
	c.Advance(2 * time.Second)
	if m.Suspected(5) {
		t.Fatal("first suspicion did not heal")
	}
	// The node misbehaves again after healing: a fresh suspicion must open
	// with a fresh TTL and a fresh onChange(true).
	m.Expect(key(1, 2), []wire.NodeID{5})
	c.Advance(150 * time.Millisecond)
	if !m.Suspected(5) {
		t.Fatal("re-suspicion missing")
	}
	c.Advance(500 * time.Millisecond)
	if !m.Suspected(5) {
		t.Fatal("re-suspicion expired before its TTL")
	}
	c.Advance(time.Second)
	if m.Suspected(5) {
		t.Fatal("re-suspicion did not heal")
	}
	want := []bool{true, false, true, false}
	if len(events) != len(want) {
		t.Fatalf("onChange events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("onChange events = %v, want %v", events, want)
		}
	}
}
