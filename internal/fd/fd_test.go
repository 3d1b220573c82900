package fd

import (
	"testing"
	"time"

	"bbcast/internal/wire"
)

// fakeClock is a manually advanced time source.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) Now() time.Duration      { return c.t }
func (c *fakeClock) Advance(d time.Duration) { c.t += d }
func (c *fakeClock) NowFunc() Now            { return c.Now }
func key(origin, seq uint32) ExpectKey {
	return ExpectKey{Kind: wire.KindData, ID: wire.MsgID{Origin: wire.NodeID(origin), Seq: wire.Seq(seq)}}
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
	m.Expect(key(1, 1), []wire.NodeID{5}, ExpectAny)
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
	m.Expect(key(1, 1), []wire.NodeID{5}, ExpectAny)
	c.Advance(150 * time.Millisecond)
	if !m.Suspected(5) {
		t.Fatal("missed expectation not suspected (completeness violated)")
	}
}

func TestMuteExpectAnySatisfiedByOne(t *testing.T) {
	c := &fakeClock{}
	m := NewMute(c.NowFunc(), muteCfg())
	m.Expect(key(1, 1), []wire.NodeID{2, 3, 4}, ExpectAny)
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
	m.Expect(key(1, 1), []wire.NodeID{2, 3}, ExpectAny)
	c.Advance(150 * time.Millisecond)
	if !m.Suspected(2) || !m.Suspected(3) {
		t.Fatal("unfulfilled ANY expectation should suspect all listed nodes")
	}
}

func TestMuteExpectAllIndividual(t *testing.T) {
	c := &fakeClock{}
	m := NewMute(c.NowFunc(), muteCfg())
	m.Expect(key(1, 1), []wire.NodeID{2, 3}, ExpectAll)
	m.Fulfill(key(1, 1), 2)
	c.Advance(150 * time.Millisecond)
	if m.Suspected(2) {
		t.Fatal("node 2 sent and is still suspected")
	}
	if !m.Suspected(3) {
		t.Fatal("node 3 never sent and is not suspected")
	}
}

func TestMuteFulfillWrongKeyIgnored(t *testing.T) {
	c := &fakeClock{}
	m := NewMute(c.NowFunc(), muteCfg())
	m.Expect(key(1, 1), []wire.NodeID{5}, ExpectAny)
	m.Fulfill(key(1, 2), 5) // different message
	c.Advance(150 * time.Millisecond)
	if !m.Suspected(5) {
		t.Fatal("fulfilment of unrelated key cleared the expectation")
	}
}

func TestMuteFulfillFromUnlistedNodeIgnored(t *testing.T) {
	c := &fakeClock{}
	m := NewMute(c.NowFunc(), muteCfg())
	m.Expect(key(1, 1), []wire.NodeID{5}, ExpectAny)
	m.Fulfill(key(1, 1), 9)
	c.Advance(150 * time.Millisecond)
	if !m.Suspected(5) {
		t.Fatal("fulfilment by unlisted node cleared the expectation")
	}
}

func TestMuteSuspicionExpires(t *testing.T) {
	c := &fakeClock{}
	m := NewMute(c.NowFunc(), muteCfg()) // suspicion TTL 1s
	m.Expect(key(1, 1), []wire.NodeID{5}, ExpectAny)
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
		m.Expect(key(1, uint32(i)), []wire.NodeID{5}, ExpectAny)
		c.Advance(150 * time.Millisecond)
	}
	if m.Suspected(5) {
		t.Fatal("suspected below threshold")
	}
	m.Expect(key(1, 9), []wire.NodeID{5}, ExpectAny)
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
	m.Expect(key(1, 1), []wire.NodeID{5}, ExpectAny)
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
	m.Expect(key(1, 2), []wire.NodeID{5}, ExpectAny)
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
	m.Expect(key(1, 1), []wire.NodeID{5}, ExpectAny)
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
		m.Expect(key(1, uint32(i)), []wire.NodeID{5}, ExpectAny)
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
	m.Expect(key(1, 1), nil, ExpectAny)
	c.Advance(time.Second)
	if len(m.Suspects()) != 0 {
		t.Fatal("empty expectation produced suspects")
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
	m.Expect(key(1, 1), []wire.NodeID{8}, ExpectAny)
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
	m.Expect(key(9, 9), []wire.NodeID{2}, ExpectAny)
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
	m.Expect(key(1, 1), []wire.NodeID{5}, ExpectAny)
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
	m.Expect(key(1, 1), []wire.NodeID{5}, ExpectAny)
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
		m.Expect(key(1, uint32(i)), []wire.NodeID{5}, ExpectAny)
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
	m.Expect(key(1, 99), []wire.NodeID{5}, ExpectAny)
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

	m.Expect(key(1, 1), []wire.NodeID{5}, ExpectAny)
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
	m.Expect(key(1, 2), []wire.NodeID{5}, ExpectAny)
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
