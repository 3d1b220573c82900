package runner

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"bbcast/internal/faultplan"
	"bbcast/internal/radio"
	"bbcast/internal/sim"
	"bbcast/internal/wire"
)

func chaosScenario() Scenario {
	sc := quickScenario()
	sc.FaultPlan = &faultplan.Plan{
		Events: []faultplan.Event{
			{At: 20 * time.Second, Kind: faultplan.Crash, Node: 7},
			{At: 35 * time.Second, Kind: faultplan.Recover, Node: 7},
			{At: 25 * time.Second, Kind: faultplan.DegradeRadio,
				LossFactor: 0.2, Duration: 5 * time.Second},
		},
	}
	return sc
}

func TestFaultPlanDeterministic(t *testing.T) {
	sc := chaosScenario()
	sc.FaultPlan.Churn = &faultplan.Churn{
		Rate: 0.3, Start: 15 * time.Second, End: 40 * time.Second}
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.FaultEvents, b.FaultEvents) {
		t.Fatalf("same seed, different fault timelines:\n%v\n%v", a.FaultEvents, b.FaultEvents)
	}
	if a.DeliveryRatio != b.DeliveryRatio || a.TotalTx != b.TotalTx {
		t.Fatalf("same seed, different outcomes: %.4f/%d vs %.4f/%d",
			a.DeliveryRatio, a.TotalTx, b.DeliveryRatio, b.TotalTx)
	}
	sc.Seed = sc.Seed + 1
	c, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.FaultEvents, c.FaultEvents) {
		t.Fatal("different seeds produced identical churn timelines")
	}
}

func TestFaultEventsRecordedAndTraced(t *testing.T) {
	var buf bytes.Buffer
	sc := chaosScenario()
	sc.Trace = &buf
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	// 3 planned events + the scheduled radio restoration.
	if len(res.FaultEvents) != 4 {
		t.Fatalf("fault events = %v", res.FaultEvents)
	}
	if res.FaultEvents[0].Name != "crash(7)" || res.FaultEvents[0].At != 20*time.Second {
		t.Fatalf("first event = %+v", res.FaultEvents[0])
	}
	names := make([]string, len(res.FaultEvents))
	for i, e := range res.FaultEvents {
		names[i] = e.Name
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"crash(7)", "recover(7)", "degrade-radio", "radio-restored"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q in %v", want, names)
		}
	}

	var faults []string
	scanner := bufio.NewScanner(&buf)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		var ev struct {
			Type   string `json:"type"`
			Detail string `json:"detail"`
		}
		if err := json.Unmarshal(scanner.Bytes(), &ev); err != nil {
			t.Fatalf("trace line not JSON: %v", err)
		}
		if ev.Type == "fault" {
			faults = append(faults, ev.Detail)
		}
	}
	if len(faults) != 4 || faults[0] != "crash(7)" {
		t.Fatalf("trace fault events = %v", faults)
	}
}

func TestPartitionHealRunsClean(t *testing.T) {
	sc := quickScenario()
	sc.Duration = 90 * time.Second
	sc.Workload.End = 75 * time.Second
	var left []wire.NodeID
	for i := 0; i < sc.N/2; i++ {
		left = append(left, wire.NodeID(i))
	}
	sc.FaultPlan = &faultplan.Plan{Events: []faultplan.Event{
		{At: 25 * time.Second, Kind: faultplan.Partition, Groups: [][]wire.NodeID{left}},
		{At: 50 * time.Second, Kind: faultplan.Heal},
	}}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("clean partition/heal run violated invariants: %v", res.Violations)
	}
	if res.DeliveryRatio < 0.5 {
		t.Fatalf("delivery collapsed: %.3f", res.DeliveryRatio)
	}
}

func TestSwapBehaviorExcludedFromCorrect(t *testing.T) {
	sc := quickScenario()
	sc.FaultPlan = &faultplan.Plan{Events: []faultplan.Event{
		{At: 20 * time.Second, Kind: faultplan.SwapBehavior, Node: 4, Behavior: "mute"},
		{At: 22 * time.Second, Kind: faultplan.SwapBehavior, Node: 9, Behavior: "tamper"},
	}}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCorrect != sc.N-2 {
		t.Fatalf("NumCorrect = %d, want %d", res.NumCorrect, sc.N-2)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("swap run violated invariants: %v", res.Violations)
	}
}

// TestOverlappingDegradeRadioWindowsCompose is the regression test for the
// last-writer-wins bug: two overlapping windows of one kind used to share one
// setting, so the inner window clobbered the outer one and the inner expiry
// cleared the channel while the outer window was still open. Through the
// fault-plan path, overlapping windows of every windowed kind must compose
// and each expiry must remove exactly its own window.
func TestOverlappingDegradeRadioWindowsCompose(t *testing.T) {
	outerBurst := radio.BurstConfig{Loss: 1, MeanBad: 2 * time.Second, MeanGood: 700 * time.Millisecond}
	innerBurst := radio.BurstConfig{Loss: 0.5, MeanBad: 300 * time.Millisecond, MeanGood: 900 * time.Millisecond}
	cases := []struct {
		kind         faultplan.Kind
		outer, inner faultplan.Event // the kind's fields; times are set below
		// alone and both are the composed impairment with the outer window
		// open, alone and with the inner one inside it.
		alone, both radio.Impairment
	}{
		{faultplan.DegradeRadio,
			faultplan.Event{LossFactor: 0.5}, faultplan.Event{LossFactor: 0.5},
			radio.Impairment{Loss: 0.5}, radio.Impairment{Loss: 0.75}},
		{faultplan.BurstLoss,
			faultplan.Event{LossFactor: 1, MeanBad: outerBurst.MeanBad, MeanGood: outerBurst.MeanGood},
			faultplan.Event{LossFactor: 0.5, MeanBad: innerBurst.MeanBad, MeanGood: innerBurst.MeanGood},
			radio.Impairment{Burst: outerBurst}, radio.Impairment{Burst: innerBurst}},
		{faultplan.Jitter,
			faultplan.Event{MaxJitter: 80 * time.Millisecond}, faultplan.Event{MaxJitter: 20 * time.Millisecond},
			radio.Impairment{Jitter: 80 * time.Millisecond}, radio.Impairment{Jitter: 80 * time.Millisecond}},
		{faultplan.Duplicate,
			faultplan.Event{DupProb: 0.5}, faultplan.Event{DupProb: 0.25},
			radio.Impairment{Dup: 0.5}, radio.Impairment{Dup: 0.625}},
		{faultplan.AsymDegrade,
			faultplan.Event{LossFactor: 0.25}, faultplan.Event{LossFactor: 0.5},
			radio.Impairment{Asym: 0.25}, radio.Impairment{Asym: 0.625}},
	}
	for _, tc := range cases {
		t.Run(string(tc.kind), func(t *testing.T) {
			sc := DefaultScenario()
			sc.N = 4
			eng := sim.New(1)
			medium := radio.New(eng, buildMobility(sc), sc.N, sc.Radio)
			defer medium.Close()
			outer, inner := tc.outer, tc.inner
			outer.Kind, outer.At, outer.Duration = tc.kind, 10*time.Second, 20*time.Second // 10s–30s
			inner.Kind, inner.At, inner.Duration = tc.kind, 15*time.Second, 5*time.Second  // 15s–20s
			if err := scheduleFaultPlan(sc, eng, medium, nil, nil, nil, nil, nil, []faultplan.Event{outer, inner}); err != nil {
				t.Fatal(err)
			}
			probe := func(at time.Duration, want radio.Impairment) {
				eng.At(at, func() {
					if got := medium.Impairment(); got != want {
						t.Errorf("at %s: Impairment() = %+v, want %+v", at, got, want)
					}
				})
			}
			probe(12*time.Second, tc.alone)           // outer window alone
			probe(17*time.Second, tc.both)            // both windows open
			probe(25*time.Second, tc.alone)           // inner expired, outer must survive
			probe(35*time.Second, radio.Impairment{}) // both expired
			eng.Run(40 * time.Second)
		})
	}
}

func TestEquivocationFiresAgreement(t *testing.T) {
	sc := quickScenario()
	// Two equivocators: a lone one only splits the network for the moments
	// before its variants cross paths, so whether any correct pair durably
	// accepts different payloads is seed luck. A pair reinforcing each other's
	// variants produces agreement violations across seeds.
	sc.Adversaries = []Adversaries{{Kind: AdvEquivocate, Count: 2}}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	var agreement int
	for _, v := range res.Violations {
		if v.Invariant == "agreement" {
			agreement++
		}
	}
	if agreement == 0 {
		t.Fatal("equivocating source produced no agreement violations")
	}
	if !strings.Contains(res.Repro, "-seed") || !strings.Contains(res.Repro, "-equivocate 2") {
		t.Fatalf("repro line incomplete: %q", res.Repro)
	}
}

func TestInvariantsCleanOnAdversarialRuns(t *testing.T) {
	// Non-equivocating adversaries must not trip the checker: the protocol
	// tolerates them, and the invariants are scoped to what it promises.
	sc := quickScenario()
	sc.Adversaries = []Adversaries{
		{Kind: AdvMute, Count: 5},
		{Kind: AdvTamper, Count: 2},
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("false positives: %v", res.Violations)
	}
}

func TestFaultPlanRejectsOutOfRangeNodes(t *testing.T) {
	cases := []struct {
		name string
		plan *faultplan.Plan
	}{
		{"crash", &faultplan.Plan{Events: []faultplan.Event{
			{At: 10 * time.Second, Kind: faultplan.Crash, Node: 50}}}},
		{"crash-amnesia", &faultplan.Plan{Events: []faultplan.Event{
			{At: 10 * time.Second, Kind: faultplan.CrashAmnesia, Node: 99}}}},
		{"recover", &faultplan.Plan{Events: []faultplan.Event{
			{At: 10 * time.Second, Kind: faultplan.Recover, Node: 50}}}},
		{"partition-member", &faultplan.Plan{Events: []faultplan.Event{
			{At: 10 * time.Second, Kind: faultplan.Partition,
				Groups: [][]wire.NodeID{{0, 1}, {2, 77}}}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := quickScenario()
			sc.FaultPlan = tc.plan
			_, err := Run(sc)
			if err == nil {
				t.Fatal("out-of-range fault plan node accepted")
			}
			if !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("error %q does not name the range problem", err)
			}
		})
	}
}

func TestAmnesiaRecoveryEndToEnd(t *testing.T) {
	// Churn wipes volatile state mid-workload; with the durable store and
	// catch-up sync on, rejoiners must actually rejoin, pull missed traffic
	// over SYNC, and do it all without tripping an invariant — including the
	// wipe-aware at-most-once check.
	sc := quickScenario()
	sc.Core.Persist = true
	sc.Core.CatchUpSync = true
	sc.FaultPlan = &faultplan.Plan{Churn: &faultplan.Churn{
		Rate:     0.2,
		Start:    15 * time.Second,
		End:      40 * time.Second,
		Downtime: 14 * time.Second,
		Wipe:     true,
		Exclude:  []wire.NodeID{0, 1, 2, 3, 4},
	}}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejoins == 0 {
		t.Fatal("churn with wipe produced no rejoins")
	}
	if res.SyncReqs == 0 || res.SyncEntriesApplied == 0 {
		t.Fatalf("catch-up sync never ran: reqs=%d applied=%d", res.SyncReqs, res.SyncEntriesApplied)
	}
	if res.SyncBytes == 0 {
		t.Fatal("sync applied entries but metered zero bytes")
	}
	if len(res.Violations) != 0 {
		t.Fatalf("invariant violations under amnesiac churn: %v", res.Violations)
	}
}
