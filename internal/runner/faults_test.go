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
// last-writer-wins bug: two overlapping degrade-radio events used to share
// one scalar, so the second event clobbered the first and the first expiry
// cleared both. Through the fault-plan path, overlapping windows must
// compose (survival probabilities multiply) and each expiry must remove
// exactly its own contribution.
func TestOverlappingDegradeRadioWindowsCompose(t *testing.T) {
	sc := DefaultScenario()
	sc.N = 4
	eng := sim.New(1)
	medium := radio.New(eng, buildMobility(sc), sc.N, sc.Radio)
	defer medium.Close()
	events := []faultplan.Event{
		{At: 10 * time.Second, Kind: faultplan.DegradeRadio, LossFactor: 0.5, Duration: 20 * time.Second}, // 10s–30s
		{At: 15 * time.Second, Kind: faultplan.DegradeRadio, LossFactor: 0.5, Duration: 5 * time.Second},  // 15s–20s
	}
	if err := scheduleFaultPlan(sc, eng, medium, nil, nil, nil, nil, nil, events); err != nil {
		t.Fatal(err)
	}
	probe := func(at time.Duration, lo, hi float64) {
		eng.At(at, func() {
			if got := medium.ExtraLoss(); got < lo || got > hi {
				t.Errorf("at %s: ExtraLoss = %v, want in [%v, %v]", at, got, lo, hi)
			}
		})
	}
	probe(12*time.Second, 0.5, 0.5)   // first window alone
	probe(17*time.Second, 0.74, 0.76) // overlap: 1-(1-0.5)² = 0.75
	probe(25*time.Second, 0.5, 0.5)   // second expired, first must survive
	probe(35*time.Second, 0, 0)       // both expired
	eng.Run(40 * time.Second)
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
