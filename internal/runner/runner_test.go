package runner

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bbcast/internal/alloctest"
	"bbcast/internal/byzantine"
	"bbcast/internal/core"
	"bbcast/internal/fd"
	"bbcast/internal/sig"
	"bbcast/internal/wire"
)

// quickScenario is a small, fast base used by most tests.
func quickScenario() Scenario {
	sc := DefaultScenario()
	sc.N = 50
	sc.Workload.End = 45 * time.Second
	sc.Duration = 55 * time.Second
	return sc
}

func TestFailureFreeDelivery(t *testing.T) {
	for _, proto := range []Protocol{ProtoByzCast, ProtoFlooding, ProtoFPlusOne} {
		sc := quickScenario()
		sc.Protocol = proto
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		min := 0.90
		if proto == ProtoByzCast {
			min = 0.99 // gossip recovery should make it near-perfect
		}
		if res.DeliveryRatio < min {
			t.Errorf("%v delivery = %.3f, want ≥ %.2f", proto, res.DeliveryRatio, min)
		}
		if res.Injected == 0 {
			t.Errorf("%v injected no messages", proto)
		}
	}
}

func TestByzCastFewerDataTransmissionsThanFlooding(t *testing.T) {
	// The overlay's whole point (§1): fewer data transmissions than
	// flooding's one-per-node.
	base := quickScenario()
	byz, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	fl := base
	fl.Protocol = ProtoFlooding
	flood, err := Run(fl)
	if err != nil {
		t.Fatal(err)
	}
	byzData := float64(byz.TxByKind[wire.KindData]) / float64(byz.Injected)
	floodData := float64(flood.TxByKind[wire.KindData]) / float64(flood.Injected)
	if byzData >= floodData {
		t.Errorf("byzcast data tx/msg = %.1f not below flooding's %.1f", byzData, floodData)
	}
}

func TestOverlaySubstantiallySmallerThanNetwork(t *testing.T) {
	sc := quickScenario()
	sc.N = 100
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.OverlaySize == 0 || res.OverlaySize >= sc.N*3/4 {
		t.Errorf("overlay = %d of %d nodes", res.OverlaySize, sc.N)
	}
}

func TestMuteAdversariesDoNotStopDissemination(t *testing.T) {
	// The paper's headline property: even with Byzantine overlay nodes
	// black-holing traffic, gossip + recovery delivers everywhere
	// (eventual dissemination).
	sc := quickScenario()
	sc.Adversaries = []Adversaries{{Kind: AdvMute, Count: 10}}
	sc.Placement = PlaceDominators
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRatio < 0.97 {
		t.Errorf("delivery under 20%% mute dominators = %.3f", res.DeliveryRatio)
	}
	if res.AdversariesDetected == 0 {
		t.Error("no correct node detected any mute adversary")
	}
}

func TestFDsReduceLatencyUnderMuteFailures(t *testing.T) {
	// With the detectors on, mute overlay nodes are evicted and traffic
	// returns to the overlay fast path; without them every affected message
	// pays the gossip-recovery latency (§4's mute-failure experiments).
	run := func(fds bool) Result {
		sc := quickScenario()
		sc.Adversaries = []Adversaries{{Kind: AdvMute, Count: 10}}
		sc.Placement = PlaceDominators
		sc.Core.EnableFDs = fds
		sc.Workload.End = 75 * time.Second
		sc.Duration = 90 * time.Second
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with := run(true)
	without := run(false)
	if with.DeliveryRatio < 0.97 || without.DeliveryRatio < 0.97 {
		t.Fatalf("delivery dropped: with=%.3f without=%.3f", with.DeliveryRatio, without.DeliveryRatio)
	}
	if with.LatMean >= without.LatMean {
		t.Errorf("FDs did not reduce mean latency: with=%v without=%v", with.LatMean, without.LatMean)
	}
}

func TestTamperAdversaryDetected(t *testing.T) {
	sc := quickScenario()
	sc.Adversaries = []Adversaries{{Kind: AdvTamper, Count: 5}}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRatio < 0.99 {
		t.Errorf("delivery under tamperers = %.3f", res.DeliveryRatio)
	}
	if res.Node.BadSignatures == 0 {
		t.Error("no tampered frame was caught by signature verification")
	}
	if res.AdversariesDetected == 0 {
		t.Error("no tamperer was distrusted")
	}
}

func TestVerboseAdversaryIndicted(t *testing.T) {
	sc := quickScenario()
	sc.Adversaries = []Adversaries{{Kind: AdvVerbose, Count: 3}}
	res, err := RunInspect(sc, func(protos []*core.Protocol) {})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRatio < 0.98 {
		t.Errorf("delivery under verbose spam = %.3f", res.DeliveryRatio)
	}
	if res.AdversariesDetected == 0 {
		t.Error("no verbose spammer was distrusted")
	}
}

func TestSelectiveDropRecovered(t *testing.T) {
	sc := quickScenario()
	sc.Adversaries = []Adversaries{{Kind: AdvSelective, Count: 10}}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRatio < 0.98 {
		t.Errorf("delivery under selective droppers = %.3f", res.DeliveryRatio)
	}
}

func TestFPlusOneCostScalesWithF(t *testing.T) {
	// §1: the f+1 approach pays (f+1)× even when failure-free.
	var prev float64
	for f := 0; f <= 2; f++ {
		sc := quickScenario()
		sc.Protocol = ProtoFPlusOne
		sc.F = f
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		perMsg := float64(res.TotalTx) / float64(res.Injected)
		if f > 0 && perMsg <= prev {
			t.Errorf("f=%d cost %.1f not above f=%d cost %.1f", f, perMsg, f-1, prev)
		}
		prev = perMsg
	}
}

func TestMobilityMaintainsDelivery(t *testing.T) {
	sc := quickScenario()
	sc.Mobility = MobWaypoint
	sc.Speed = 5
	sc.Pause = 2 * time.Second
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRatio < 0.95 {
		t.Errorf("delivery at 5 m/s waypoint = %.3f", res.DeliveryRatio)
	}
}

func TestDeterministicRuns(t *testing.T) {
	sc := quickScenario()
	sc.N = 30
	sc.Workload.End = 30 * time.Second
	sc.Duration = 40 * time.Second
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalTx != b.TotalTx || a.DeliveryRatio != b.DeliveryRatio ||
		a.LatMean != b.LatMean || a.Collisions != b.Collisions {
		t.Errorf("same seed produced different results:\n a=%s\n b=%s", a.Results, b.Results)
	}
	sc.Seed = 2
	c, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalTx == c.TotalTx && a.LatMean == c.LatMean {
		t.Error("different seeds produced identical results (suspicious)")
	}
}

func TestEd25519SchemeEndToEnd(t *testing.T) {
	sc := quickScenario()
	sc.N = 25
	sc.UseEd25519 = true
	sc.Workload.End = 30 * time.Second
	sc.Duration = 40 * time.Second
	var scheme sig.Scheme
	res, err := run(sc, hooks{scheme: func(sc Scenario) (sig.Scheme, error) {
		var err error
		scheme, err = buildScheme(sc)
		return scheme, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRatio < 0.90 {
		t.Errorf("ed25519 delivery = %.3f", res.DeliveryRatio)
	}
	// The simulator's keyring verifies each distinct record once per run, and
	// reports still name the scheme underneath.
	if _, ok := scheme.(*sig.VerifyMemo); !ok || scheme.Name() != "ed25519" {
		t.Errorf("the run's scheme is %T named %q, want a *sig.VerifyMemo named ed25519", scheme, scheme.Name())
	}
	sc.UseEd25519 = false
	hm, err := buildScheme(sc)
	if _, ok := hm.(*sig.HMACScheme); !ok || err != nil {
		t.Errorf("the HMAC path builds %T (%v), want the bare *sig.HMACScheme", hm, err)
	}
}

func TestScenarioValidation(t *testing.T) {
	sc := DefaultScenario()
	sc.N = 0
	if _, err := Run(sc); err == nil {
		t.Error("N=0 accepted")
	}
	sc = DefaultScenario()
	sc.Duration = 0
	if _, err := Run(sc); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestProtocolStrings(t *testing.T) {
	if ProtoByzCast.String() != "byzcast" || ProtoFlooding.String() != "flooding" ||
		ProtoFPlusOne.String() != "f+1" || Protocol(99).String() != "proto(?)" {
		t.Error("Protocol.String broken")
	}
}

func TestCorrectnessUnderAllAdversaryMix(t *testing.T) {
	// Validity under a mixed attack: every accepted payload must have been
	// genuinely originated (checked implicitly by delivery accounting — a
	// tampered payload would fail signature checks and never be counted).
	sc := quickScenario()
	sc.Adversaries = []Adversaries{
		{Kind: AdvMute, Count: 4},
		{Kind: AdvTamper, Count: 3},
		{Kind: AdvVerbose, Count: 2},
	}
	sc.Workload.End = 60 * time.Second
	sc.Duration = 85 * time.Second
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRatio < 0.97 {
		t.Errorf("delivery under mixed adversaries = %.3f", res.DeliveryRatio)
	}
}

func TestEventualDisseminationSparseNetwork(t *testing.T) {
	// Sparse connectivity stresses the recovery path; the protocol should
	// still beat flooding's delivery (flooding has no recovery).
	byz := quickScenario()
	byz.N = 25
	byzRes, err := Run(byz)
	if err != nil {
		t.Fatal(err)
	}
	fl := byz
	fl.Protocol = ProtoFlooding
	flRes, err := Run(fl)
	if err != nil {
		t.Fatal(err)
	}
	if byzRes.DeliveryRatio < flRes.DeliveryRatio {
		t.Errorf("sparse: byzcast %.3f below flooding %.3f", byzRes.DeliveryRatio, flRes.DeliveryRatio)
	}
}

func TestInspectHookSeesProtocols(t *testing.T) {
	sc := quickScenario()
	sc.N = 10
	sc.Workload.End = 20 * time.Second
	sc.Duration = 25 * time.Second
	var seen int
	var trusted bool
	_, err := RunInspect(sc, func(protos []*core.Protocol) {
		seen = len(protos)
		trusted = protos[0].Trust().Level(wire.NodeID(1)) == fd.Trusted
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 10 || !trusted {
		t.Errorf("inspect hook saw %d protocols (trusted=%v)", seen, trusted)
	}
}

// TestInspectHookIsPerRun runs RunInspect beside plain Runs (what Pool does):
// the hook must fire once, on the scenario it was passed with, and a Run on
// another goroutine must never see it. The inspected run is the longest, so a
// hook published through shared state would still be up when the plain runs
// finish and would fire for them too.
func TestInspectHookIsPerRun(t *testing.T) {
	sc := quickScenario()
	sc.Workload.End = 20 * time.Second
	sc.Duration = 25 * time.Second
	inspected, plain := sc, sc
	inspected.N, plain.N = 40, 10

	var fired atomic.Int32
	var sawN atomic.Int32
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i == 0 {
				_, errs[i] = RunInspect(inspected, func(protos []*core.Protocol) {
					fired.Add(1)
					sawN.Store(int32(len(protos)))
				})
				return
			}
			_, errs[i] = Run(plain)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if fired.Load() != 1 || sawN.Load() != int32(inspected.N) {
		t.Errorf("hook fired %d times, last on %d protocols; want once on %d", fired.Load(), sawN.Load(), inspected.N)
	}
}

// TestWholeRunAllocationCeiling bounds what a simulated run allocates per
// engine event, set-up included: the default scenario for 20 s with traffic
// from 5 s to 15 s. With a clone per reception this was 18.9 allocations; it
// is 2.31 and about 289 bytes, and both are a pure function of code and seed. Each
// ceiling leaves a fifth of headroom for a new Go runtime; a per-reception or
// per-tick allocation coming back adds more than one per event and fails it.
func TestWholeRunAllocationCeiling(t *testing.T) {
	alloctest.SkipUnderRace(t)
	sc := DefaultScenario()
	sc.Duration = 20 * time.Second
	sc.Workload.Start, sc.Workload.End = 5*time.Second, 15*time.Second
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Run(sc)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / float64(res.Events)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Events)
	t.Logf("%d events, %.2f allocs/event, %.0f bytes/event", res.Events, allocs, bytes)
	const allocCeiling, byteCeiling = 2.8, 350.0
	if allocs > allocCeiling {
		t.Errorf("%.2f allocations per engine event, ceiling is %v", allocs, allocCeiling)
	}
	if bytes > byteCeiling {
		t.Errorf("%.0f bytes allocated per engine event, ceiling is %v", bytes, byteCeiling)
	}
}

// TestAdversaryKindsSpellKnownBehaviours holds the kind → name table to
// byzantine's vocabulary, and a kind outside it to an error (it used to run
// as mute).
func TestAdversaryKindsSpellKnownBehaviours(t *testing.T) {
	for k := AdvMute; int(k) < len(adversaryNames); k++ {
		if !byzantine.Known(adversaryNames[k]) {
			t.Errorf("adversary kind %d is spelled %q, which byzantine.Make does not know", k, adversaryNames[k])
		}
	}
	for _, k := range []AdversaryKind{0, AdversaryKind(len(adversaryNames))} {
		sc := quickScenario()
		sc.Adversaries = []Adversaries{{Kind: k, Count: 1}}
		if _, err := Run(sc); err == nil {
			t.Errorf("adversary kind %d accepted", k)
		}
	}
}

// TestAverageCoversEveryNodeCounter fills every counter of two results —
// core.Stats, radio.Stats and each numeric field of metrics.Results — with
// distinct values by reflection and checks the mean of each, so a field the
// reduction forgets (PR 4 found three; Phys was never averaged) fails here.
func TestAverageCoversEveryNodeCounter(t *testing.T) {
	var a, b Result
	fill := func(r *Result, scale int64) {
		for _, part := range []any{&r.Node, &r.Phys, &r.Results} {
			v := reflect.ValueOf(part).Elem()
			for i := 0; i < v.NumField(); i++ {
				switch f, x := v.Field(i), scale*int64(i+1); f.Kind() {
				case reflect.Uint64:
					f.SetUint(uint64(x))
				case reflect.Int, reflect.Int64:
					f.SetInt(x)
				case reflect.Float64:
					f.SetFloat(float64(x))
				}
			}
		}
	}
	fill(&a, 2)
	fill(&b, 4)
	avg := Average([]Result{a, b})
	for _, part := range []any{avg.Node, avg.Phys, avg.Results} {
		v := reflect.ValueOf(part)
		for i := 0; i < v.NumField(); i++ {
			name, want := v.Type().Name()+"."+v.Type().Field(i).Name, float64(3*(i+1))
			switch name {
			case "Results.N": // the replicates' common size, not a measurement
				want = float64(2 * (i + 1))
			case "Results.RejoinLatMax": // the worst over all replicates
				want = float64(4 * (i + 1))
			}
			var got float64
			switch f := v.Field(i); f.Kind() {
			case reflect.Uint64:
				got = float64(f.Uint())
			case reflect.Int, reflect.Int64:
				got = float64(f.Int())
			case reflect.Float64:
				got = f.Float()
			default:
				continue
			}
			if got != want {
				t.Errorf("Average(...).%s = %v, want %v", name, got, want)
			}
		}
	}
}
