package runner

import (
	"strings"
	"testing"
	"time"

	"bbcast/internal/geo"
	"bbcast/internal/invariant"
	"bbcast/internal/loadgen"
	"bbcast/internal/sim"
)

// loadGenScenario is a small, fast base for load-generator tests: 20 nodes,
// a 10s injection window after a 10s warm-up, invariants off (saturation
// tests violate liveness checks on purpose).
func loadGenScenario(cfg loadgen.Config) Scenario {
	sc := DefaultScenario()
	sc.Name = "loadgen-test"
	sc.N = 20
	sc.Area = geo.Rect{W: 500, H: 500} // dense enough that 20 nodes stay connected
	sc.Workload = Workload{}
	sc.LoadGen = &cfg
	sc.Invariants = invariant.Config{}
	sc.Duration = cfg.End() + 10*time.Second
	return sc
}

// rampCfg is an open-loop schedule with a flat step and a ramp, so the
// injected-count property covers both shapes.
func rampCfg(arrival loadgen.Arrival) loadgen.Config {
	return loadgen.Config{
		Senders:      8,
		PayloadSizes: []int{128},
		Arrival:      arrival,
		Start:        10 * time.Second,
		Steps: []loadgen.Step{
			{Rate: 3, Duration: 5 * time.Second},
			{Rate: 3, EndRate: 9, Duration: 5 * time.Second},
		},
	}
}

// TestLoadGenInjectedMatchesSchedule: the run's injected count equals the
// materialized arrival schedule exactly, per seed — the runner must schedule
// every arrival and lose none. The schedule is recomputed here from the same
// (seed, substream) derivation the runner uses, which pins both the count
// and the substream id as part of the determinism contract.
func TestLoadGenInjectedMatchesSchedule(t *testing.T) {
	for _, arrival := range []loadgen.Arrival{loadgen.Periodic, loadgen.Poisson} {
		for _, seed := range []int64{1, 7, 42} {
			cfg := rampCfg(arrival)
			sc := loadGenScenario(cfg)
			sc.Seed = seed
			res, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			want := len(cfg.Times(sim.New(seed).SubRand(0x10adc3)))
			if res.Injected != want {
				t.Errorf("%s seed %d: injected %d, want the %d scheduled arrivals",
					arrival, seed, res.Injected, want)
			}
			// The schedule realizes the offered-load curve: integral 30+30=60.
			if lo, hi := 30, 90; res.Injected < lo || res.Injected > hi {
				t.Errorf("%s seed %d: injected %d, implausible for expected %.0f",
					arrival, seed, res.Injected, cfg.ExpectedCount())
			}
		}
	}
}

// TestLoadGenPeriodicSeedInvariant: periodic schedules do not consume
// randomness — every seed injects the identical count.
func TestLoadGenPeriodicSeedInvariant(t *testing.T) {
	var first int
	for i, seed := range []int64{3, 11, 99} {
		sc := loadGenScenario(rampCfg(loadgen.Periodic))
		sc.Seed = seed
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Injected
		} else if res.Injected != first {
			t.Errorf("seed %d: periodic injected %d, seed 3 injected %d", seed, res.Injected, first)
		}
	}
}

// TestLoadGenPayloadSweep: payload sizes cycle per injection, so doubling
// every size must grow bytes on air without changing the injection count.
func TestLoadGenPayloadSweep(t *testing.T) {
	small := rampCfg(loadgen.Periodic)
	small.PayloadSizes = []int{64, 128}
	big := rampCfg(loadgen.Periodic)
	big.PayloadSizes = []int{512, 1024}

	resSmall, err := Run(loadGenScenario(small))
	if err != nil {
		t.Fatal(err)
	}
	resBig, err := Run(loadGenScenario(big))
	if err != nil {
		t.Fatal(err)
	}
	if resSmall.Injected != resBig.Injected {
		t.Errorf("payload size changed the arrival count: %d vs %d", resSmall.Injected, resBig.Injected)
	}
	if resBig.BytesOnAir <= resSmall.BytesOnAir {
		t.Errorf("bytes on air %d (big payloads) <= %d (small payloads)", resBig.BytesOnAir, resSmall.BytesOnAir)
	}
	if resSmall.DeliveryRatio < 0.95 {
		t.Errorf("unloaded sweep delivery %.3f, want >= 0.95", resSmall.DeliveryRatio)
	}
}

// TestLoadGenClosedLoop: the self-clocked arrival model injects within the
// schedule window, keeps at most Senders×Window messages outstanding per
// completion round, and sustains near-full delivery (it never outruns the
// network by construction).
func TestLoadGenClosedLoop(t *testing.T) {
	cfg := loadgen.Config{
		Senders:      5,
		PayloadSizes: []int{128},
		Arrival:      loadgen.ClosedLoop,
		Start:        10 * time.Second,
		Steps:        []loadgen.Step{{Duration: 15 * time.Second}},
		Window:       2,
		Quorum:       0.9,
		Timeout:      3 * time.Second,
	}
	res, err := Run(loadGenScenario(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected < 10 {
		t.Errorf("closed loop injected %d, want at least the initial window of 10", res.Injected)
	}
	// Each of the 10 outstanding slots needs at least one network round trip
	// (tens of ms) per completion; thousands per second would mean the loop
	// is relaunching without waiting for quorum.
	if max := 10 * 15 * 100; res.Injected > max {
		t.Errorf("closed loop injected %d, impossibly many for the window", res.Injected)
	}
	if res.DeliveryRatio < 0.9 {
		t.Errorf("closed-loop delivery %.3f, want >= 0.9 (self-clocking must not saturate)", res.DeliveryRatio)
	}
}

// TestLoadGenInvalidConfigFailsRun: Run surfaces the validation error,
// naming the offending field, before simulating anything.
func TestLoadGenInvalidConfigFailsRun(t *testing.T) {
	cfg := rampCfg(loadgen.Poisson)
	cfg.Steps[0].Rate = -1
	_, err := Run(loadGenScenario(cfg))
	if err == nil {
		t.Fatal("Run accepted an invalid loadgen config")
	}
	if !strings.Contains(err.Error(), "steps[0].rate") {
		t.Errorf("error %q does not name the offending field", err)
	}
}
