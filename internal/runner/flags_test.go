package runner

import (
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"bbcast/internal/faultplan"
	"bbcast/internal/geo"
	"bbcast/internal/invariant"
	"bbcast/internal/loadgen"
	"bbcast/internal/overlay"
	"bbcast/internal/persist"
)

// shellWord is one word of a line ReproCommand printed: runs of plain bytes,
// single-quoted stretches and backslash escapes.
var shellWord = regexp.MustCompile(`(?:'[^']*'|\\.|[^\s'\\])+`)

// parseRepro reads a printed line back the way a shell and then bbsim would:
// words up to the comment, single quotes undone, flags parsed.
func parseRepro(line string) (Scenario, error) {
	line, _, _ = strings.Cut(line, "  # ")
	words := shellWord.FindAllString(line, -1)
	for i, w := range words {
		w = strings.ReplaceAll(w, `'\''`, "\x00")
		words[i] = strings.ReplaceAll(strings.ReplaceAll(w, "'", ""), "\x00", "'")
	}
	if len(words) == 0 || words[0] != "bbsim" {
		return Scenario{}, fmt.Errorf("not a bbsim line: %q", line)
	}
	return parseArgs(words[1:])
}

// spells is the property's core: line carries no comment and parses to sc.
func spells(line string, sc Scenario) error {
	if strings.Contains(line, "#") {
		return fmt.Errorf("the line admits it is not exact: %s", line)
	}
	back, err := parseRepro(line)
	if err != nil {
		return fmt.Errorf("%s: %v", line, err)
	}
	back.Name = sc.Name
	if !reflect.DeepEqual(back, sc) {
		return fmt.Errorf("%s parses to a different scenario:\n got %+v\nwant %+v", line, back, sc)
	}
	return nil
}

// roundTrips is the property: the repro line of sc spells sc.
func roundTrips(sc Scenario) error { return spells(ReproCommand(sc), sc) }

func scenarioWith(mod func(*Scenario)) Scenario {
	sc := DefaultScenario()
	mod(&sc)
	return sc
}

func crashPlan() *faultplan.Plan {
	return &faultplan.Plan{Events: []faultplan.Event{{At: 10 * time.Second, Kind: faultplan.Crash, Node: 1}}}
}

// offDefault moves each flag's part of the scenario off its default, keyed by
// flag name. TestReproRoundTrip fails when a binding has no entry here.
var offDefault = map[string]func(*Scenario){
	"seed":     func(sc *Scenario) { sc.Seed = -7995527694508729151 },
	"n":        func(sc *Scenario) { sc.N = 80 },
	"proto":    func(sc *Scenario) { sc.Protocol = ProtoFlooding },
	"f":        func(sc *Scenario) { sc.F = 1 },
	"area":     func(sc *Scenario) { sc.Area = geo.Rect{W: 800, H: 800} },
	"range":    func(sc *Scenario) { sc.Radio.Range = 200 },
	"rate":     func(sc *Scenario) { sc.Workload.Rate = 2.5 },
	"senders":  func(sc *Scenario) { sc.Workload.Senders = 3 },
	"size":     func(sc *Scenario) { sc.Workload.PayloadSize = 64 },
	"duration": func(sc *Scenario) { sc.Duration, sc.Workload.End = 100*time.Second, 90*time.Second },
	"warmup":   func(sc *Scenario) { sc.Workload.Start = 5 * time.Second },
	"drain":    func(sc *Scenario) { sc.Workload.End = 70 * time.Second },
	"load": func(sc *Scenario) {
		*sc = loadGenScenario(rampCfg(loadgen.Poisson))
	},
	"mute":       func(sc *Scenario) { sc.Adversaries = []Adversaries{{Kind: AdvMute, Count: 2}} },
	"tamper":     func(sc *Scenario) { sc.Adversaries = []Adversaries{{Kind: AdvTamper, Count: 2}} },
	"verbose":    func(sc *Scenario) { sc.Adversaries = []Adversaries{{Kind: AdvVerbose, Count: 2}} },
	"selective":  func(sc *Scenario) { sc.Adversaries = []Adversaries{{Kind: AdvSelective, Count: 2}} },
	"equivocate": func(sc *Scenario) { sc.Adversaries = []Adversaries{{Kind: AdvEquivocate, Count: 2}} },
	"flooder":    func(sc *Scenario) { sc.Adversaries = []Adversaries{{Kind: AdvFlooder, Count: 2}} },
	"replayer":   func(sc *Scenario) { sc.Adversaries = []Adversaries{{Kind: AdvReplayer, Count: 2}} },
	"forge":      func(sc *Scenario) { sc.Adversaries = []Adversaries{{Kind: AdvForgeSpammer, Count: 2}} },
	"placement":  func(sc *Scenario) { sc.Placement = PlaceDominators },
	"mobility":   func(sc *Scenario) { sc.Mobility = MobFerry; sc.Speed = 5 },
	"speed":      func(sc *Scenario) { sc.Mobility = MobGaussMarkov; sc.Speed = 3 },
	"pause":      func(sc *Scenario) { sc.Mobility = MobWaypoint; sc.Speed = 5; sc.Pause = 7 * time.Second },
	"overlay":    func(sc *Scenario) { sc.Core.Overlay = overlay.CDS },
	"no-fd":      func(sc *Scenario) { sc.Core.EnableFDs = false },
	"no-adapt":   func(sc *Scenario) { sc.Core.AdaptiveTiming = false; sc.Core.RetryMaxAttempts = 0 },
	"ed25519":    func(sc *Scenario) { sc.UseEd25519 = true },
	"persist":    func(sc *Scenario) { sc.Core.Persist = true },
	"sync":       func(sc *Scenario) { sc.Core.Persist = true; sc.Core.CatchUpSync = true },
	"persist-tear": func(sc *Scenario) {
		sc.Core.Persist = true
		sc.PersistCorrupt = &persist.Corruption{TearTail: true}
	},
	"persist-flip": func(sc *Scenario) {
		sc.Core.Persist = true
		sc.PersistCorrupt = &persist.Corruption{FlipBits: 5}
	},
	"no-invariants": func(sc *Scenario) { sc.Invariants = invariant.Config{} },
	"faults":        func(sc *Scenario) { sc.FaultPlan = crashPlan() },
}

// TestReproRoundTrip: for every binding, a scenario that moves it off its
// default prints the flag and parses back to itself; so do the inputs of the
// three substring tests this replaces and the cases the old renderer got wrong.
func TestReproRoundTrip(t *testing.T) {
	flags := bindings(newFlagState())
	for _, b := range flags {
		mod, ok := offDefault[b.name]
		if !ok {
			t.Errorf("-%s has no case in offDefault", b.name)
			continue
		}
		t.Run(b.name, func(t *testing.T) {
			sc := scenarioWith(mod)
			if line := ReproCommand(sc); !strings.Contains(line+" ", " -"+b.name+" ") {
				t.Errorf("-%s is not on the line: %s", b.name, line)
			}
			if err := roundTrips(sc); err != nil {
				t.Error(err)
			}
		})
	}
	if len(offDefault) != len(flags) {
		t.Errorf("offDefault has %d cases for %d bindings", len(offDefault), len(flags))
	}

	closed := rampCfg(loadgen.ClosedLoop)
	closed.Window, closed.Quorum, closed.Timeout = 2, 0.9, 5*time.Second
	closed.Steps = []loadgen.Step{{Duration: 10 * time.Second}}
	for name, sc := range map[string]Scenario{
		"default": DefaultScenario(),
		"quick":   quickScenario(),
		// The inputs of TestReproCommandRendersScenario, …RendersPersistFlags
		// and TestLoadGenReproCommandRoundTrips.
		"mute-and-faults": scenarioWith(func(sc *Scenario) {
			sc.Seed, sc.N = 42, 80
			sc.Adversaries = []Adversaries{{Kind: AdvMute, Count: 3}}
			sc.FaultPlan = crashPlan()
		}),
		"persist-flags": scenarioWith(func(sc *Scenario) {
			sc.Core.Persist, sc.Core.CatchUpSync = true, true
			sc.PersistCorrupt = &persist.Corruption{TearTail: true, FlipBits: 5}
		}),
		"loadgen":             loadGenScenario(rampCfg(loadgen.Poisson)),
		"loadgen-closed-loop": loadGenScenario(closed),
		"loadgen-short-drain": scenarioWith(func(sc *Scenario) {
			*sc = loadGenScenario(rampCfg(loadgen.Periodic))
			sc.Duration = sc.LoadGen.End() + 3*time.Second
		}),
		// What the old renderer dropped or reordered.
		"motivation": scenarioWith(func(sc *Scenario) {
			sc.Core.Overlay, sc.UseEd25519 = overlay.CDS, true
			sc.Protocol, sc.F = ProtoFPlusOne, 1
			sc.Mobility, sc.Speed, sc.Pause = MobWaypoint, 3, 7*time.Second
		}),
		"adversaries-out-of-flag-order": scenarioWith(func(sc *Scenario) {
			sc.Adversaries = []Adversaries{{Kind: AdvEquivocate, Count: 1}, {Kind: AdvMute, Count: 2}, {Kind: AdvTamper, Count: 1}, {Kind: AdvMute, Count: 1}}
		}),
		"churn-plan": scenarioWith(func(sc *Scenario) {
			sc.Core.Persist, sc.Core.CatchUpSync = true, true
			sc.FaultPlan = &faultplan.Plan{Churn: &faultplan.Churn{
				Rate: 0.2, Start: 15 * time.Second, End: 40 * time.Second, Downtime: 14 * time.Second, Wipe: true,
			}}
		}),
	} {
		t.Run(name, func(t *testing.T) {
			if err := roundTrips(sc); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestReproRendersAsBefore: scenarios the renderer before the table spelt
// faithfully print byte for byte what it printed (captured from it).
func TestReproRendersAsBefore(t *testing.T) {
	for want, mod := range map[string]func(*Scenario){
		"bbsim -seed 1 -n 60 -duration 1m25s -equivocate 1": func(sc *Scenario) {
			sc.N = 60
			sc.Adversaries = []Adversaries{{Kind: AdvEquivocate, Count: 1}}
		},
		`bbsim -seed 42 -n 80 -duration 1m25s -mute 3 -faults '{"events":[{"at":"10s","kind":"crash","node":1}]}'`: func(sc *Scenario) {
			sc.Seed, sc.N = 42, 80
			sc.Adversaries = []Adversaries{{Kind: AdvMute, Count: 3}}
			sc.FaultPlan = crashPlan()
		},
		"bbsim -seed 1 -n 75 -duration 1m25s -persist -sync -persist-tear -persist-flip 5": func(sc *Scenario) {
			sc.Core.Persist, sc.Core.CatchUpSync = true, true
			sc.PersistCorrupt = &persist.Corruption{TearTail: true, FlipBits: 5}
		},
		"bbsim -seed 1 -n 75 -duration 1m25s -mobility waypoint -speed 5": func(sc *Scenario) {
			sc.Mobility, sc.Speed, sc.Pause = MobWaypoint, 5, 2*time.Second
		},
		"bbsim -seed 1 -n 75 -duration 1m25s -mobility walk -speed 3":    func(sc *Scenario) { sc.Mobility, sc.Speed = MobWalk, 3 },
		"bbsim -seed 1 -n 75 -duration 1m25s -mobility uniform -speed 0": func(sc *Scenario) { sc.Mobility = MobUniform },
		"bbsim -seed 1 -n 75 -proto flooding -area 800 -range 200 -rate 2.5 -senders 3 -size 64 -duration 55s -warmup 5s -drain 5s": func(sc *Scenario) {
			sc.Protocol = ProtoFlooding
			sc.Area = geo.Rect{W: 800, H: 800}
			sc.Radio.Range = 200
			sc.Workload = Workload{Senders: 3, Rate: 2.5, PayloadSize: 64, Start: 5 * time.Second, End: 50 * time.Second}
			sc.Duration = 55 * time.Second
		},
		"bbsim -seed 1 -n 100 -duration 1m25s -mute 10 -tamper 1 -forge 2 -placement dominators -no-fd -no-adapt": func(sc *Scenario) {
			sc.N = 100
			sc.Adversaries = []Adversaries{{Kind: AdvMute, Count: 10}, {Kind: AdvTamper, Count: 1}, {Kind: AdvForgeSpammer, Count: 2}}
			sc.Placement = PlaceDominators
			sc.Core.EnableFDs, sc.Core.AdaptiveTiming, sc.Core.RetryMaxAttempts = false, false, 0
		},
	} {
		sc := scenarioWith(mod)
		if got := ReproCommand(sc); got != want {
			t.Errorf("repro line moved:\n got %s\nwant %s", got, want)
		}
		if err := roundTrips(sc); err != nil {
			t.Error(err)
		}
	}
}

// TestReproSaysWhatItCannotSpell: a field no flag reaches is named in a
// trailing shell comment, and the line still parses.
func TestReproSaysWhatItCannotSpell(t *testing.T) {
	for want, mod := range map[string]func(*Scenario){
		// ISSUE 23's example; it used to print as
		// "bbsim -seed 1 -n 75 -proto f+1 -duration 1m25s -mute 2 -mobility waypoint -speed 3".
		"bbsim -seed 1 -n 75 -proto f+1 -f 1 -duration 1m25s -mute 2 -mobility waypoint -speed 3 -pause 7s -overlay cds -ed25519  # not expressible as flags: Adversaries": func(sc *Scenario) {
			sc.Core.Overlay, sc.UseEd25519 = overlay.CDS, true
			sc.Protocol, sc.F = ProtoFPlusOne, 1
			sc.Mobility, sc.Speed, sc.Pause = MobWaypoint, 3, 7*time.Second
			sc.Adversaries = []Adversaries{{Kind: AdvMuteSilent, Count: 2}}
		},
		"bbsim -seed 1 -n 75 -duration 1m25s  # not expressible as flags: Core.GossipAggregation, Radio.CaptureRatio": func(sc *Scenario) {
			sc.Core.GossipAggregation = false
			sc.Radio.CaptureRatio = 4
		},
		"bbsim -seed 1 -n 75 -duration 1m25s -no-adapt  # not expressible as flags: Core.RetryMaxAttempts": func(sc *Scenario) {
			sc.Core.AdaptiveTiming = false // -no-adapt also zeroes the retry chain
		},
		"bbsim -seed 1 -n 75 -duration 1m25s -persist-tear  # does not parse back: -persist-tear/-persist-flip need -persist or -sync (there is no durable log to damage otherwise)": func(sc *Scenario) {
			sc.PersistCorrupt = &persist.Corruption{TearTail: true}
		},
		"bbsim -seed 1 -n 75 -duration 1m25s  # not expressible as flags: Invariants.Validity, LatencyBucket, Workload.Poisson": func(sc *Scenario) {
			sc.Invariants.Validity = false
			sc.LatencyBucket = 5 * time.Second
			sc.Workload.Poisson = true
		},
	} {
		sc := scenarioWith(mod)
		got := ReproCommand(sc)
		if got != want {
			t.Errorf("repro line:\n got %s\nwant %s", got, want)
		}
		if roundTrips(sc) == nil {
			t.Errorf("the property passes a line that is not exact: %s", got)
		}
	}
}

// TestRoundTripCatchesMutations seeds, on the printed line, the three ways the
// two halves drifted apart when they were kept by hand — a flag that parses
// but does not print, adversary flags printed in flag order instead of
// scenario order, an enum spelt differently by the printer — and requires the
// property to fail each.
func TestRoundTripCatchesMutations(t *testing.T) {
	for name, tc := range map[string]struct {
		sc       Scenario
		from, to string
	}{
		"a binding that does not render":        {scenarioWith(offDefault["overlay"]), " -overlay cds", ""},
		"an enum spelt differently on one side": {scenarioWith(offDefault["speed"]), "gauss-markov", "gaussmarkov"},
		"adversary flags in another order": {scenarioWith(func(sc *Scenario) {
			sc.Adversaries = []Adversaries{{Kind: AdvEquivocate, Count: 1}, {Kind: AdvMute, Count: 2}}
		}), "-equivocate 1 -mute 2", "-mute 2 -equivocate 1"},
	} {
		t.Run(name, func(t *testing.T) {
			line := ReproCommand(tc.sc)
			if err := spells(line, tc.sc); err != nil {
				t.Fatal(err)
			}
			mutant := strings.Replace(line, tc.from, tc.to, 1)
			if mutant == line {
				t.Fatalf("%q is not on the line: %s", tc.from, line)
			}
			if spells(mutant, tc.sc) == nil {
				t.Errorf("the property passes the mutant %s", mutant)
			}
		})
	}
}

// TestScenarioDiffNamesFieldPaths: nested structs by path, pointers followed,
// slices and nil-versus-set pointers as one path, the label and sinks skipped.
func TestScenarioDiffNamesFieldPaths(t *testing.T) {
	a := scenarioWith(func(sc *Scenario) { sc.FaultPlan = crashPlan(); sc.LoadGen = &loadgen.Config{Senders: 1} })
	b := scenarioWith(func(sc *Scenario) {
		sc.Name, sc.SnapshotSVG = "other", "x.svg"
		sc.Core.Mute.Timeout++
		sc.Adversaries = []Adversaries{{Kind: AdvMute, Count: 1}}
		sc.FaultPlan = &faultplan.Plan{}
	})
	want := []string{"Adversaries", "Core.Mute.Timeout", "FaultPlan.Events", "LoadGen"}
	if got := scenarioDiff(a, b); !reflect.DeepEqual(got, want) {
		t.Errorf("scenarioDiff = %v, want %v", got, want)
	}
	if got := scenarioDiff(a, a); got != nil {
		t.Errorf("scenarioDiff(a, a) = %v", got)
	}
}

func TestParseReproUndoesQuoting(t *testing.T) {
	plan := `{"events":[{"at":"10s","kind":"swap-behavior","node":1,"behavior":"it's"}]}`
	line := "bbsim -n 5 -seed -3 -faults '" + strings.ReplaceAll(plan, "'", `'\''`) + "'  # -n 9"
	sc, err := parseRepro(line)
	if err != nil {
		t.Fatal(err)
	}
	if sc.N != 5 || sc.Seed != -3 || sc.FaultPlan.String() != plan {
		t.Errorf("parseRepro(%s) = n %d, seed %d, plan %s", line, sc.N, sc.Seed, sc.FaultPlan)
	}
	if _, err := parseRepro("  # only a comment"); err == nil {
		t.Error("a line with no command parsed")
	}
}
