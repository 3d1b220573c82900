package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"bbcast"
)

func TestRunDefaultsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	err := run([]string{"-n", "20", "-duration", "30s", "-breakdown",
		"-svg", t.TempDir() + "/t.svg", "-trace", t.TempDir() + "/t.jsonl"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-proto", "bogus"},
		{"-overlay", "bogus"},
		{"-placement", "bogus"},
		{"-mobility", "bogus"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunAdversaries(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	err := run([]string{"-n", "20", "-duration", "30s",
		"-mute", "2", "-tamper", "1", "-verbose", "1", "-selective", "1",
		"-placement", "dominators", "-proto", "byzcast", "-overlay", "cds"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunInlineFaultPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	plan := `{"events":[{"at":"10s","kind":"crash","node":3},{"at":"18s","kind":"recover","node":3}]}`
	if err := run([]string{"-n", "20", "-duration", "30s", "-faults", plan}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFaultPlanFromFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	path := t.TempDir() + "/plan.json"
	plan := `{"churn":{"rate":0.3,"start":"5s","end":"20s"}}`
	if err := os.WriteFile(path, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-n", "20", "-duration", "30s", "-faults", path}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFaultPlanRejected(t *testing.T) {
	cases := [][]string{
		{"-faults", `{"events":[{"kind":"crash","node":1}]}`}, // missing at
		{"-faults", `{"events":[{"at":"5s","kind":"melt"}]}`}, // unknown kind
		{"-faults", "/definitely/not/there.json"},
		{"-n", "5", "-faults", `{"events":[{"at":"5s","kind":"crash","node":99}]}`}, // out of range
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunEquivocationExitsWithViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	// Two equivocators reinforcing each other's variants: a lone one only
	// splits the network transiently, so whether a violation fires is seed
	// luck (see the runner's TestEquivocationFiresAgreement).
	err := run([]string{"-n", "50", "-duration", "55s", "-equivocate", "2"})
	if err == nil {
		t.Fatal("equivocation run reported success")
	}
	if !strings.Contains(err.Error(), "invariant") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The same run with checks disabled succeeds.
	if err := run([]string{"-n", "50", "-duration", "55s", "-equivocate", "2", "-no-invariants"}); err != nil {
		t.Fatal(err)
	}
}

// dumpScenario prints a scenario with its three pointers followed, so two
// dumps are equal exactly when the scenarios are.
func dumpScenario(sc bbcast.Scenario) string {
	plan, load, corrupt := "-", "-", "-"
	if sc.FaultPlan != nil {
		plan = sc.FaultPlan.String()
	}
	if sc.LoadGen != nil {
		data, _ := json.Marshal(sc.LoadGen)
		load = string(data)
	}
	if sc.PersistCorrupt != nil {
		corrupt = fmt.Sprintf("%+v", *sc.PersistCorrupt)
	}
	sc.FaultPlan, sc.LoadGen, sc.PersistCorrupt = nil, nil, nil
	return fmt.Sprintf("%+v faults=%s load=%s corrupt=%s", sc, plan, load, corrupt)
}

// TestArgvParsesToTheScenarioItAlwaysDid holds flag parsing to a table
// captured from the bbsim of the commit before flags became a table: every
// bbsim line in README, ci.yml, this file and the package comment, plus a few
// that reach the remaining flags, each with the %+v of the Scenario it built.
// (The capture predates the removal of Core.ForwardJitter and
// Verbose.MinSpacing, both zero in every line; they were cut from the text.)
func TestArgvParsesToTheScenarioItAlwaysDid(t *testing.T) {
	data, err := os.ReadFile("testdata/argv_scenarios.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 15 {
		t.Fatalf("table has %d lines", len(lines))
	}
	for _, line := range lines {
		var row struct {
			Argv     []string `json:"argv"`
			Scenario string   `json:"scenario"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatal(err)
		}
		sc, _, err := parse(row.Argv)
		if err != nil {
			t.Errorf("%q: %v", row.Argv, err)
			continue
		}
		if got := dumpScenario(sc); got != row.Scenario {
			t.Errorf("%q parses to a different scenario:\n got %s\nwant %s", row.Argv, got, row.Scenario)
		}
	}
}

// TestHelpListsTheSameFlagsAndDefaults pins what `bbsim -h` lists: the 41 flags
// of the commit before flags became a table, each with the default it showed
// there (-h shows none for a zero default).
func TestHelpListsTheSameFlagsAndDefaults(t *testing.T) {
	defValue := map[string]string{ // flag.Flag.DefValue, dumped from that commit's bbsim
		"area": "1000", "breakdown": "false", "drain": "10s", "duration": "1m25s", "ed25519": "false",
		"equivocate": "0", "f": "2", "faults": "", "flooder": "0", "forge": "0", "load": "",
		"metrics-out": "", "mobility": "grid", "mute": "0", "n": "75", "no-adapt": "false",
		"no-fd": "false", "no-invariants": "false", "overlay": "mis+b", "parallel": "0", "pause": "2s",
		"persist": "false", "persist-flip": "0", "persist-tear": "false", "placement": "spread",
		"proto": "byzcast", "range": "250", "rate": "1", "replayer": "0", "replicates": "1", "seed": "1",
		"selective": "0", "senders": "5", "size": "256", "speed": "5", "svg": "", "sync": "false",
		"tamper": "0", "trace": "", "verbose": "0", "warmup": "15s",
	}
	want := make(map[string]string)
	for name, v := range defValue {
		if v == "0" || v == "false" {
			v = ""
		}
		want[name] = v
	}
	var buf bytes.Buffer
	stderr = &buf
	defer func() { stderr = os.Stderr }()
	if _, _, err := parse([]string{"-h"}); err != flag.ErrHelp {
		t.Fatalf("-h: %v", err)
	}
	got := make(map[string]string)
	entry := regexp.MustCompile(`(?m)^  -(\S+)[^\n]*\n    \t[^\n]*?(?: \(default "?([^"\n]*?)"?\))?$`)
	for _, m := range entry.FindAllStringSubmatch(buf.String(), -1) {
		got[m[1]] = m[2]
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("-h moved:\n got %v\nwant %v\n%s", got, want, buf.String())
	}
}

// TestReproLineReproduces runs a scenario the old repro line misspelt (it
// dropped -overlay and -ed25519), then runs the line bbsim printed under
// "reproduce with:" and requires the same violations. Two equivocators, not
// one: a lone one under CDS escapes the checker at seeds 1 to 5.
func TestReproLineReproduces(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two simulations")
	}
	violations := func(args []string) (report, repro string) {
		t.Helper()
		var buf bytes.Buffer
		stderr = &buf
		defer func() { stderr = os.Stderr }()
		if err := run(args); err == nil {
			t.Fatalf("%q reported no violation", args)
		}
		report, repro, ok := strings.Cut(buf.String(), "reproduce with:\n")
		if !ok {
			t.Fatalf("%q printed no repro line:\n%s", args, buf.String())
		}
		return report, strings.TrimSpace(repro)
	}
	first, repro := violations([]string{"-n", "60", "-equivocate", "2", "-overlay", "cds", "-ed25519"})
	if want := "bbsim -seed 1 -n 60 -duration 1m25s -equivocate 2 -overlay cds -ed25519"; repro != want {
		t.Fatalf("repro line:\n got %s\nwant %s", repro, want)
	}
	again, _ := violations(strings.Fields(repro)[1:])
	if again != first {
		t.Errorf("the repro line found different violations:\nfirst %s\nagain %s", first, again)
	}
}
