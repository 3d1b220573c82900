package runner

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"bbcast/internal/faultplan"
	"bbcast/internal/invariant"
	"bbcast/internal/loadgen"
	"bbcast/internal/overlay"
	"bbcast/internal/persist"
)

// This file is the one place a Scenario meets the bbsim command line. bindings
// lists every flag that spells part of a Scenario; ScenarioFlags registers the
// list on a FlagSet and ReproCommand walks the same list, so a flag that parses
// is a flag that renders. The rules that tie flags together are finish, and
// stateOf is their inverse.

// flagState is what the flags write into: the scenario under construction plus
// the flag values that no Scenario field holds on its own.
type flagState struct {
	sc                   Scenario
	drain                time.Duration      // Workload.End is Duration minus this
	speed                float64            // these two reach the scenario only under
	pause                time.Duration      // the mobility models that read them
	corrupt              persist.Corruption // -persist-tear, -persist-flip
	faults, load         string             // JSON, or the path of a file of it
	noFD, noAdapt, noInv bool
}

// newFlagState is the command line with no flags on it.
func newFlagState() *flagState {
	sc := DefaultScenario()
	return &flagState{sc: sc, drain: sc.Duration - sc.Workload.End, speed: 5, pause: 2 * time.Second}
}

// finish applies the rules that span flags and returns the scenario.
func (st *flagState) finish() (Scenario, error) {
	sc := st.sc
	sc.Area.H = sc.Area.W
	sc.Workload.End = sc.Duration - st.drain
	sc.Core.EnableFDs = !st.noFD
	if st.noAdapt {
		sc.Core.AdaptiveTiming, sc.Core.RetryMaxAttempts = false, 0
	}
	sc.Core.Persist = sc.Core.Persist || sc.Core.CatchUpSync // -sync implies -persist
	if st.corrupt.FlipBits < 0 {
		return sc, fmt.Errorf("-persist-flip must be >= 0, got %d", st.corrupt.FlipBits)
	}
	if st.corrupt != (persist.Corruption{}) {
		if !sc.Core.Persist {
			return sc, fmt.Errorf("-persist-tear/-persist-flip need -persist or -sync (there is no durable log to damage otherwise)")
		}
		corrupt := st.corrupt
		sc.PersistCorrupt = &corrupt
	}
	if st.noInv {
		sc.Invariants = invariant.Config{}
	}
	var err error
	if sc.FaultPlan, err = inlineOrFile(st.faults, faultplan.Parse, faultplan.Load); err != nil {
		return sc, err
	}
	if sc.LoadGen, err = inlineOrFile(st.load, loadgen.Parse, loadgen.Load); err != nil {
		return sc, err
	}
	if lg := sc.LoadGen; lg != nil {
		// -load replaces the fixed-rate workload and keeps -drain after its end.
		sc.Workload = Workload{}
		sc.Duration = max(sc.Duration, lg.End()+st.drain)
	}
	if sc.Mobility != MobGrid && sc.Mobility != MobUniform {
		sc.Speed = st.speed
	}
	if sc.Mobility == MobWaypoint {
		sc.Pause = st.pause
	}
	return sc, nil
}

// stateOf is finish's inverse: the flag values that spell sc.
func stateOf(sc Scenario) *flagState {
	st := newFlagState()
	workload, drain := st.sc.Workload, st.drain // with no flags given
	st.sc = sc
	st.drain = sc.Duration - sc.Workload.End
	if lg := sc.LoadGen; lg != nil {
		// The workload flags are discarded under -load; leave them off the line.
		st.sc.Workload = workload
		st.drain = min(drain, sc.Duration-lg.End())
	}
	if sc.Mobility != MobGrid {
		st.speed = sc.Speed
	}
	if sc.Mobility == MobWaypoint {
		st.pause = sc.Pause
	}
	if sc.PersistCorrupt != nil {
		st.corrupt = *sc.PersistCorrupt
	}
	st.faults, st.load = inlineJSON(sc.FaultPlan), inlineJSON(sc.LoadGen)
	st.noFD, st.noAdapt = !sc.Core.EnableFDs, !sc.Core.AdaptiveTiming
	st.noInv = sc.Invariants == invariant.Config{}
	return st
}

// binding ties one flag to the state it sets: at is a *int, *int64, *float64,
// *time.Duration, *bool or *string into a flagState, which registers as the standard
// library's flag of that type, or a flag.Value (its usage back-quotes the word
// -h shows for the value). pin, when it holds for a scenario, prints the flag
// even at its default.
type binding struct {
	name, usage string
	at          any
	pin         func(Scenario) bool
}

func always(Scenario) bool { return true }

// The spellings of the enumerations, indexed by value.
var (
	protocolNames  = []string{ProtoByzCast: "byzcast", ProtoFlooding: "flooding", ProtoFPlusOne: "f+1"}
	overlayNames   = []string{overlay.CDS: overlay.New(overlay.CDS).Name(), overlay.MISB: overlay.New(overlay.MISB).Name()}
	placementNames = []string{PlaceSpread: "spread", PlaceDominators: "dominators"}
	mobilityNames  = []string{MobGrid: "grid", MobUniform: "uniform", MobWaypoint: "waypoint", MobWalk: "walk", MobGaussMarkov: "gauss-markov", MobFerry: "ferry"}
)

// spell names v, or returns "" if names has no entry for it.
func spell[T ~int](names []string, v T) string {
	if v < 0 || int(v) >= len(names) {
		return ""
	}
	return names[v]
}

// choices lists the spellings (an enumeration that counts from 1 has none at 0).
func choices(names []string) string {
	return strings.TrimPrefix(strings.Join(names, " | "), " | ")
}

// enumFlag is the flag.Value of an enumeration.
type enumFlag[T ~int] struct {
	p     *T
	names []string
}

func (e enumFlag[T]) String() string {
	if e.p == nil { // the zero value flag.PrintDefaults compares defaults against
		return ""
	}
	return spell(e.names, *e.p)
}

func (e enumFlag[T]) Set(s string) error {
	i := slices.Index(e.names, s)
	if i < 0 || s == "" {
		return fmt.Errorf("want %s", choices(e.names))
	}
	*e.p = T(i)
	return nil
}

// inlineOrFile reads a JSON document: s itself when it starts with '{', the
// file it names otherwise, nothing when empty.
func inlineOrFile[T any](s string, parse func([]byte) (*T, error), load func(string) (*T, error)) (*T, error) {
	switch {
	case s == "":
		return nil, nil
	case strings.HasPrefix(strings.TrimSpace(s), "{"):
		return parse([]byte(s))
	}
	return load(s)
}

// inlineJSON is the document inlineOrFile reads v back from.
func inlineJSON[T any](v *T) string {
	if v == nil {
		return ""
	}
	data, _ := json.Marshal(v)
	return string(data)
}

// advFlag is the flag.Value that adds nodes of one Byzantine behaviour. Each
// occurrence appends to Scenario.Adversaries, and ReproCommand prints the
// adversary flags as a group in that order, because assignAdversaries hands
// out nodes in that order.
type advFlag struct {
	st   *flagState
	kind AdversaryKind
}

func (advFlag) String() string { return "0" } // what an absent flag adds

func (a advFlag) Set(s string) error {
	n, err := strconv.Atoi(s)
	if err == nil && n > 0 {
		a.st.sc.Adversaries = append(a.st.sc.Adversaries, Adversaries{Kind: a.kind, Count: n})
	}
	return err
}

// bindings is the list, over st, in the order ReproCommand prints it.
func bindings(st *flagState) []binding {
	sc := &st.sc
	return []binding{
		{"seed", "random seed (runs are deterministic per seed)", &sc.Seed, always},
		{"n", "number of nodes", &sc.N, always},
		{"proto", "`protocol`: " + choices(protocolNames), enumFlag[Protocol]{&sc.Protocol, protocolNames}, nil},
		{"f", "tolerated failures for the f+1 baseline", &sc.F, nil},
		{"area", "square area side in metres", &sc.Area.W, nil},
		{"range", "radio range in metres", &sc.Radio.Range, nil},
		{"rate", "injection rate δ in messages/second", &sc.Workload.Rate, nil},
		{"senders", "number of distinct senders", &sc.Workload.Senders, nil},
		{"size", "payload size in bytes", &sc.Workload.PayloadSize, nil},
		{"duration", "total simulated time", &sc.Duration, always},
		{"warmup", "time before the first injection", &sc.Workload.Start, nil},
		{"drain", "time after the last injection", &st.drain, nil},
		{"load", "load-generator schedule replacing the fixed-rate workload: a JSON file path, or inline JSON starting with '{'", &st.load, nil},

		{"mute", "mute Byzantine `nodes`", advFlag{st, AdvMute}, nil},
		{"tamper", "payload-tampering Byzantine `nodes`", advFlag{st, AdvTamper}, nil},
		{"verbose", "request-spamming Byzantine `nodes`", advFlag{st, AdvVerbose}, nil},
		{"selective", "selfish 50%-dropping `nodes`", advFlag{st, AdvSelective}, nil},
		{"equivocate", "equivocating Byzantine `sources` (conflicting payloads, same id)", advFlag{st, AdvEquivocate}, nil},
		{"flooder", "message-flooding `nodes` (fresh signed spam at ~10x workload rate)", advFlag{st, AdvFlooder}, nil},
		{"replayer", "packet-replaying `nodes` (re-send harvested traffic)", advFlag{st, AdvReplayer}, nil},
		{"forge", "junk-signature spamming `nodes` (nonexistent origins)", advFlag{st, AdvForgeSpammer}, nil},
		{"placement", "adversary `placement`: " + choices(placementNames), enumFlag[AdversaryPlacement]{&sc.Placement, placementNames}, nil},

		{"mobility", "`mobility`: " + choices(mobilityNames), enumFlag[MobilityKind]{&sc.Mobility, mobilityNames}, nil},
		{"speed", "node speed (m/s) for waypoint/walk", &st.speed, func(s Scenario) bool { return s.Mobility != MobGrid }},
		{"pause", "waypoint pause time", &st.pause, nil},

		{"overlay", "`overlay` maintainer: " + choices(overlayNames), enumFlag[overlay.Kind]{&sc.Core.Overlay, overlayNames}, nil},
		{"no-fd", "disable the failure detectors", &st.noFD, nil},
		{"no-adapt", "disable adaptive timing and bounded retransmission (static timers, no retry chain)", &st.noAdapt, nil},
		{"ed25519", "use real Ed25519 signatures", &sc.UseEd25519, nil},
		{"persist", "give every node a durable store: amnesiac rejoiners restore their sequence number, delivered-message digests and suspicions instead of restarting blank", &sc.Core.Persist, nil},
		{"sync", "enable rejoin catch-up sync (SYNC-REQ/SYNC-RESP from one neighbour after a wipe); implies -persist", &sc.Core.CatchUpSync, nil},
		{"persist-tear", "tear the tail record off each amnesiac node's durable log at recovery (exercises replay-truncate)", &st.corrupt.TearTail, nil},
		{"persist-flip", "flip this many seeded-random bits in each amnesiac node's durable log at recovery (exercises CRC rejection)", &st.corrupt.FlipBits, nil},
		{"no-invariants", "disable the runtime invariant checker", &st.noInv, nil},
		{"faults", "fault plan: a JSON file path, or inline JSON starting with '{'", &st.faults, nil},
	}
}

// register declares the list on fs, writing into st; each flag's default is
// what st holds now.
func register(fs *flag.FlagSet, st *flagState) []binding {
	list := bindings(st)
	for _, b := range list {
		switch p := b.at.(type) {
		case *int:
			fs.IntVar(p, b.name, *p, b.usage)
		case *int64:
			fs.Int64Var(p, b.name, *p, b.usage)
		case *float64:
			fs.Float64Var(p, b.name, *p, b.usage)
		case *time.Duration:
			fs.DurationVar(p, b.name, *p, b.usage)
		case *bool:
			fs.BoolVar(p, b.name, *p, b.usage)
		case *string:
			fs.StringVar(p, b.name, *p, b.usage)
		case flag.Value:
			fs.Var(p, b.name, b.usage)
		}
	}
	return list
}

// ScenarioFlags registers on fs every flag that describes a Scenario and
// returns the function that, once fs has parsed, yields the scenario.
func ScenarioFlags(fs *flag.FlagSet) func() (Scenario, error) {
	st := newFlagState()
	register(fs, st)
	return st.finish
}

// ReproCommand renders a one-line bbsim invocation that reproduces the
// scenario, fault plan and load schedule inline. It is printed alongside
// invariant violations so a failing run can be replayed directly. When the
// line does not parse back to the same scenario — an experiment moved a field
// no flag spells — a trailing shell comment names what differs.
func ReproCommand(sc Scenario) string {
	args := reproArgs(sc)
	line := "bbsim"
	for _, a := range args {
		if strings.ContainsAny(a, " '\"{}[]#") { // the JSON of -faults and -load
			a = "'" + strings.ReplaceAll(a, "'", `'\''`) + "'"
		}
		line += " " + a
	}
	back, err := parseArgs(args)
	if err != nil {
		return line + "  # does not parse back: " + err.Error()
	}
	if diff := scenarioDiff(sc, back); len(diff) > 0 {
		return line + "  # not expressible as flags: " + strings.Join(diff, ", ")
	}
	return line
}

// reproArgs lists every flag whose value is off its default, or pinned.
func reproArgs(sc Scenario) (args []string) {
	cur, def := flag.NewFlagSet("", flag.ContinueOnError), flag.NewFlagSet("", flag.ContinueOnError)
	list := register(cur, stateOf(sc))
	register(def, newFlagState())
	// No flag adds the silent kind: it prints as the nearest, and ReproCommand's
	// comment says so.
	advName := map[AdversaryKind]string{AdvMuteSilent: "mute"}
	for _, b := range list {
		if a, ok := b.at.(advFlag); ok {
			advName[a.kind] = b.name
		}
	}
	advs := sc.Adversaries
	for _, b := range list {
		v := cur.Lookup(b.name).Value.String()
		_, isAdv := b.at.(advFlag)
		_, isSwitch := b.at.(*bool)
		switch {
		case isAdv:
			for _, a := range advs {
				args = append(args, "-"+advName[a.Kind], strconv.Itoa(a.Count))
			}
			advs = nil
		case v == def.Lookup(b.name).DefValue && (b.pin == nil || !b.pin(sc)):
		case isSwitch:
			args = append(args, "-"+b.name)
		default:
			args = append(args, "-"+b.name, v)
		}
	}
	return args
}

func parseArgs(args []string) (Scenario, error) {
	fs := flag.NewFlagSet("bbsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	finish := ScenarioFlags(fs)
	if err := fs.Parse(args); err != nil {
		return Scenario{}, err
	}
	return finish()
}

// scenarioDiff lists, sorted, the field paths at which two scenarios differ. The label
// and the three output sinks are not part of the simulation (the experiment
// planner compares scenarios the same way).
func scenarioDiff(a, b Scenario) (paths []string) {
	b.Name, b.Trace, b.Observer, b.SnapshotSVG = a.Name, a.Trace, a.Observer, a.SnapshotSVG
	diffPaths(reflect.ValueOf(a), reflect.ValueOf(b), "", &paths)
	sort.Strings(paths)
	return paths
}

func diffPaths(a, b reflect.Value, path string, out *[]string) {
	switch {
	case a.Kind() == reflect.Pointer && !a.IsNil() && !b.IsNil():
		diffPaths(a.Elem(), b.Elem(), path, out)
	case a.Kind() == reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			diffPaths(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name, out)
		}
	case !reflect.DeepEqual(a.Interface(), b.Interface()):
		*out = append(*out, path[1:])
	}
}
