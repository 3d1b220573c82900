// Package faultplan defines declarative, deterministic fault schedules for
// the simulator — the chaos-engineering layer of the harness.
//
// A Plan is a list of timed events (crash, recover, partition, heal, radio
// degradation, behaviour swap) plus an optional Churn generator that expands
// into crash/recover pairs from a seeded random stream. Plans encode to JSON
// (durations as Go duration strings, e.g. "30s") so they can be stored next
// to experiments and passed to `bbsim -faults plan.json`. The runner
// schedules each event as a named sim.Engine epoch; anything observing the
// run (invariant checker, tracer, result event log) sees the same timeline.
//
// The paper's evaluation (§4) only installs adversaries at t=0; fault plans
// exercise the axis it leaves untested — churn, partitions and mid-run
// degradation — against which the recovery machinery (signature gossip plus
// the MUTE/VERBOSE detectors) is supposed to hold up.
package faultplan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"bbcast/internal/byzantine"
	"bbcast/internal/wire"
)

// Kind discriminates fault events.
type Kind string

// Event kinds.
const (
	// Crash takes Node's radio off the air.
	Crash Kind = "crash"
	// CrashAmnesia takes Node's radio off the air AND marks the crash as
	// amnesiac: when the node later Recovers, its volatile protocol state
	// (store, neighbours, detectors, sequence counter) is wiped and
	// re-initialized, restoring only whatever its durable store remembers.
	CrashAmnesia Kind = "crash-amnesia"
	// Recover puts Node's radio back on the air.
	Recover Kind = "recover"
	// Partition splits the network into Groups; frames cross only within a
	// group. Nodes not named in any group form one implicit extra group.
	Partition Kind = "partition"
	// Heal removes the current partition.
	Heal Kind = "heal"
	// DegradeRadio adds LossFactor per-reception loss for Duration.
	// Overlapping windows stack (independent drop chances).
	DegradeRadio Kind = "degrade-radio"
	// SwapBehavior replaces Node's behaviour with Behavior, a name in
	// byzantine.Make's vocabulary.
	SwapBehavior Kind = "swap-behavior"
	// BurstLoss installs a per-link Gilbert–Elliott bursty-loss model for
	// Duration: links flip between a good state and a bad state (mean dwell
	// times MeanGood/MeanBad); receptions in the bad state drop with
	// probability LossFactor.
	BurstLoss Kind = "burst-loss"
	// Jitter defers each delivery by a uniform draw in [0,MaxJitter) for
	// Duration.
	Jitter Kind = "jitter"
	// Duplicate delivers each successful reception twice with probability
	// DupProb, for Duration.
	Duplicate Kind = "duplicate"
	// AsymDegrade degrades each ordered link by a static, direction-dependent
	// extra loss up to LossFactor (severity), for Duration.
	AsymDegrade Kind = "asym-degrade"
)

// Event is one scheduled fault.
type Event struct {
	// At is the virtual time the event fires.
	At time.Duration
	// Kind selects the fault.
	Kind Kind
	// Node is the subject of crash, recover and swap-behavior events.
	Node wire.NodeID
	// Groups are the partition groups for partition events.
	Groups [][]wire.NodeID
	// LossFactor is the additional loss probability for degrade-radio, the
	// bad-state loss probability for burst-loss, and the severity for
	// asym-degrade.
	LossFactor float64
	// Duration is how long a windowed event (degrade-radio, burst-loss,
	// jitter, duplicate, asym-degrade) lasts.
	Duration time.Duration
	// Behavior names the new behaviour for swap-behavior events.
	Behavior string
	// MeanBad and MeanGood are the Gilbert–Elliott dwell times for
	// burst-loss events.
	MeanBad, MeanGood time.Duration
	// MaxJitter is the delivery-latency bound for jitter events.
	MaxJitter time.Duration
	// DupProb is the duplication probability for duplicate events.
	DupProb float64
}

// Name renders a short identifier for the event, used as its epoch name,
// trace detail and result event-log entry.
func (e Event) Name() string {
	switch e.Kind {
	case Crash, CrashAmnesia, Recover:
		return fmt.Sprintf("%s(%d)", e.Kind, e.Node)
	case Partition:
		return fmt.Sprintf("partition(%d groups)", len(e.Groups))
	case Heal:
		return "heal"
	case DegradeRadio:
		return fmt.Sprintf("degrade-radio(%.2f,%s)", e.LossFactor, e.Duration)
	case SwapBehavior:
		return fmt.Sprintf("swap(%d→%s)", e.Node, e.Behavior)
	case BurstLoss:
		return fmt.Sprintf("burst-loss(%.2f,%s/%s,%s)", e.LossFactor, e.MeanBad, e.MeanGood, e.Duration)
	case Jitter:
		return fmt.Sprintf("jitter(%s,%s)", e.MaxJitter, e.Duration)
	case Duplicate:
		return fmt.Sprintf("duplicate(%.2f,%s)", e.DupProb, e.Duration)
	case AsymDegrade:
		return fmt.Sprintf("asym-degrade(%.2f,%s)", e.LossFactor, e.Duration)
	default:
		return string(e.Kind)
	}
}

// eventJSON is the wire form: durations as strings, node optional so that
// "node": 0 and a missing node are distinguishable during validation.
type eventJSON struct {
	At         string          `json:"at"`
	Kind       Kind            `json:"kind"`
	Node       *wire.NodeID    `json:"node,omitempty"`
	Groups     [][]wire.NodeID `json:"groups,omitempty"`
	LossFactor float64         `json:"lossFactor,omitempty"`
	Duration   string          `json:"duration,omitempty"`
	Behavior   string          `json:"behavior,omitempty"`
	MeanBad    string          `json:"meanBad,omitempty"`
	MeanGood   string          `json:"meanGood,omitempty"`
	MaxJitter  string          `json:"maxJitter,omitempty"`
	DupProb    float64         `json:"dupProb,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (e Event) MarshalJSON() ([]byte, error) {
	j := eventJSON{At: e.At.String(), Kind: e.Kind, Groups: e.Groups,
		LossFactor: e.LossFactor, Behavior: e.Behavior, DupProb: e.DupProb}
	switch e.Kind {
	case Crash, CrashAmnesia, Recover, SwapBehavior:
		node := e.Node
		j.Node = &node
	}
	if e.Duration > 0 {
		j.Duration = e.Duration.String()
	}
	if e.MeanBad > 0 {
		j.MeanBad = e.MeanBad.String()
	}
	if e.MeanGood > 0 {
		j.MeanGood = e.MeanGood.String()
	}
	if e.MaxJitter > 0 {
		j.MaxJitter = e.MaxJitter.String()
	}
	return json.Marshal(j)
}

// UnmarshalJSON implements json.Unmarshaler. Durations accept Go duration
// strings ("30s", "1m30s").
func (e *Event) UnmarshalJSON(data []byte) error {
	var j eventJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	at, err := parseDuration(j.At, "at")
	if err != nil {
		return err
	}
	var dur, meanBad, meanGood, maxJitter time.Duration
	if j.Duration != "" {
		if dur, err = parseDuration(j.Duration, "duration"); err != nil {
			return err
		}
	}
	if j.MeanBad != "" {
		if meanBad, err = parseDuration(j.MeanBad, "meanBad"); err != nil {
			return err
		}
	}
	if j.MeanGood != "" {
		if meanGood, err = parseDuration(j.MeanGood, "meanGood"); err != nil {
			return err
		}
	}
	if j.MaxJitter != "" {
		if maxJitter, err = parseDuration(j.MaxJitter, "maxJitter"); err != nil {
			return err
		}
	}
	*e = Event{At: at, Kind: j.Kind, Groups: j.Groups,
		LossFactor: j.LossFactor, Duration: dur, Behavior: j.Behavior,
		MeanBad: meanBad, MeanGood: meanGood, MaxJitter: maxJitter, DupProb: j.DupProb}
	switch j.Kind {
	case Crash, CrashAmnesia, Recover, SwapBehavior:
		if j.Node == nil {
			return fmt.Errorf("faultplan: %s event needs a node", j.Kind)
		}
		e.Node = *j.Node
	}
	return nil
}

func parseDuration(s, field string) (time.Duration, error) {
	if s == "" {
		return 0, fmt.Errorf("faultplan: missing %q", field)
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("faultplan: bad %q: %w", field, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("faultplan: negative %q", field)
	}
	return d, nil
}

// Churn generates crash/recover pairs as a Poisson process over a window.
// Expansion is deterministic in the random stream it is given, so the same
// engine seed always yields the same churn schedule.
type Churn struct {
	// Rate is the expected number of crash events per second, network-wide.
	Rate float64
	// Start and End bound the window in which crashes are injected.
	Start, End time.Duration
	// Downtime is how long each churned node stays down (default 10s).
	Downtime time.Duration
	// Wipe makes every generated crash amnesiac (CrashAmnesia instead of
	// Crash): recovering nodes restart from empty volatile state plus
	// whatever their durable store holds.
	Wipe bool
	// Exclude lists nodes the generator must not touch (e.g. the source of
	// a measurement-critical flow).
	Exclude []wire.NodeID
}

// churnJSON is the wire form of Churn.
type churnJSON struct {
	Rate     float64       `json:"rate"`
	Start    string        `json:"start"`
	End      string        `json:"end"`
	Downtime string        `json:"downtime,omitempty"`
	Wipe     bool          `json:"wipe,omitempty"`
	Exclude  []wire.NodeID `json:"exclude,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (c Churn) MarshalJSON() ([]byte, error) {
	j := churnJSON{Rate: c.Rate, Start: c.Start.String(), End: c.End.String(), Wipe: c.Wipe, Exclude: c.Exclude}
	if c.Downtime > 0 {
		j.Downtime = c.Downtime.String()
	}
	return json.Marshal(j)
}

// UnmarshalJSON implements json.Unmarshaler.
func (c *Churn) UnmarshalJSON(data []byte) error {
	var j churnJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	start, err := parseDuration(j.Start, "start")
	if err != nil {
		return err
	}
	end, err := parseDuration(j.End, "end")
	if err != nil {
		return err
	}
	var down time.Duration
	if j.Downtime != "" {
		if down, err = parseDuration(j.Downtime, "downtime"); err != nil {
			return err
		}
	}
	*c = Churn{Rate: j.Rate, Start: start, End: end, Downtime: down, Wipe: j.Wipe, Exclude: j.Exclude}
	return nil
}

// Expand realizes the churn process into crash/recover event pairs for a
// network of n nodes, drawing from rng. Nodes currently down (from an
// earlier pair) are not crashed again until they recover.
func (c Churn) Expand(rng *rand.Rand, n int) []Event {
	if c.Rate <= 0 || c.End <= c.Start || n == 0 {
		return nil
	}
	down := c.Downtime
	if down <= 0 {
		down = 10 * time.Second
	}
	excluded := make(map[wire.NodeID]bool, len(c.Exclude))
	for _, id := range c.Exclude {
		excluded[id] = true
	}
	crashKind := Crash
	if c.Wipe {
		crashKind = CrashAmnesia
	}
	var out []Event
	upAgain := make(map[wire.NodeID]time.Duration)
	mean := float64(time.Second) / c.Rate
	for t := c.Start; ; {
		t += time.Duration(rng.ExpFloat64() * mean)
		if t >= c.End {
			break
		}
		// Draw a victim that is eligible and currently up; give up after a
		// few tries so a tiny network cannot loop forever.
		for try := 0; try < 8; try++ {
			id := wire.NodeID(rng.Intn(n))
			if excluded[id] || upAgain[id] > t {
				continue
			}
			upAgain[id] = t + down
			out = append(out, Event{At: t, Kind: crashKind, Node: id})
			out = append(out, Event{At: t + down, Kind: Recover, Node: id})
			break
		}
	}
	return out
}

// Plan is a complete fault schedule.
type Plan struct {
	// Events are the explicitly scheduled faults.
	Events []Event `json:"events,omitempty"`
	// Churn, if non-nil, is expanded into additional crash/recover pairs.
	Churn *Churn `json:"churn,omitempty"`
}

// Parse decodes a JSON plan and validates its shape (node ranges are checked
// later, by Validate, once the network size is known).
func Parse(data []byte) (*Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faultplan: parse: %w", err)
	}
	return &p, nil
}

// Load reads and parses a plan file.
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faultplan: %w", err)
	}
	return Parse(data)
}

// String renders the plan as compact JSON (for repro command lines).
func (p *Plan) String() string {
	data, err := json.Marshal(p)
	if err != nil {
		return "{}"
	}
	return string(data)
}

// Validate checks the plan against a network of n nodes.
func (p *Plan) Validate(n int) error {
	for i, e := range p.Events {
		switch e.Kind {
		case Crash, CrashAmnesia, Recover, SwapBehavior:
			if int(e.Node) >= n {
				return fmt.Errorf("faultplan: event %d (%s): node %d out of range [0,%d)", i, e.Kind, e.Node, n)
			}
		case Partition:
			// One listed group suffices: nodes not named in any group form
			// an implicit extra group on the other side of the cut.
			if len(e.Groups) < 1 {
				return fmt.Errorf("faultplan: event %d: partition needs at least 1 group", i)
			}
			seen := make(map[wire.NodeID]bool)
			for _, g := range e.Groups {
				for _, id := range g {
					if int(id) >= n {
						return fmt.Errorf("faultplan: event %d: partition node %d out of range [0,%d)", i, id, n)
					}
					if seen[id] {
						return fmt.Errorf("faultplan: event %d: node %d in two partition groups", i, id)
					}
					seen[id] = true
				}
			}
		case Heal:
			// Always valid.
		case DegradeRadio:
			if e.LossFactor <= 0 || e.LossFactor >= 1 {
				return fmt.Errorf("faultplan: event %d: lossFactor %.3f outside (0,1)", i, e.LossFactor)
			}
			if e.Duration <= 0 {
				return fmt.Errorf("faultplan: event %d: degrade-radio needs a positive duration", i)
			}
		case BurstLoss:
			if e.LossFactor <= 0 || e.LossFactor > 1 {
				return fmt.Errorf("faultplan: event %d: burst-loss lossFactor %.3f outside (0,1]", i, e.LossFactor)
			}
			if e.MeanBad <= 0 || e.MeanGood <= 0 {
				return fmt.Errorf("faultplan: event %d: burst-loss needs positive meanBad and meanGood dwell times", i)
			}
			if e.Duration <= 0 {
				return fmt.Errorf("faultplan: event %d: burst-loss needs a positive duration", i)
			}
		case Jitter:
			if e.MaxJitter <= 0 {
				return fmt.Errorf("faultplan: event %d: jitter needs a positive maxJitter", i)
			}
			if e.Duration <= 0 {
				return fmt.Errorf("faultplan: event %d: jitter needs a positive duration", i)
			}
		case Duplicate:
			if e.DupProb <= 0 || e.DupProb >= 1 {
				return fmt.Errorf("faultplan: event %d: dupProb %.3f outside (0,1)", i, e.DupProb)
			}
			if e.Duration <= 0 {
				return fmt.Errorf("faultplan: event %d: duplicate needs a positive duration", i)
			}
		case AsymDegrade:
			if e.LossFactor <= 0 || e.LossFactor >= 1 {
				return fmt.Errorf("faultplan: event %d: asym-degrade severity %.3f outside (0,1)", i, e.LossFactor)
			}
			if e.Duration <= 0 {
				return fmt.Errorf("faultplan: event %d: asym-degrade needs a positive duration", i)
			}
		default:
			return fmt.Errorf("faultplan: event %d: unknown kind %q", i, e.Kind)
		}
		if e.Kind == SwapBehavior && !byzantine.Known(e.Behavior) {
			return fmt.Errorf("faultplan: event %d: unknown behaviour %q", i, e.Behavior)
		}
	}
	if c := p.Churn; c != nil {
		if c.Rate <= 0 {
			return fmt.Errorf("faultplan: churn.rate: must be > 0, got %g", c.Rate)
		}
		if c.End <= c.Start {
			return fmt.Errorf("faultplan: churn.end: must be after start %s, got %s", c.Start, c.End)
		}
		if c.Downtime < 0 {
			return fmt.Errorf("faultplan: churn.downtime: must be >= 0, got %s", c.Downtime)
		}
		for i, id := range c.Exclude {
			if int(id) >= n {
				return fmt.Errorf("faultplan: churn.exclude[%d]: node %d out of range [0,%d)", i, id, n)
			}
		}
	}
	return nil
}

// Expanded merges the explicit events with the churn expansion and returns
// the schedule sorted by time (stably: explicit events precede churn events
// at the same instant, preserving authoring order).
func (p *Plan) Expanded(rng *rand.Rand, n int) []Event {
	out := make([]Event, 0, len(p.Events))
	out = append(out, p.Events...)
	if p.Churn != nil {
		out = append(out, p.Churn.Expand(rng, n)...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// SwapTargets returns the nodes the plan ever swaps to a faulty behaviour.
// The runner excludes them from the "correct" set conservatively, for both
// metrics and invariants.
func (p *Plan) SwapTargets() []wire.NodeID {
	seen := make(map[wire.NodeID]bool)
	var out []wire.NodeID
	for _, e := range p.Events {
		if e.Kind == SwapBehavior && byzantine.Faulty(e.Behavior) && !seen[e.Node] {
			seen[e.Node] = true
			out = append(out, e.Node)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
