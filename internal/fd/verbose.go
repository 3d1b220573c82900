package fd

import (
	"time"

	"bbcast/internal/wire"
)

// VerboseConfig parameterizes the VERBOSE detector.
type VerboseConfig struct {
	// Threshold is how many indictments make a node suspected.
	Threshold int
	// SuspicionTTL is how long a suspicion lasts. Zero or negative means
	// forever (◇P_verbose behaviour).
	SuspicionTTL time.Duration
	// AgeInterval is the decay period of indictment counters.
	AgeInterval time.Duration
	// MinSpacing, when non-zero for a kind, is the smallest legitimate gap
	// between consecutive messages of that kind from one node; closer
	// arrivals auto-indict (the "general requirements about minimal
	// spacing" hook of §3.1, set at initialization time).
	MinSpacing map[wire.Kind]time.Duration
}

// DefaultVerboseConfig returns interval-detector parameters suited to the
// simulation's time scales.
func DefaultVerboseConfig() VerboseConfig {
	return VerboseConfig{
		Threshold:    5,
		SuspicionTTL: 30 * time.Second,
		AgeInterval:  10 * time.Second,
	}
}

// Verbose is the VERBOSE failure detector: it suspects nodes that send too
// many messages (§3.1). Not safe for concurrent use.
type Verbose struct {
	now  Now
	cfg  VerboseConfig
	set  *counterSet
	last map[wire.NodeID]map[wire.Kind]time.Duration

	// OnSuspect, if non-nil, observes suspicion transitions.
	OnSuspect func(id wire.NodeID, suspected bool)
}

// NewVerbose builds a VERBOSE detector.
func NewVerbose(now Now, cfg VerboseConfig) *Verbose {
	v := &Verbose{
		now:  now,
		cfg:  cfg,
		set:  newCounterSet(now, cfg.Threshold, cfg.SuspicionTTL, cfg.AgeInterval),
		last: make(map[wire.NodeID]map[wire.Kind]time.Duration),
	}
	v.set.onChange = func(id wire.NodeID, s bool) {
		if v.OnSuspect != nil {
			v.OnSuspect(id, s)
		}
	}
	return v
}

// Indict charges id with one count of excessive sending (VERBOSE.indict).
func (v *Verbose) Indict(id wire.NodeID) { v.set.bump(id, 1) }

// Observe records the arrival of a message of the given kind from id and
// auto-indicts if it violates the configured minimum spacing.
func (v *Verbose) Observe(id wire.NodeID, kind wire.Kind) {
	minGap := v.cfg.MinSpacing[kind]
	if minGap <= 0 {
		return
	}
	now := v.now()
	kinds := v.last[id]
	if kinds == nil {
		kinds = make(map[wire.Kind]time.Duration)
		v.last[id] = kinds
	}
	prev, seen := kinds[kind]
	kinds[kind] = now
	if seen && now-prev < minGap {
		v.Indict(id)
	}
}

// Suspected reports whether the detector currently suspects id.
func (v *Verbose) Suspected(id wire.NodeID) bool { return v.set.suspected(id) }

// Suspects returns the currently suspected nodes, sorted.
func (v *Verbose) Suspects() []wire.NodeID { return v.appendSuspects(nil) }

func (v *Verbose) appendSuspects(dst []wire.NodeID) []wire.NodeID {
	return v.set.appendSuspects(dst)
}

// Indictments reports id's current (decayed) indictment count.
func (v *Verbose) Indictments(id wire.NodeID) int { return v.set.count(id) }
