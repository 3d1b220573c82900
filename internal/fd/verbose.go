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
}

// Verbose is the VERBOSE failure detector: it suspects nodes that send too
// many messages (§3.1). Not safe for concurrent use.
type Verbose struct {
	set *counterSet

	// OnSuspect, if non-nil, observes suspicion transitions.
	OnSuspect func(id wire.NodeID, suspected bool)
}

// NewVerbose builds a VERBOSE detector.
func NewVerbose(now Now, cfg VerboseConfig) *Verbose {
	v := &Verbose{set: newCounterSet(now, cfg.Threshold, cfg.SuspicionTTL, cfg.AgeInterval)}
	v.set.onChange = func(id wire.NodeID, s bool) {
		if v.OnSuspect != nil {
			v.OnSuspect(id, s)
		}
	}
	return v
}

// Indict charges id with one count of excessive sending (VERBOSE.indict).
func (v *Verbose) Indict(id wire.NodeID) { v.set.bump(id, 1) }

// Suspected reports whether the detector currently suspects id.
func (v *Verbose) Suspected(id wire.NodeID) bool { return v.set.suspected(id) }

// Suspects returns the currently suspected nodes, sorted.
func (v *Verbose) Suspects() []wire.NodeID { return v.appendSuspects(nil) }

func (v *Verbose) appendSuspects(dst []wire.NodeID) []wire.NodeID {
	return v.set.appendSuspects(dst)
}

// Indictments reports id's current (decayed) indictment count.
func (v *Verbose) Indictments(id wire.NodeID) int { return v.set.count(id) }
