package fd

import (
	"slices"
	"time"

	"bbcast/internal/wire"
)

// Level is the trust the TRUST detector assigns a node (§3.3): untrusted
// means locally suspected; unknown means a trusted neighbour reported a
// suspicion; trusted means no reason to suspect.
type Level int

// Trust levels. Higher is better.
const (
	Untrusted Level = iota + 1
	Unknown
	Trusted
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case Untrusted:
		return "untrusted"
	case Unknown:
		return "unknown"
	case Trusted:
		return "trusted"
	default:
		return "level(?)"
	}
}

// TrustConfig parameterizes the TRUST detector.
type TrustConfig struct {
	// DirectTTL is how long a direct suspicion (bad signature, protocol
	// deviation) lasts. Zero or negative means forever.
	DirectTTL time.Duration
	// ReportTTL is how long a second-hand report demotes a node to Unknown.
	ReportTTL time.Duration
}

// Trust aggregates MUTE, VERBOSE, direct observations and second-hand
// reports into per-node trust levels. Not safe for concurrent use.
type Trust struct {
	now     Now
	cfg     TrustConfig
	mute    *Mute
	verbose *Verbose

	direct     map[wire.NodeID]time.Duration // untrusted until
	reasons    map[wire.NodeID]Reason
	secondHand map[wire.NodeID]time.Duration // unknown until
	keys       []wire.NodeID                 // sortedKeys scratch for AppendSuspects

	// OnDirect, if non-nil, observes every direct local suspicion
	// (a raise; direct suspicions expire silently rather than clear).
	OnDirect func(id wire.NodeID, reason Reason)
}

// NewTrust builds a TRUST detector over the given MUTE and VERBOSE
// detectors (either may be nil in tests).
func NewTrust(now Now, cfg TrustConfig, mute *Mute, verbose *Verbose) *Trust {
	return &Trust{
		now:        now,
		cfg:        cfg,
		mute:       mute,
		verbose:    verbose,
		direct:     make(map[wire.NodeID]time.Duration),
		reasons:    make(map[wire.NodeID]Reason),
		secondHand: make(map[wire.NodeID]time.Duration),
	}
}

// Suspect lowers id's trust based on a locally observed deviation
// (TRUST.suspect of §3.1; e.g. a bad signature).
func (t *Trust) Suspect(id wire.NodeID, reason Reason) {
	until := time.Duration(1<<62 - 1)
	if t.cfg.DirectTTL > 0 {
		until = t.now() + t.cfg.DirectTTL
	}
	t.direct[id] = until
	t.reasons[id] = reason
	if t.OnDirect != nil {
		t.OnDirect(id, reason)
	}
}

// Report records that `reporter` told us it suspects `subject`. Per §3.3 the
// subject becomes Unknown — unless we already suspect the reporter (its word
// is worthless) or already suspect the subject (nothing to demote).
func (t *Trust) Report(reporter, subject wire.NodeID) {
	if t.Level(reporter) == Untrusted || t.Level(subject) == Untrusted {
		return
	}
	until := time.Duration(1<<62 - 1)
	if t.cfg.ReportTTL > 0 {
		until = t.now() + t.cfg.ReportTTL
	}
	t.secondHand[subject] = until
}

// Level returns id's current trust level.
func (t *Trust) Level(id wire.NodeID) Level {
	now := t.now()
	if u, ok := t.direct[id]; ok {
		if now < u {
			return Untrusted
		}
		delete(t.direct, id)
		delete(t.reasons, id)
	}
	if t.mute != nil && t.mute.Suspected(id) {
		return Untrusted
	}
	if t.verbose != nil && t.verbose.Suspected(id) {
		return Untrusted
	}
	if u, ok := t.secondHand[id]; ok {
		if now < u {
			return Unknown
		}
		delete(t.secondHand, id)
	}
	return Trusted
}

// Reason returns why id is directly suspected, if it is.
func (t *Trust) Reason(id wire.NodeID) (Reason, bool) {
	if t.Level(id) != Untrusted {
		return "", false
	}
	if r, ok := t.reasons[id]; ok {
		return r, true
	}
	if t.mute != nil && t.mute.Suspected(id) {
		return ReasonMute, true
	}
	if t.verbose != nil && t.verbose.Suspected(id) {
		return ReasonVerbose, true
	}
	return "", false
}

// Suspects returns the nodes this detector considers Untrusted, sorted.
// These are what the node advertises in its overlay-state Suspects list.
func (t *Trust) Suspects() []wire.NodeID { return t.AppendSuspects(nil) }

// AppendSuspects appends Suspects() to dst, for callers that poll every
// maintenance round and keep their own buffer.
func (t *Trust) AppendSuspects(dst []wire.NodeID) []wire.NodeID {
	start := len(dst)
	// Sorted: Level folds expired suspicions lazily and can emit raise/clear
	// transitions, so it must not run in map iteration order.
	t.keys = sortedKeys(t.keys, t.direct)
	for _, id := range t.keys {
		if t.Level(id) == Untrusted {
			dst = append(dst, id)
		}
	}
	if t.mute != nil {
		dst = t.mute.appendSuspects(dst)
	}
	if t.verbose != nil {
		dst = t.verbose.appendSuspects(dst)
	}
	// The three sources overlap: order the union and drop repeats.
	slices.Sort(dst[start:])
	return dst[:start+len(slices.Compact(dst[start:]))]
}
