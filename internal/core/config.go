// Package core implements the paper's Byzantine-tolerant broadcast protocol
// (§3): overlay dissemination of signed data messages, unstructured gossiping
// of message signatures, and gossip-driven recovery of missing messages via
// REQUEST_MSG / FIND_MISSING_MSG, guarded by the MUTE, VERBOSE and TRUST
// failure detectors.
//
// The protocol is transport-agnostic: it consumes a Clock, a one-hop
// broadcast function and a deterministic random stream, so the same code runs
// in the discrete-event simulator and over a real datagram transport.
// A Protocol instance is not safe for concurrent use; hosts must serialize
// calls (the simulator is single-threaded, the UDP transport uses a mutex).
package core

import (
	"time"

	"bbcast/internal/fd"
	"bbcast/internal/overlay"
)

// Config holds every protocol parameter. The zero value is not useful;
// start from DefaultConfig.
type Config struct {
	// GossipInterval is the lazycast period (the paper's gossip_timeout):
	// how often a node re-advertises the signatures of messages it holds.
	// Each period is randomized by ± a fifth of this nominal interval to
	// desynchronize gossipers (periodJitter).
	GossipInterval time.Duration
	// GossipRetention is how long a message keeps being advertised.
	GossipRetention time.Duration
	// GossipMaxEntries caps advertisements per gossip packet; additional
	// entries wait for the next period (aggregation bound). A receiver
	// processes at most twice as many entries of one packet and ignores the
	// rest, so a spammer cannot buy unbounded verification work with one
	// datagram. Zero or negative lifts both bounds.
	GossipMaxEntries int
	// GossipAggregation, when false, sends one gossip packet per
	// advertisement instead of batching (ablation of the §1 optimization).
	GossipAggregation bool

	// RequestDelay is the paper's request_timeout: how long after hearing a
	// gossip for a missing message the node waits (for the data to arrive
	// by itself) before issuing a REQUEST_MSG.
	RequestDelay time.Duration
	// RequestTolerance is how many identical requests from one node an
	// overlay node serves before indicting it to VERBOSE.
	RequestTolerance int
	// EnableRecovery gates the whole gossip-request-find recovery path
	// (ablation; the paper's protocol has it on).
	EnableRecovery bool
	// EnableFindMissing gates the TTL-2 FIND_MISSING_MSG escalation that
	// bypasses a Byzantine overlay hop (ablation).
	EnableFindMissing bool

	// PurgeTimeout is how long message payloads are retained for recovery.
	PurgeTimeout time.Duration
	// PurgeInterval is how often the purge task runs.
	PurgeInterval time.Duration
	// StabilityPurge enables the paper's alternative purging mechanism
	// (§3.2.2): a payload may be dropped before PurgeTimeout once enough
	// distinct neighbours have advertised the message in their gossip —
	// they all hold it, so this node no longer needs to serve it. "Enough"
	// is half the current neighbour count and at least three, and a message
	// is kept for two gossip rounds whatever its confirmations.
	StabilityPurge bool

	// MaintenanceInterval is the overlay computation-step period, randomized
	// like the gossip period.
	MaintenanceInterval time.Duration
	// NeighborTTL expires neighbours not heard from.
	NeighborTTL time.Duration
	// PiggybackState attaches the overlay-state record to gossip packets
	// instead of sending dedicated maintenance packets (§3: "most overlay
	// maintenance messages can be piggybacked on gossip messages").
	PiggybackState bool
	// Overlay selects the maintenance protocol (CDS or MIS+B).
	Overlay overlay.Kind

	// AdmitRate is the per-sender token-bucket refill rate in packets/second
	// applied before any packet processing (and in particular before any
	// signature verification). Zero or negative disables rate limiting. The
	// default is far above what a correct node ever sends, so only floods
	// are shed.
	AdmitRate float64
	// AdmitBurst is the token-bucket capacity: how many back-to-back packets
	// one sender may land before the rate applies (defaults to 2×AdmitRate
	// when zero).
	AdmitBurst float64
	// MaxNeighbors caps the neighbour table; when full, the least recently
	// heard entry is evicted to admit a new sender (LRU). Zero or negative
	// means unbounded.
	MaxNeighbors int
	// MaxStore caps the message store, tombstones included. At the cap,
	// tombstones are evicted oldest-first, then held payloads. Zero or
	// negative means unbounded.
	MaxStore int
	// StoreQuiescence is how long a purged entry's tombstone is retained as a
	// duplicate filter before being deleted outright. Zero or negative keeps
	// tombstones forever (the pre-hardening behaviour).
	StoreQuiescence time.Duration
	// MaxMissing caps the recovery table; new gossip-advertised messages are
	// not tracked while it is full (later gossip rounds retry naturally).
	// Zero or negative means unbounded.
	MaxMissing int
	// MaxReqSeen caps the per-message request-count table; at the cap the
	// least recently touched record is evicted, and a record not touched for
	// PurgeTimeout expires. Zero or negative means unbounded.
	MaxReqSeen int

	// AdaptiveTiming gates the link-quality estimator and the AIMD timer
	// control it drives: with it on, each node scores its neighbours by
	// observed-vs-expected gossip arrivals and moves the gossip period and
	// the MUTE expectation timeout between their configured bounds (faster
	// gossip and a more patient detector under loss, nominal values when the
	// channel recovers). With it off the timers are static (the E15 baseline
	// arm). The bounds are GossipBounds and MuteTimeoutBounds.
	AdaptiveTiming bool

	// RetryMaxAttempts caps the explicit retransmission chain per missing
	// message: after the first request fires without the data arriving, up to
	// this many further requests are sent with exponential backoff (see
	// retryBackoff) before the node gives up and leaves recovery to later
	// gossip rounds. Zero or negative disables the chain (the pre-ISSUE-6
	// behaviour).
	RetryMaxAttempts int

	// EnableFDs gates the failure detectors; with them off the protocol
	// still recovers via gossip but never evicts Byzantine overlay nodes
	// (ablation arm of experiment E4).
	EnableFDs bool
	// Mute, Verbose and Trust parameterize the detectors.
	Mute    fd.MuteConfig
	Verbose fd.VerboseConfig
	Trust   fd.TrustConfig

	// Persist enables the durable-state layer: the host attaches a
	// persist.Store (Deps.Store) and the protocol records its broadcast
	// sequence number, delivered-message digests and direct suspicions to it,
	// restoring them after an amnesiac crash so the node does not reuse
	// sequence numbers or re-deliver pre-crash traffic. The protocol itself
	// keys off Deps.Store; this flag tells the host to attach one.
	Persist bool
	// CatchUpSync enables the rejoin catch-up protocol: after a wipe the node
	// asks one admitted neighbour for messages it missed while down
	// (SYNC-REQ / SYNC-RESP), instead of waiting for gossip advertisements of
	// messages that may already have aged out of the advertisement window.
	CatchUpSync bool
}

// DefaultConfig returns the parameters used throughout the experiments.
func DefaultConfig() Config {
	return Config{
		GossipInterval:    1 * time.Second,
		GossipRetention:   10 * time.Second,
		GossipMaxEntries:  32,
		GossipAggregation: true,

		RequestDelay:      400 * time.Millisecond,
		RequestTolerance:  3,
		EnableRecovery:    true,
		EnableFindMissing: true,

		PurgeTimeout:  30 * time.Second,
		PurgeInterval: 5 * time.Second,

		// Resource bounds: generous enough that correct traffic never hits
		// them at any experiment scale, tight enough that a flooding or
		// replaying neighbour cannot exhaust memory or verification CPU.
		AdmitRate:       60,
		AdmitBurst:      120,
		MaxNeighbors:    128,
		MaxStore:        4096,
		StoreQuiescence: 60 * time.Second,
		MaxMissing:      1024,
		MaxReqSeen:      1024,

		MaintenanceInterval: 1 * time.Second,
		NeighborTTL:         5 * time.Second,
		PiggybackState:      true,
		Overlay:             overlay.MISB,

		// Adaptive timing on by default: under clean channels the estimator
		// stays above its degradation threshold and the timers never move, so
		// the behaviour (and the RNG draw schedule) matches the static
		// configuration exactly.
		AdaptiveTiming:   true,
		RetryMaxAttempts: 3,

		EnableFDs: true,
		Mute: fd.MuteConfig{
			Timeout:      1500 * time.Millisecond,
			Threshold:    4,
			SuspicionTTL: 30 * time.Second,
			AgeInterval:  5 * time.Second,
		},
		Verbose: fd.VerboseConfig{
			Threshold:    8,
			SuspicionTTL: 30 * time.Second,
			AgeInterval:  10 * time.Second,
		},
		Trust: fd.TrustConfig{
			DirectTTL: 60 * time.Second,
			ReportTTL: 20 * time.Second,
		},
	}
}

// GossipBounds returns the hard bounds of the adaptive gossip period: a
// quarter of the nominal interval to twice it. Both the protocol's AIMD step
// and the invariant checker's timer-bounds probe use this, so they can never
// disagree about what "in bounds" means.
func (c *Config) GossipBounds() (min, max time.Duration) {
	return c.GossipInterval / 4, 2 * c.GossipInterval
}

// MuteTimeoutBounds returns the hard bounds of the adaptive MUTE expectation
// timeout: the nominal timeout to four times it.
func (c *Config) MuteTimeoutBounds() (min, max time.Duration) {
	return c.Mute.Timeout, 4 * c.Mute.Timeout
}
