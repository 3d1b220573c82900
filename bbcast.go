// Package bbcast is a Byzantine-tolerant broadcast protocol for wireless
// ad-hoc networks, reproducing Drabkin, Friedman and Segal, "Efficient
// Byzantine Broadcast in Wireless Ad-Hoc Networks" (DSN 2005).
//
// The protocol disseminates signed messages along a self-maintained overlay
// (a connected dominating set elected by unforgeable node ids), gossips
// message signatures among all nodes so everyone learns what exists even if
// Byzantine overlay nodes drop traffic, recovers missing messages with
// REQUEST/FIND-MISSING exchanges, and evicts detectably faulty nodes from
// the overlay using MUTE, VERBOSE and TRUST failure detectors. It requires
// only one correct node per one-hop neighbourhood and sends a single
// overlay's worth of traffic when nobody misbehaves — unlike the classical
// f+1-independent-overlays approach that pays (f+1)× always.
//
// # Running simulations
//
// The package ships a deterministic discrete-event wireless simulator
// (radio with collisions and fading fringe, CSMA MAC, mobility models) and
// two baseline protocols (plain flooding and f+1 overlays):
//
//	sc := bbcast.DefaultScenario()
//	sc.N = 100
//	sc.Adversaries = []bbcast.Adversaries{{Kind: bbcast.AdvMute, Count: 10}}
//	res, err := bbcast.Run(sc)
//	fmt.Println(res.Results)
//
// # Running over a real network
//
// The same protocol engine runs over UDP datagrams:
//
//	keys := bbcast.NewHMACKeyring(3, 42)
//	node, err := bbcast.NewNode(bbcast.DefaultProtocolConfig(), 0, keys,
//	    "0.0.0.0:9000", func(origin bbcast.NodeID, id bbcast.MsgID, payload []byte) {
//	        fmt.Printf("accepted %v from %d: %s\n", id, origin, payload)
//	    })
//	node.SetPeers([]string{"10.0.0.2:9000", "10.0.0.3:9000"})
//	node.Broadcast([]byte("hello"))
package bbcast

import (
	"flag"

	"bbcast/internal/core"
	"bbcast/internal/faultplan"
	"bbcast/internal/geo"
	"bbcast/internal/invariant"
	"bbcast/internal/loadgen"
	"bbcast/internal/mac"
	"bbcast/internal/metrics"
	"bbcast/internal/obsv"
	"bbcast/internal/overlay"
	"bbcast/internal/persist"
	"bbcast/internal/radio"
	"bbcast/internal/runner"
	"bbcast/internal/sig"
	"bbcast/internal/wire"
)

// NodeID identifies a device; ids are unforgeable (bound to signature keys).
type NodeID = wire.NodeID

// MsgID identifies an application message by originator and sequence number.
type MsgID = wire.MsgID

// Scenario describes a complete simulation experiment: network size and
// geometry, radio and MAC parameters, mobility, the protocol under test,
// adversaries, and workload.
type Scenario = runner.Scenario

// Adversaries places Byzantine nodes in a scenario.
type Adversaries = runner.Adversaries

// Workload describes a scenario's traffic injection.
type Workload = runner.Workload

// Result bundles a run's metrics with physical-layer statistics.
type Result = runner.Result

// Results is the metrics summary (delivery ratio, latency percentiles,
// per-kind transmission counts) embedded in Result.
type Results = metrics.Results

// Observer receives every protocol event (transmissions, receptions,
// injections, acceptances, role changes, suspicions, signature
// verifications, queue depths) exactly once at its source. Attach one to a
// simulation via Scenario.Observer; live UDP nodes always feed a built-in
// MetricsRegistry (see NewNode). Combine observers with
// bbcast/internal/obsv semantics: implementations must not block.
type Observer = obsv.Observer

// MetricsRegistry is a per-run or per-node metrics store (counters, gauges,
// bounded latency summaries) with Prometheus text and JSON exposition.
type MetricsRegistry = obsv.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obsv.NewRegistry() }

// NewMetricsObserver returns an Observer that maintains the standard bbcast
// metric set (bbcast_tx_total, bbcast_rx_total, bbcast_accepts_total,
// suspicion counters, signature-verify latency, queue-depth gauges, …) in r.
// Attach it to Scenario.Observer and a simulation exports the same schema a
// live node serves from /metrics.
func NewMetricsObserver(r *MetricsRegistry) Observer { return obsv.NewRegistryObserver(r) }

// ProtocolConfig holds every parameter of the paper's protocol.
type ProtocolConfig = core.Config

// RadioConfig holds the physical-layer parameters.
type RadioConfig = radio.Config

// MACConfig holds the CSMA medium-access parameters.
type MACConfig = mac.Config

// Area is the rectangular deployment area, in metres.
type Area = geo.Rect

// Protocol selects the dissemination protocol a scenario runs.
type Protocol = runner.Protocol

// Protocols available to scenarios.
const (
	// ProtoByzCast is the paper's Byzantine-tolerant overlay broadcast.
	ProtoByzCast = runner.ProtoByzCast
	// ProtoFlooding is the classic flood baseline.
	ProtoFlooding = runner.ProtoFlooding
	// ProtoFPlusOne is the f+1 node-independent-overlays baseline.
	ProtoFPlusOne = runner.ProtoFPlusOne
)

// AdversaryKind selects a Byzantine behaviour.
type AdversaryKind = runner.AdversaryKind

// Adversary behaviours.
const (
	// AdvMute drops all forwards while still claiming overlay membership.
	AdvMute = runner.AdvMute
	// AdvMuteSilent additionally suppresses gossip advertisements.
	AdvMuteSilent = runner.AdvMuteSilent
	// AdvVerbose floods the network with valid-looking requests.
	AdvVerbose = runner.AdvVerbose
	// AdvTamper corrupts forwarded payloads (caught by signatures).
	AdvTamper = runner.AdvTamper
	// AdvSelective drops a random half of its forwards (selfishness).
	AdvSelective = runner.AdvSelective
	// AdvEquivocate signs conflicting payloads for its own messages under
	// one message id — the attack the agreement invariant catches.
	AdvEquivocate = runner.AdvEquivocate
	// AdvFlooder spams fresh validly-signed messages far above the workload
	// rate (resource exhaustion; bounded by admission control).
	AdvFlooder = runner.AdvFlooder
	// AdvReplayer re-transmits harvested packets verbatim.
	AdvReplayer = runner.AdvReplayer
	// AdvForgeSpammer sends junk signatures from nonexistent origins.
	AdvForgeSpammer = runner.AdvForgeSpammer
)

// AdversaryPlacement selects where adversaries are placed.
type AdversaryPlacement = runner.AdversaryPlacement

// Adversary placements.
const (
	// PlaceSpread distributes adversaries across the network.
	PlaceSpread = runner.PlaceSpread
	// PlaceDominators puts them on the nodes the election will make
	// overlay dominators — the paper's worst case.
	PlaceDominators = runner.PlaceDominators
)

// MobilityKind selects a scenario's movement model.
type MobilityKind = runner.MobilityKind

// Mobility models.
const (
	// MobGrid places nodes on a jittered grid (static).
	MobGrid = runner.MobGrid
	// MobUniform places nodes uniformly at random (static).
	MobUniform = runner.MobUniform
	// MobWaypoint is the random-waypoint model.
	MobWaypoint = runner.MobWaypoint
	// MobWalk is a reflecting random walk.
	MobWalk = runner.MobWalk
	// MobFerry is two disconnected clusters joined only by a shuttling
	// ferry node (delay-tolerant operation).
	MobFerry = runner.MobFerry
	// MobGaussMarkov is smooth temporally-correlated motion.
	MobGaussMarkov = runner.MobGaussMarkov
)

// OverlayKind selects the overlay maintenance protocol.
type OverlayKind = overlay.Kind

// Overlay maintenance protocols (§3.3).
const (
	// OverlayCDS is the Wu–Li connected-dominating-set marking protocol
	// with ID-based pruning.
	OverlayCDS = overlay.CDS
	// OverlayMISB is the maximal-independent-set-with-bridges protocol
	// (smaller overlays; the default).
	OverlayMISB = overlay.MISB
)

// Keyring signs and verifies on behalf of registered nodes (the PKI the
// paper presumes, §2).
type Keyring = sig.Scheme

// FaultPlan is a declarative, deterministic fault schedule for a scenario:
// timed crashes, recoveries, partitions, radio degradation and behaviour
// swaps, plus an optional churn generator. Plans round-trip through JSON
// (see ParseFaultPlan) for use with `bbsim -faults`.
type FaultPlan = faultplan.Plan

// FaultEvent is one scheduled fault in a FaultPlan.
type FaultEvent = faultplan.Event

// Churn generates Poisson crash/recover pairs inside a FaultPlan.
type Churn = faultplan.Churn

// Fault event kinds.
const (
	// FaultCrash takes a node's radio off the air.
	FaultCrash = faultplan.Crash
	// FaultRecover puts it back.
	FaultRecover = faultplan.Recover
	// FaultPartition splits the network into non-communicating groups.
	FaultPartition = faultplan.Partition
	// FaultHeal removes the partition.
	FaultHeal = faultplan.Heal
	// FaultDegradeRadio adds temporary per-reception loss.
	FaultDegradeRadio = faultplan.DegradeRadio
	// FaultSwapBehavior replaces a node's behaviour mid-run.
	FaultSwapBehavior = faultplan.SwapBehavior
	// FaultCrashAmnesia crashes a node and wipes its volatile state; on
	// recovery the node restarts from scratch (plus whatever its durable
	// store preserved, when ProtocolConfig.Persist is on).
	FaultCrashAmnesia = faultplan.CrashAmnesia
)

// PersistCorruption describes deterministic damage applied to an amnesiac
// node's durable log at recovery time (a torn tail record, flipped bits) to
// exercise the replay-truncate recovery path. Attach via
// Scenario.PersistCorrupt.
type PersistCorruption = persist.Corruption

// InvariantConfig selects the runtime invariant checks (agreement, validity,
// detector soundness, overlay recovery) a run performs. The zero value
// disables them all.
type InvariantConfig = invariant.Config

// InvariantViolation is one detected invariant breach, reported in
// Result.Violations alongside a reproducing command line in Result.Repro.
type InvariantViolation = invariant.Violation

// ParseFaultPlan decodes a JSON fault plan.
func ParseFaultPlan(data []byte) (*FaultPlan, error) { return faultplan.Parse(data) }

// LoadFaultPlan reads and decodes a JSON fault-plan file.
func LoadFaultPlan(path string) (*FaultPlan, error) { return faultplan.Load(path) }

// LoadGenConfig is a deterministic load-generator schedule: ramped or
// stepped offered load over concurrent senders with a payload-size sweep,
// under open-loop (periodic/Poisson) or closed-loop arrivals. Attached to
// Scenario.LoadGen it replaces the fixed-rate Workload; it round-trips
// through JSON (see ParseLoadGen) for use with `bbsim -load`.
type LoadGenConfig = loadgen.Config

// LoadGenStep is one segment of a LoadGenConfig schedule: an offered rate
// (optionally ramping linearly to EndRate) held for a duration.
type LoadGenStep = loadgen.Step

// Load-generator arrival models.
const (
	// ArrivalPeriodic injects at evenly spaced intervals.
	ArrivalPeriodic = loadgen.Periodic
	// ArrivalPoisson draws open-loop Poisson arrivals at the scheduled rate.
	ArrivalPoisson = loadgen.Poisson
	// ArrivalClosedLoop keeps a window of messages outstanding per sender,
	// injecting the next when a quorum of nodes delivers the previous.
	ArrivalClosedLoop = loadgen.ClosedLoop
)

// ParseLoadGen decodes and validates a JSON load-generator schedule.
func ParseLoadGen(data []byte) (*LoadGenConfig, error) { return loadgen.Parse(data) }

// LoadLoadGen reads and decodes a JSON load-generator schedule file.
func LoadLoadGen(path string) (*LoadGenConfig, error) { return loadgen.Load(path) }

// DefaultInvariantConfig enables the full invariant set with default
// windows; DefaultScenario already includes it.
func DefaultInvariantConfig() InvariantConfig { return invariant.DefaultConfig() }

// ReproCommand renders a one-line bbsim invocation reproducing the scenario,
// fault plan and load schedule included. If the scenario sets a field no bbsim
// flag spells, the line ends in a shell comment naming it.
func ReproCommand(sc Scenario) string { return runner.ReproCommand(sc) }

// ScenarioFlags registers on fs every bbsim flag that describes a Scenario
// (-n, -proto, -mute, -faults, …: the same list ReproCommand prints from) and
// returns the function that yields the scenario once fs has parsed. Adversary
// flags add nodes in command-line order.
func ScenarioFlags(fs *flag.FlagSet) func() (Scenario, error) { return runner.ScenarioFlags(fs) }

// DefaultScenario returns the base experiment configuration: 75 nodes on a
// jittered grid in a 1000×1000 m area with 250 m radios, five senders
// injecting one 256-byte message per second for a minute.
func DefaultScenario() Scenario { return runner.DefaultScenario() }

// DefaultProtocolConfig returns the protocol parameters used throughout the
// paper's experiments.
func DefaultProtocolConfig() ProtocolConfig { return core.DefaultConfig() }

// DefaultRadioConfig returns 802.11b-flavoured physical parameters.
func DefaultRadioConfig() RadioConfig { return radio.DefaultConfig() }

// DefaultMACConfig returns 802.11b-flavoured CSMA parameters.
func DefaultMACConfig() MACConfig { return mac.DefaultConfig() }

// Run executes a simulation scenario and returns its results. Runs are
// deterministic in Scenario.Seed.
func Run(sc Scenario) (Result, error) { return runner.Run(sc) }

// ReplicateSeed derives the seed for replicate k of a base seed (SplitMix64;
// replicate 0 keeps the base). Replicate streams are decorrelated and depend
// only on (base, k), never on how many workers execute them.
func ReplicateSeed(base int64, k int) int64 { return runner.ReplicateSeed(base, k) }

// RunReplicates executes count independent replicates of the scenario (seeds
// derived by ReplicateSeed) across a pool of workers — GOMAXPROCS when
// workers <= 0 — and returns per-replicate results in replicate order. Each
// simulation stays single-threaded; per-replicate results are bit-identical
// at any worker count.
func RunReplicates(sc Scenario, count, workers int) ([]Result, error) {
	return runner.Pool{Workers: workers}.RunReplicates(sc, count)
}

// AverageResults reduces per-replicate results to their mean (ratios and
// latencies become per-replicate means, counters mean counts). Violations
// and fault events are concatenated, not averaged.
func AverageResults(rs []Result) Result { return runner.Average(rs) }

// NewHMACKeyring returns the fast symmetric simulation keyring: node keys
// are derived deterministically from seed and verification consults an
// omniscient registry standing in for the PKI. Use it for simulations and
// tests; use NewEd25519Keyring for real deployments.
func NewHMACKeyring(n int, seed int64) Keyring { return sig.NewHMAC(n, seed) }

// NewEd25519Keyring returns a keyring of real Ed25519 keys for node ids
// 0..n-1, derived deterministically from seed.
func NewEd25519Keyring(n int, seed int64) (Keyring, error) { return sig.NewEd25519(n, seed) }

// GenerateKeystores writes one node-<id>.keys.json per node into dir — each
// device's private key plus the full PKI — for real deployments (see also
// cmd/bbkeys).
func GenerateKeystores(dir string, n int, seed int64) error {
	return sig.GenerateKeystores(dir, n, seed)
}

// LoadKeystore reads one node's key file; the result is a Keyring that can
// sign only as that node and verify everyone.
func LoadKeystore(path string) (Keyring, error) { return sig.LoadKeystore(path) }
