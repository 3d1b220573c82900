// Package runner assembles complete simulated networks — radio, MAC,
// protocol instances, adversaries and workload — runs them, and collects
// results. It is the engine behind the public bbcast API, the example
// programs and the benchmark harness.
package runner

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"bbcast/internal/baseline"
	"bbcast/internal/byzantine"
	"bbcast/internal/core"
	"bbcast/internal/env"
	"bbcast/internal/faultplan"
	"bbcast/internal/fd"
	"bbcast/internal/geo"
	"bbcast/internal/invariant"
	"bbcast/internal/loadgen"
	"bbcast/internal/mac"
	"bbcast/internal/metrics"
	"bbcast/internal/mobility"
	"bbcast/internal/obsv"
	"bbcast/internal/overlay"
	"bbcast/internal/persist"
	"bbcast/internal/radio"
	"bbcast/internal/sig"
	"bbcast/internal/sim"
	"bbcast/internal/trace"
	"bbcast/internal/viz"
	"bbcast/internal/wire"
)

// Protocol selects the dissemination protocol under test.
type Protocol int

// Protocols.
const (
	ProtoByzCast Protocol = iota + 1 // the paper's protocol
	ProtoFlooding
	ProtoFPlusOne
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	if name := spell(protocolNames, p); name != "" {
		return name
	}
	return "proto(?)"
}

// MobilityKind selects the movement model.
type MobilityKind int

// Mobility kinds.
const (
	MobGrid MobilityKind = iota + 1 // jittered grid, static (repeatable connectivity)
	MobUniform
	MobWaypoint
	MobWalk
	// MobFerry partitions the network into two static clusters joined only
	// by a shuttling ferry node (id N-1); N should be odd. Realizes the
	// paper's footnote-7 weakened connectivity.
	MobFerry
	// MobGaussMarkov is smooth temporally-correlated motion.
	MobGaussMarkov
)

// AdversaryPlacement selects where adversaries are placed.
type AdversaryPlacement int

// Placements.
const (
	// PlaceSpread distributes adversaries across the id space (default).
	PlaceSpread AdversaryPlacement = iota
	// PlaceDominators puts adversaries on the nodes the ID-based election
	// will make overlay dominators (greedy max-ID MIS over the ground-truth
	// topology) — the paper's worst case of Byzantine overlay nodes
	// (Figure 5).
	PlaceDominators
)

// AdversaryKind selects a Byzantine behaviour.
type AdversaryKind int

// Adversary kinds. adversaryNames spells each in byzantine.Make's vocabulary.
const (
	AdvMute       AdversaryKind = iota + 1
	AdvMuteSilent               // also suppresses gossip advertisements
	AdvVerbose
	AdvTamper
	AdvSelective
	// AdvEquivocate signs conflicting payloads for its own messages — the
	// attack the agreement invariant exists to catch.
	AdvEquivocate
	// AdvFlooder spams fresh validly-signed messages far above the workload
	// rate (resource exhaustion, not an agreement attack).
	AdvFlooder
	// AdvReplayer re-transmits harvested packets verbatim.
	AdvReplayer
	// AdvForgeSpammer sends junk signatures from nonexistent origins.
	AdvForgeSpammer
)

var adversaryNames = [...]string{
	AdvMute: "mute", AdvMuteSilent: "mute-silent", AdvVerbose: "verbose", AdvTamper: "tamper",
	AdvSelective: "selective-drop", AdvEquivocate: "equivocate", AdvFlooder: "flooder",
	AdvReplayer: "replayer", AdvForgeSpammer: "forge-spammer",
}

// Adversaries places Count nodes with the given behaviour. Adversaries are
// spread across the area (grid placement maps ids to positions) at the
// locally highest ids, which the ID-based overlay election favours as
// dominators — the paper's worst case of Byzantine overlay nodes (Figure 5).
type Adversaries struct {
	Kind  AdversaryKind
	Count int
}

// Workload describes traffic injection.
type Workload struct {
	// Senders is how many distinct correct nodes originate messages
	// (round-robin). They are taken from the lowest ids.
	Senders int
	// Rate is the network-wide injection rate δ in messages/second.
	Rate float64
	// PayloadSize is the application payload in bytes.
	PayloadSize int
	// Start and End bound the injection window.
	Start, End time.Duration
	// Poisson, when set, draws exponential inter-arrival gaps (rate Rate)
	// instead of a fixed period.
	Poisson bool
}

// Scenario is a complete experiment description.
type Scenario struct {
	Name string
	Seed int64

	N     int
	Area  geo.Rect
	Radio radio.Config
	MAC   mac.Config

	Mobility MobilityKind
	// Speed is the node speed (m/s) for waypoint/walk mobility.
	Speed float64
	// Pause is the waypoint pause time.
	Pause time.Duration

	Protocol Protocol
	// Core configures the paper's protocol (ProtoByzCast).
	Core core.Config
	// F is the tolerated failure count for ProtoFPlusOne (f+1 overlays).
	F int
	// UseEd25519 switches from the fast simulation signature scheme to
	// real Ed25519.
	UseEd25519 bool

	Adversaries []Adversaries
	// Placement selects where adversaries are put (see AdversaryPlacement).
	Placement AdversaryPlacement
	Workload  Workload
	// LoadGen, when non-nil, replaces Workload with a load-generator
	// schedule: stepped/ramped offered load over many senders, payload-size
	// sweeps, and periodic, Poisson or closed-loop arrivals — all seeded
	// from the engine so runs stay bit-identical serial vs pool.
	LoadGen *loadgen.Config
	// LatencyBucket, when positive, fills Result.Timeline with latency
	// statistics bucketed by message injection time.
	LatencyBucket time.Duration
	// SnapshotSVG, when non-empty, writes an SVG rendering of the final
	// topology and overlay to this path.
	SnapshotSVG string
	// Trace, when non-nil, receives a JSON line per simulation event
	// (transmissions, receptions, injections, acceptances, role changes,
	// suspicions, fault events).
	Trace io.Writer
	// Observer, when non-nil, receives every protocol and transport event of
	// the run alongside the built-in consumers (e.g. an obsv.RegistryObserver
	// so a simulation exports the same metrics schema as a live node).
	Observer obsv.Observer
	// Duration is the total simulated time (allow drain past Workload.End).
	Duration time.Duration

	// FaultPlan, when non-nil, is the chaos schedule executed during the
	// run: crashes, recoveries, partitions, radio degradation, behaviour
	// swaps and churn, all deterministic per seed.
	FaultPlan *faultplan.Plan
	// PersistCorrupt, when non-nil and Core.Persist is on, damages each
	// amnesiac node's durable device (seeded, deterministic) at recovery,
	// before the device is re-opened — exercising torn-write and bit-flip
	// replay recovery under churn.
	PersistCorrupt *persist.Corruption
	// Invariants selects the runtime invariant checks. The zero value
	// disables them; DefaultScenario enables the full set. Checks that do
	// not apply to the configured protocol (overlay recovery for flooding,
	// validity without the recovery machinery) are gated off automatically.
	Invariants invariant.Config
}

// DefaultScenario returns the base configuration the experiments perturb:
// 75 nodes on a jittered grid in 1000×1000 m, 250 m range, one message per
// second for 60 s.
func DefaultScenario() Scenario {
	return Scenario{
		Name:     "default",
		Seed:     1,
		N:        75,
		Area:     geo.Rect{W: 1000, H: 1000},
		Radio:    radio.DefaultConfig(),
		MAC:      mac.DefaultConfig(),
		Mobility: MobGrid,
		Protocol: ProtoByzCast,
		Core:     core.DefaultConfig(),
		F:        2,
		Workload: Workload{
			Senders:     5,
			Rate:        1,
			PayloadSize: 256,
			Start:       15 * time.Second,
			End:         75 * time.Second,
		},
		Duration:   85 * time.Second,
		Invariants: invariant.DefaultConfig(),
	}
}

// broadcaster is what the runner needs from any protocol under test.
type broadcaster interface {
	Broadcast(payload []byte) wire.MsgID
	HandlePacket(pkt *wire.Packet)
	Stop()
	Stats() core.Stats
}

// Result bundles the metrics summary with lower-layer statistics.
type Result struct {
	metrics.Results
	Phys radio.Stats
	// Node aggregates the protocol counters over all nodes.
	Node core.Stats
	// AdversariesDetected is how many correct nodes ended the run
	// distrusting at least one genuinely Byzantine node (FD effectiveness).
	AdversariesDetected int
	// Timeline is filled when Scenario.LatencyBucket is set.
	Timeline []metrics.Bucket
	// NumCorrect is how many nodes count as correct for metrics and
	// invariants: not adversarial at t=0 and never swapped to a faulty
	// behaviour by the fault plan.
	NumCorrect int
	// FaultEvents is the timestamped log of fault-plan events that fired,
	// in firing order — the timeline to correlate delivery dips against.
	FaultEvents []FaultRecord
	// Violations are the invariant breaches detected during the run. A
	// violated run still returns metrics; callers decide whether to fail.
	Violations []invariant.Violation
	// Repro, set when Violations is non-empty, is a one-line bbsim command
	// (seed, scenario and inline fault plan) that reproduces the failure.
	Repro string
	// TraceErr is the first trace-encoding error, if the run's trace was
	// lossy (only set when Scenario.Trace was configured).
	TraceErr error
	// Events is how many discrete simulation events the engine fired during
	// the run — the denominator for the ns/event and allocs/event figures the
	// benchmark harness reports.
	Events uint64
}

// FaultRecord is one fault-plan event that fired during the run.
type FaultRecord struct {
	At   time.Duration
	Name string
}

// Run executes the scenario and returns its results.
func Run(sc Scenario) (Result, error) { return run(sc, hooks{}) }

// hooks are run's seams. They are a parameter, never shared state: concurrent
// runs cannot see each other's.
type hooks struct {
	// inspect, when set, sees the protocol instances after the run and before
	// teardown (see RunInspect).
	inspect func(protos []*core.Protocol)
	// scheme, when set, builds the run's signature scheme in place of
	// buildScheme. Tests only: it is how they run on the bare Ed25519 keyring
	// or count what reaches it.
	scheme func(Scenario) (sig.Scheme, error)
}

// run is Run with hooks.
func run(sc Scenario, h hooks) (Result, error) {
	if sc.N <= 0 {
		return Result{}, fmt.Errorf("runner: scenario needs N > 0, got %d", sc.N)
	}
	if sc.Duration <= 0 {
		return Result{}, fmt.Errorf("runner: scenario needs a positive duration")
	}
	if sc.LoadGen != nil {
		if err := sc.LoadGen.Validate(); err != nil {
			return Result{}, err
		}
	}
	given := sc // as the caller spelt it; what follows fills in and normalises
	if sc.Radio.Range <= 0 {
		sc.Radio = radio.DefaultConfig()
	}
	if sc.MAC.Slot <= 0 {
		sc.MAC = mac.DefaultConfig()
	}

	eng := sim.New(sc.Seed)
	model := buildMobility(sc)
	if sc.Mobility == MobGrid || sc.Mobility == MobUniform {
		sc.Radio.PosUpdate = 0 // static: skip position refresh events
	}
	medium := radio.New(eng, model, sc.N, sc.Radio)
	defer medium.Close()

	build := buildScheme
	if h.scheme != nil {
		build = h.scheme
	}
	scheme, err := build(sc)
	if err != nil {
		return Result{}, err
	}

	collector := metrics.NewCollector()
	var tracer *trace.Writer
	var traceObs obsv.Observer
	if sc.Trace != nil {
		tracer = trace.NewWriter(sc.Trace)
		traceObs = trace.NewObserver(tracer)
	}

	behaviors, err := assignAdversaries(sc, eng, medium, scheme)
	if err != nil {
		return Result{}, err
	}
	correct := make([]bool, sc.N)
	for i := range correct {
		_, isAdv := behaviors[wire.NodeID(i)]
		correct[i] = !isAdv
	}

	var planEvents []faultplan.Event
	if sc.FaultPlan != nil {
		if err := sc.FaultPlan.Validate(sc.N); err != nil {
			return Result{}, err
		}
		// Churn expansion draws from a dedicated substream so the schedule
		// is deterministic per seed without touching the engine stream.
		planEvents = sc.FaultPlan.Expanded(eng.SubRand(0xfa17), sc.N)
		// A node the plan ever turns faulty is conservatively not "correct"
		// for the whole run, for both metrics and invariants.
		for _, id := range sc.FaultPlan.SwapTargets() {
			correct[id] = false
		}
	}
	numCorrect := 0
	for _, c := range correct {
		if c {
			numCorrect++
		}
	}

	protos := make([]broadcaster, sc.N)
	macs := make([]*mac.MAC, sc.N)
	switchables := make([]*byzantine.Switchable, sc.N)
	clock := env.SimClock{Eng: eng}

	// Durable state: one in-memory device per node when persistence is on.
	// Devices survive amnesiac crashes; the fault scheduler re-opens them
	// (replay-truncate recovery) when the node rejoins.
	var devices []*persist.MemDevice
	if sc.Core.Persist && sc.Protocol == ProtoByzCast {
		devices = make([]*persist.MemDevice, sc.N)
	}

	chk := buildChecker(sc, eng, medium, protos, correct)

	// The closed-loop load driver listens on the observer chain: it counts
	// correct-node accepts towards per-message quorums and self-clocks the
	// next injection.
	var loadDriver *loadgen.Driver
	var loadObs obsv.Observer
	if sc.LoadGen != nil && sc.LoadGen.Arrival == loadgen.ClosedLoop {
		loadDriver = loadgen.NewDriver(*sc.LoadGen, numCorrect-1)
		loadObs = loadDriver
	}

	// One composite observer receives every event exactly once from the
	// emitting layer; accepts at non-correct nodes are filtered out so they
	// never count towards delivery (mirroring the old per-node wiring).
	obs := obsv.Multi(collector, traceObs, invariant.AsObserver(chk), loadObs, sc.Observer)
	advObs := obsv.SkipAccepts(obs)
	medium.OnTransmit = func(from wire.NodeID, pkt *wire.Packet) {
		obs.OnPacketTx(eng.Now(), from, pkt.Kind, pkt.ID(), pkt.Meta)
	}

	// Behaviour ticks run for t=0 adversaries and for any node a fault plan
	// may swap to an active behaviour later. (Correct.Tick is a no-op, so the
	// extra loops change nothing until the swap fires.)
	needsTick := make(map[wire.NodeID]bool, len(behaviors))
	for id := range behaviors {
		needsTick[id] = true
	}
	for _, e := range planEvents {
		if e.Kind == faultplan.SwapBehavior {
			needsTick[e.Node] = true
		}
	}

	var fpOverlays [][]int
	if sc.Protocol == ProtoFPlusOne {
		// Overlays are built from solid links only (inside the fringe-free
		// radius): a CDS whose edges sit in the lossy fringe is connected
		// on paper but black-holes in practice.
		solid := sc.Radio.Range * sc.Radio.FringeStart
		if solid <= 0 {
			solid = sc.Radio.Range
		}
		fpOverlays = baseline.DisjointOverlays(adjacency(medium, sc.N, solid), sc.F)
	}

	for i := 0; i < sc.N; i++ {
		id := wire.NodeID(i)
		macs[i] = mac.New(eng, medium, id, eng.SubRand(uint64(i)), sc.MAC)
		behavior := byzantine.NewSwitchable(behaviorFor(behaviors, id))
		switchables[i] = behavior
		m := macs[i]
		send := func(pkt *wire.Packet) {
			if out := behavior.FilterSend(pkt); out != nil {
				m.Send(out)
			}
		}
		deps := core.Deps{
			ID:     id,
			Clock:  clock,
			Send:   send,
			Scheme: scheme,
			Rand:   eng.SubRand(uint64(i) + 1<<32),
			Obs:    advObs,
		}
		if correct[i] {
			deps.Obs = obs
			// The no-op upcall marks an application as attached, so
			// originators still count their own deliveries;
			// measurement itself rides on the observer.
			deps.Deliver = func(wire.NodeID, wire.MsgID, []byte) {}
		}
		if devices != nil {
			devices[i] = &persist.MemDevice{}
			st, err := persist.Open(devices[i])
			if err != nil {
				return Result{}, fmt.Errorf("runner: persist: node %d: %w", i, err)
			}
			deps.Store = st
		}
		switch sc.Protocol {
		case ProtoFlooding:
			protos[i] = baseline.NewFlooding(deps)
		case ProtoFPlusOne:
			var memberOf []int
			for c, members := range fpOverlays {
				for _, v := range members {
					if v == i {
						memberOf = append(memberOf, c)
					}
				}
			}
			protos[i] = baseline.NewFPlusOne(deps, sc.F, memberOf)
		default:
			protos[i] = core.New(sc.Core, deps)
		}
		p := protos[i]
		medium.Attach(id, func(pkt *wire.Packet) {
			behavior.OnReceive(pkt)
			p.HandlePacket(pkt)
		})
		if needsTick[id] {
			b := behavior
			eng.Every(byzantine.TickInterval, func() { b.Tick(m.Send) })
		}
	}

	var faultEvents []FaultRecord
	if len(planEvents) > 0 {
		eng.OnEpoch(func(ep sim.Epoch) {
			name := strings.TrimPrefix(ep.Name, "fault:")
			faultEvents = append(faultEvents, FaultRecord{At: ep.At, Name: name})
			if chk != nil {
				chk.OnFault(name, ep.At)
			}
			if tracer != nil {
				tracer.Emit(trace.Event{
					T: trace.At(ep.At), Type: trace.TypeFault, Detail: name,
				})
			}
		})
		if err := scheduleFaultPlan(sc, eng, medium, protos, devices, switchables, scheme, chk, planEvents); err != nil {
			return Result{}, err
		}
	}

	scheduleWorkload(sc, eng, protos, correct, obs, loadDriver)

	eng.Run(sc.Duration)

	if chk != nil {
		chk.Finish(eng.Now())
	}

	if h.inspect != nil {
		cores := make([]*core.Protocol, sc.N)
		for i := range protos {
			cores[i], _ = protos[i].(*core.Protocol)
		}
		h.inspect(cores)
	}

	res := Result{Phys: medium.Stats(), FaultEvents: faultEvents, NumCorrect: numCorrect, TraceErr: tracer.Err(), Events: eng.Processed()}
	if chk != nil {
		res.Violations = chk.Violations()
		if len(res.Violations) > 0 {
			res.Repro = ReproCommand(given)
		}
	}
	res.Results = collector.Summarize(sc.Protocol.String(), sc.N, func(origin wire.NodeID) int {
		if correct[origin] {
			return numCorrect - 1
		}
		return numCorrect
	})
	res.Results.BytesOnAir = medium.Stats().BytesOnAir
	res.Results.Collisions = medium.Stats().Collisions
	if sc.LatencyBucket > 0 {
		res.Timeline = collector.Timeline(sc.LatencyBucket)
	}
	if sc.SnapshotSVG != "" {
		if err := writeSnapshot(sc, medium, protos, behaviors); err != nil {
			return res, fmt.Errorf("runner: snapshot: %w", err)
		}
	}

	for i := 0; i < sc.N; i++ {
		res.Node.Add(protos[i].Stats())
		if cp, ok := protos[i].(*core.Protocol); ok {
			if cp.InOverlay() {
				res.Results.OverlaySize++
			}
			if correct[i] && distrustsAnAdversary(cp, behaviors) {
				res.AdversariesDetected++
			}
		}
		protos[i].Stop()
		macs[i].Stop()
	}
	if sc.Protocol == ProtoFPlusOne {
		for _, ov := range fpOverlays {
			res.Results.OverlaySize += len(ov)
		}
	}
	return res, nil
}

func distrustsAnAdversary(p *core.Protocol, behaviors map[wire.NodeID]byzantine.Behavior) bool {
	// Sorted: Level can emit suspicion transitions (lazy expiry), and the
	// early return below would otherwise make even the emitted *set* depend
	// on map iteration order.
	ids := make([]wire.NodeID, 0, len(behaviors))
	for id := range behaviors {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, advID := range ids {
		if p.Trust().Level(advID) != fd.Trusted {
			return true
		}
	}
	return false
}

func buildMobility(sc Scenario) mobility.Model {
	switch sc.Mobility {
	case MobUniform:
		return mobility.NewUniformStatic(sc.Area, sc.N, sc.Seed)
	case MobWaypoint:
		minSpeed := sc.Speed / 2
		if minSpeed <= 0 {
			minSpeed = 0.5
		}
		return mobility.NewRandomWaypoint(sc.Area, sc.N, minSpeed, sc.Speed, sc.Pause, sc.Seed)
	case MobWalk:
		return mobility.NewRandomWalk(sc.Area, sc.N, sc.Speed, 2*time.Second, sc.Seed)
	case MobFerry:
		speed := sc.Speed
		if speed <= 0 {
			speed = 30
		}
		return mobility.NewFerry(sc.Area, (sc.N-1)/2, speed, sc.Seed)
	case MobGaussMarkov:
		return mobility.NewGaussMarkov(sc.Area, sc.N, 0.85, sc.Speed, sc.Speed/3, time.Second, sc.Seed)
	default:
		return mobility.NewGridStatic(sc.Area, sc.N, 0.35, sc.Seed)
	}
}

// buildScheme returns the run's one omniscient keyring. Every simulated
// receiver of a shared frame asks it the same pure question, so the Ed25519
// keyring sits behind a verdict memo and verifies each distinct record once
// per run instead of once per receiver. HMAC does not: hashing a frame to look
// its verdict up costs what the HMAC costs.
func buildScheme(sc Scenario) (sig.Scheme, error) {
	if sc.UseEd25519 {
		ed, err := sig.NewEd25519(sc.N, sc.Seed)
		if err != nil {
			return nil, err
		}
		return sig.NewVerifyMemo(ed), nil
	}
	return sig.NewHMAC(sc.N, sc.Seed), nil
}

// assignAdversaries spreads the configured behaviours across the id space,
// starting from the top id and stepping so adversaries land in distinct
// regions of the (id-ordered) placement.
func assignAdversaries(sc Scenario, eng *sim.Engine, medium *radio.Medium, scheme sig.Scheme) (map[wire.NodeID]byzantine.Behavior, error) {
	out := make(map[wire.NodeID]byzantine.Behavior)
	total := 0
	for _, a := range sc.Adversaries {
		if a.Kind <= 0 || int(a.Kind) >= len(adversaryNames) {
			return nil, fmt.Errorf("runner: unknown adversary kind %d", a.Kind)
		}
		total += a.Count
	}
	if total == 0 {
		return out, nil
	}
	var order []wire.NodeID
	if sc.Placement == PlaceDominators {
		order = greedyMIS(medium, sc.N)
	}
	step := sc.N / total
	if step < 1 {
		step = 1
	}
	next := sc.N - 1
	mi := 0
	pick := func() wire.NodeID {
		// Prefer would-be dominators (descending id), then spread.
		for mi < len(order) {
			id := order[mi]
			mi++
			if _, taken := out[id]; !taken {
				return id
			}
		}
		for next >= 0 {
			id := wire.NodeID(next)
			next -= step
			if _, taken := out[id]; !taken {
				return id
			}
		}
		// Wrap around for dense adversary counts.
		for i := sc.N - 1; i >= 0; i-- {
			if _, taken := out[wire.NodeID(i)]; !taken {
				return wire.NodeID(i)
			}
		}
		return wire.NoNode
	}
	for _, a := range sc.Adversaries {
		for k := 0; k < a.Count; k++ {
			id := pick()
			if id == wire.NoNode {
				break
			}
			// Substream 2<<32 here, 3<<32 for a fault plan's swaps, so a
			// node swapped mid-run draws from a stream of its own.
			b, err := byzantine.Make(adversaryNames[a.Kind], id,
				eng.SubRand(uint64(id)+2<<32), signerFor(scheme, id))
			if err != nil {
				return nil, fmt.Errorf("runner: %w", err)
			}
			out[id] = b
		}
	}
	return out, nil
}

func behaviorFor(m map[wire.NodeID]byzantine.Behavior, id wire.NodeID) byzantine.Behavior {
	if b, ok := m[id]; ok {
		return b
	}
	return byzantine.Correct{}
}

// writeSnapshot renders the end-of-run topology to the configured SVG path.
func writeSnapshot(sc Scenario, medium *radio.Medium, protos []broadcaster, behaviors map[wire.NodeID]byzantine.Behavior) error {
	snap := viz.Snapshot{
		Area:  sc.Area,
		Range: sc.Radio.Range,
	}
	for i := 0; i < sc.N; i++ {
		id := wire.NodeID(i)
		node := viz.Node{ID: id, Pos: medium.Pos(id), Role: overlay.Passive}
		if cp, ok := protos[i].(*core.Protocol); ok {
			node.Role = cp.Role()
		}
		_, node.Adversary = behaviors[id]
		snap.Nodes = append(snap.Nodes, node)
		for _, j := range medium.Neighbors(id) {
			if j > id {
				snap.Links = append(snap.Links, [2]wire.NodeID{id, j})
			}
		}
	}
	f, err := os.Create(sc.SnapshotSVG)
	if err != nil {
		return err
	}
	if err := viz.Render(f, snap); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// greedyMIS computes the maximal independent set the ID-based election
// converges to on the initial ground-truth topology, highest ids first.
func greedyMIS(medium *radio.Medium, n int) []wire.NodeID {
	inMIS := make(map[wire.NodeID]bool, n)
	var out []wire.NodeID
	for i := n - 1; i >= 0; i-- {
		id := wire.NodeID(i)
		blocked := false
		for _, nb := range medium.Neighbors(id) {
			if nb > id && inMIS[nb] {
				blocked = true
				break
			}
		}
		if !blocked {
			inMIS[id] = true
			out = append(out, id)
		}
	}
	return out
}

// adjacency snapshots ground-truth connectivity up to the given link length
// (used by the f+1 baseline's setup-time overlay construction).
func adjacency(medium *radio.Medium, n int, maxDist float64) [][]bool {
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		pi := medium.Pos(wire.NodeID(i))
		for _, j := range medium.Neighbors(wire.NodeID(i)) {
			if pi.Dist(medium.Pos(j)) <= maxDist {
				adj[i][j] = true
				adj[j][i] = true
			}
		}
	}
	return adj
}

// scheduleWorkload injects messages per the scenario's workload description:
// the load-generator schedule when Scenario.LoadGen is set, the simple
// fixed-rate workload otherwise. All OnInject emissions live here (and in
// closures created here), the simulator's source of OnInject in DESIGN's
// emission table.
func scheduleWorkload(sc Scenario, eng *sim.Engine, protos []broadcaster, correct []bool, obs obsv.Observer, loadDriver *loadgen.Driver) {
	if sc.LoadGen != nil {
		cfg := *sc.LoadGen
		var senders []int
		for i := 0; i < len(protos) && len(senders) < cfg.Senders; i++ {
			if correct[i] {
				senders = append(senders, i)
			}
		}
		if len(senders) == 0 {
			return
		}
		// One payload buffer per configured size, cycled per injection so a
		// single run sweeps payload sizes deterministically.
		payloads := make([][]byte, len(cfg.PayloadSizes))
		for i, sz := range cfg.PayloadSizes {
			p := make([]byte, sz)
			for j := range p {
				p[j] = byte(j)
			}
			payloads[i] = p
		}
		k := 0
		inject := func(slot int) (wire.MsgID, wire.NodeID) {
			sender := senders[slot%len(senders)]
			p := payloads[k%len(payloads)]
			k++
			id := protos[sender].Broadcast(p)
			if obs != nil {
				obs.OnInject(eng.Now(), wire.NodeID(sender), id)
			}
			return id, wire.NodeID(sender)
		}
		if cfg.Arrival == loadgen.ClosedLoop {
			loadDriver.Bind(eng.Now, func(at time.Duration, fn func()) { eng.At(at, fn) }, inject)
			loadDriver.Start()
			return
		}
		// Open loop: the whole arrival schedule is materialized up front
		// from a dedicated RNG substream; senders round-robin by arrival.
		for i, at := range cfg.Times(eng.SubRand(0x10adc3)) {
			slot := i
			eng.At(at, func() { inject(slot) })
		}
		return
	}

	w := sc.Workload
	if w.Rate <= 0 || w.Senders <= 0 {
		return
	}
	var senders []int
	for i := 0; i < len(protos) && len(senders) < w.Senders; i++ {
		if correct[i] {
			senders = append(senders, i)
		}
	}
	if len(senders) == 0 {
		return
	}
	interval := time.Duration(float64(time.Second) / w.Rate)
	payload := make([]byte, w.PayloadSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	rng := eng.SubRand(0xb0ad)
	k := 0
	for at := w.Start; at < w.End; {
		sender := senders[k%len(senders)]
		k++
		eng.At(at, func() {
			id := protos[sender].Broadcast(payload)
			if obs != nil {
				obs.OnInject(eng.Now(), wire.NodeID(sender), id)
			}
		})
		if w.Poisson {
			at += time.Duration(rng.ExpFloat64() * float64(interval))
		} else {
			at += interval
		}
	}
}

// RunInspect is Run with a post-run inspection hook over the core protocol
// instances (nil entries for baseline protocols); used by tests and the
// experiment harness to sample internal state before teardown.
func RunInspect(sc Scenario, inspect func(protos []*core.Protocol)) (Result, error) {
	return run(sc, hooks{inspect: inspect})
}
