//bbvet:wallclock benchmark harness: times deterministic simulator runs with the wall clock; nothing read here reaches the simulation

package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"bbcast/internal/core"
	"bbcast/internal/faultplan"
	"bbcast/internal/invariant"
	"bbcast/internal/loadgen"
	"bbcast/internal/obsv"
	"bbcast/internal/overlay"
	"bbcast/internal/radio"
	"bbcast/internal/runner"
	"bbcast/internal/wire"
)

// simCell is one (scenario, seed) run of a simulator workload.
type simCell struct {
	name string
	sc   runner.Scenario
	// rate is the offered load in msg/s (sim-knee groups cells by it).
	rate float64
	// window is the injection window, the goodput denominator.
	window time.Duration
	// latFocus cells feed delivery_ratio and the latency quantiles;
	// goodputFocus cells feed goodput_msgs_per_s. sim-knee reads the former
	// at 16 msg/s and the latter at 32 msg/s; the other workloads use every
	// cell for both.
	latFocus, goodputFocus bool
}

const (
	steadySeeds  = 16
	hostileSeeds = 6
	kneeFocus    = 16.0
	kneeTop      = 32.0
)

// kneeGrid maps each offered rate to its replicate count. The rates the
// end-to-end metrics read get more seeds than the ones only the interpolated
// knee uses.
var kneeGrid = []struct {
	rate  float64
	seeds int
}{{8, 1}, {12, 1}, {16, 6}, {20, 1}, {24, 1}, {28, 1}, {32, 2}}

func steadyCells(seed int64) []simCell {
	cells := make([]simCell, steadySeeds)
	for k := range cells {
		sc := runner.DefaultScenario()
		sc.Seed = runner.ReplicateSeed(seed, k)
		cells[k] = simCell{
			name: fmt.Sprintf("steady/r%d", k), sc: sc,
			rate: sc.Workload.Rate, window: sc.Workload.End - sc.Workload.Start,
			latFocus: true, goodputFocus: true,
		}
	}
	return cells
}

// kneeScenario is E16's open-loop shape (internal/experiments/knee.go) built
// from the default scenario.
func kneeScenario(rate float64, seed int64) runner.Scenario {
	const (
		start  = 15 * time.Second
		window = 30 * time.Second
		drain  = 15 * time.Second
	)
	sc := runner.DefaultScenario()
	sc.Seed = seed
	sc.N = 50
	sc.Invariants = invariant.Config{}
	sc.Workload = runner.Workload{}
	sc.LoadGen = &loadgen.Config{
		Senders:      25,
		PayloadSizes: []int{256},
		Arrival:      loadgen.Poisson,
		Start:        start,
		Steps:        []loadgen.Step{{Rate: rate, Duration: window}},
	}
	sc.Duration = start + window + drain
	return sc
}

func kneeCells(seed int64) []simCell {
	var cells []simCell
	k := 0
	for _, g := range kneeGrid {
		for r := 0; r < g.seeds; r++ {
			sc := kneeScenario(g.rate, runner.ReplicateSeed(seed, k))
			k++
			cells = append(cells, simCell{
				name: fmt.Sprintf("knee/%g/r%d", g.rate, r), sc: sc,
				rate: g.rate, window: sc.LoadGen.End() - sc.LoadGen.Start,
				latFocus: g.rate == kneeFocus, goodputFocus: g.rate == kneeTop,
			})
		}
	}
	return cells
}

func hostileCells(seed int64) []simCell {
	cells := make([]simCell, hostileSeeds)
	for k := range cells {
		sc := runner.DefaultScenario()
		sc.Seed = runner.ReplicateSeed(seed, k)
		sc.N = 50
		// 40 s of traffic instead of 60: a run costs ≈2 s of host time, mostly
		// Ed25519 verification of the periodic overlay-state records, and more
		// seeds steady the pooled quantiles better than longer runs.
		sc.Workload.End = 55 * time.Second
		sc.Duration = 65 * time.Second
		sc.UseEd25519 = true
		sc.Core.Persist = true
		sc.Core.CatchUpSync = true
		sc.Adversaries = []runner.Adversaries{
			{Kind: runner.AdvMute, Count: 3},
			{Kind: runner.AdvForgeSpammer, Count: 1},
		}
		senders := make([]wire.NodeID, sc.Workload.Senders)
		for i := range senders {
			senders[i] = wire.NodeID(i)
		}
		sc.FaultPlan = &faultplan.Plan{
			Events: []faultplan.Event{{
				At: 20 * time.Second, Kind: faultplan.BurstLoss, Duration: 30 * time.Second,
				LossFactor: 1, MeanBad: 2 * time.Second, MeanGood: 4 * time.Second,
			}},
			Churn: &faultplan.Churn{
				Rate: 0.1, Start: sc.Workload.Start, End: sc.Workload.End,
				Downtime: 14 * time.Second, Wipe: true, Exclude: senders,
			},
		}
		cells[k] = simCell{
			name: fmt.Sprintf("hostile/r%d", k), sc: sc,
			rate: sc.Workload.Rate, window: sc.Workload.End - sc.Workload.Start,
			latFocus: true, goodputFocus: true,
		}
	}
	return cells
}

// simObserver rides on Scenario.Observer. It pools inject→accept latencies
// in virtual time (first accept per correct receiver, the originator's own
// excluded) and counts the events the ledger reports.
type simObserver struct {
	injectAt map[wire.MsgID]time.Duration
	seen     map[wire.MsgID]map[wire.NodeID]struct{}
	lats     []time.Duration

	calls       uint64
	recovered   uint64
	rxByKind    [wire.NumKinds + 1]uint64
	txByKind    [wire.NumKinds + 1]uint64
	verifiesOK  uint64
	verifiesBad uint64
	verifyWall  time.Duration
	raised      uint64
	cleared     uint64
	roleChanges uint64
}

var _ obsv.Observer = (*simObserver)(nil)

func newSimObserver() *simObserver {
	return &simObserver{
		injectAt: make(map[wire.MsgID]time.Duration),
		seen:     make(map[wire.MsgID]map[wire.NodeID]struct{}),
	}
}

func kindIndex(k wire.Kind) int {
	if int(k) > wire.NumKinds {
		return 0
	}
	return int(k)
}

func (o *simObserver) OnPacketTx(_ time.Duration, _ wire.NodeID, kind wire.Kind, _ wire.MsgID, _ wire.Meta) {
	o.calls++
	o.txByKind[kindIndex(kind)]++
}

func (o *simObserver) OnPacketRx(_ time.Duration, _ wire.NodeID, kind wire.Kind, _ wire.MsgID, _ wire.Meta) {
	o.calls++
	o.rxByKind[kindIndex(kind)]++
}

func (o *simObserver) OnInject(at time.Duration, _ wire.NodeID, id wire.MsgID) {
	o.calls++
	o.injectAt[id] = at
}

func (o *simObserver) OnAccept(at time.Duration, node wire.NodeID, id wire.MsgID, _ []byte, meta wire.Meta) {
	o.calls++
	injected, ok := o.injectAt[id]
	if !ok || node == id.Origin {
		return
	}
	nodes := o.seen[id]
	if nodes == nil {
		nodes = make(map[wire.NodeID]struct{})
		o.seen[id] = nodes
	}
	if _, dup := nodes[node]; dup {
		return // a wiped node re-accepting pre-crash traffic
	}
	nodes[node] = struct{}{}
	o.lats = append(o.lats, at-injected)
	if meta.Recovered {
		o.recovered++
	}
}

func (o *simObserver) OnForwardSuppressed(time.Duration, wire.NodeID, wire.MsgID, wire.Meta) {
	o.calls++
}

func (o *simObserver) OnRoleChange(time.Duration, wire.NodeID, overlay.Role) {
	o.calls++
	o.roleChanges++
}

func (o *simObserver) OnSuspicion(_ time.Duration, _, _ wire.NodeID, _ obsv.Detector, raised bool) {
	o.calls++
	if raised {
		o.raised++
	} else {
		o.cleared++
	}
}

func (o *simObserver) OnSigVerify(_ time.Duration, _ wire.NodeID, ok bool, took time.Duration) {
	o.calls++
	if ok {
		o.verifiesOK++
	} else {
		o.verifiesBad++
	}
	o.verifyWall += took
}

func (o *simObserver) OnQueueDepth(time.Duration, wire.NodeID, obsv.Queue, int) { o.calls++ }

func (o *simObserver) OnAdmission(time.Duration, wire.NodeID, obsv.AdmissionEvent) { o.calls++ }

func (o *simObserver) OnAdaptation(time.Duration, wire.NodeID, obsv.AdaptiveTimer, time.Duration, time.Duration) {
	o.calls++
}

func (o *simObserver) OnRetry(time.Duration, wire.NodeID, wire.MsgID, int, bool) { o.calls++ }

func (o *simObserver) OnSync(time.Duration, wire.NodeID, wire.NodeID, obsv.SyncEvent, int, int) {
	o.calls++
}

func (o *simObserver) OnRejoin(time.Duration, wire.NodeID, int) { o.calls++ }

// simStats is everything one run's outcome is compared on: between passes of
// the same seed, and between the traced rig and runner.Run.
type simStats struct {
	Events     uint64
	Phys       radio.Stats
	Node       core.Stats
	Injected   int
	Delivery   float64
	Accepted   int
	LatSum     time.Duration
	Violations int
	// Safety counts the violations of agreement, at-most-once and the state
	// and timer bounds: the ones no fault plan excuses.
	Safety int
}

// simRun is one executed cell.
type simRun struct {
	stats      simStats
	obs        *simObserver
	res        runner.Result
	attempted  int
	numCorrect int
	cost       hostCost
}

func newSimRun(res runner.Result, obs *simObserver, cost hostCost) simRun {
	var latSum time.Duration
	for _, l := range obs.lats {
		latSum += l
	}
	safety := 0
	for _, v := range res.Violations {
		switch v.Invariant {
		case "validity", "detector-soundness", "overlay-recovery":
		default:
			safety++
		}
	}
	return simRun{
		stats: simStats{
			Events: res.Events, Phys: res.Phys, Node: res.Node,
			Injected: res.Injected, Delivery: res.DeliveryRatio,
			Accepted: len(obs.lats), LatSum: latSum, Violations: len(res.Violations), Safety: safety,
		},
		obs: obs, res: res, cost: cost,
		attempted:  res.Injected * (res.NumCorrect - 1),
		numCorrect: res.NumCorrect,
	}
}

// runCell executes one cell through runner.Run on the calling goroutine.
func runCell(cell simCell) (simRun, error) {
	obs := newSimObserver()
	sc := cell.sc
	sc.Observer = obs
	runtime.GC()
	before := readHost()
	res, err := runner.Run(sc)
	cost := readHost().since(before)
	if err != nil {
		return simRun{}, fmt.Errorf("%s: %w", cell.name, err)
	}
	return newSimRun(res, obs, cost), nil
}

// warmUp runs the head of one cell untimed, so code and heap are faulted in
// before the first timed run; it is part of set-up.
func warmUp(cell simCell) error {
	sc := cell.sc
	if sc.Duration > 40*time.Second {
		sc.Duration = 40 * time.Second
	}
	_, err := runner.Run(sc)
	return err
}

const setupRepeats = 3

// simSetup builds the cells and warms up, setupRepeats times over, and
// returns the median time one set-up took. The first sample is counted from
// process start.
func simSetup(build func(int64) []simCell, seed int64) ([]simCell, float64, error) {
	var cells []simCell
	samples := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		cells = build(seed)
		if err := warmUp(cells[0]); err != nil {
			return nil, 0, err
		}
		samples = append(samples, time.Since(start).Seconds())
	}
	return cells, median(samples), nil
}

// runSimUntraced is the end-to-end measurement of a simulator workload: the
// cells are run serially on this goroutine for about opts.seconds.
func runSimUntraced(w simWorkload, opts runOpts) (*result, error) {
	cells, setupS, err := simSetup(w.build, opts.seed)
	if err != nil {
		return nil, err
	}
	res := newResult(w.name, opts)

	// Every cell runs once. Then cells are re-run in order until the time is
	// used, at least one, and each re-run must repeat the first run's
	// simulated statistics.
	first := make([]simRun, len(cells))
	costs := make([][]hostCost, len(cells))
	begin := time.Now()
	for i, cell := range cells {
		if first[i], err = runCell(cell); err != nil {
			return nil, err
		}
		costs[i] = append(costs[i], first[i].cost)
	}
	reruns := 0
	for ; reruns == 0 || time.Since(begin) < opts.seconds; reruns++ {
		i := reruns % len(cells)
		again, err := runCell(cells[i])
		if err != nil {
			return nil, err
		}
		costs[i] = append(costs[i], again.cost)
		if again.stats != first[i].stats {
			res.fail("%s: simulated statistics differ between two runs of the same seed", cells[i].name)
		}
	}

	agg := aggregateSim(cells, first)
	w.checkInvariants(res, agg)
	res.Attempted, res.Failed = int64(agg.attempted), int64(agg.attempted-agg.accepted)

	var wall, cpu, mallocs, bytes float64
	for i := range cells {
		wall += medianOf(costs[i], func(c hostCost) float64 { return ms(c.wall) })
		cpu += medianOf(costs[i], func(c hostCost) float64 { return ms(c.cpu) })
		mallocs += medianOf(costs[i], func(c hostCost) float64 { return c.mallocs })
		bytes += medianOf(costs[i], func(c hostCost) float64 { return c.bytes })
	}
	injected := float64(agg.injected)
	res.set("setup_s", setupS)
	res.set("delivery_ratio", agg.delivery)
	res.set("lat_p50_ms", quantile(agg.lats, 0.50))
	res.set("lat_tail_ms", quantile(agg.lats, w.tailQ))
	res.set("tx_per_msg", ratio(float64(agg.transmissions), injected))
	res.set("goodput_msgs_per_s", agg.goodput)
	res.set("cpu_ms_per_msg", ratio(cpu, injected))
	res.set("allocs_per_msg", ratio(mallocs, injected))
	res.set("alloc_kb_per_msg", ratio(bytes/1024, injected))
	res.note("cells=%d reruns=%d injected=%d lat_samples=%d p99=%.3f sim_s=%.0f wall_ms_per_sim_s=%.3f",
		len(cells), reruns, agg.injected, len(agg.lats), quantile(agg.lats, 0.99), agg.simSeconds, ratio(wall, agg.simSeconds))
	return res, nil
}

func medianOf(costs []hostCost, f func(hostCost) float64) float64 {
	vs := make([]float64, len(costs))
	for i, c := range costs {
		vs[i] = f(c)
	}
	return median(vs)
}

// simAggregate pools the simulated outcomes of one pass.
type simAggregate struct {
	injected      int
	attempted     int
	accepted      int
	transmissions uint64
	bytesOnAir    uint64
	violations    int
	safety        int
	simSeconds    float64
	delivery      float64   // accepted ÷ attempted pairs over the latFocus cells
	lats          []float64 // sorted ms, latFocus cells pooled
	goodput       float64   // mean over goodputFocus cells
	points        []ratePoint
}

func aggregateSim(cells []simCell, runs []simRun) simAggregate {
	var a simAggregate
	var focusAttempted, focusAccepted int
	var pooled []time.Duration
	var goodputSum float64
	var goodputCells int
	byRate := make(map[float64][]float64)
	for i, cell := range cells {
		r := runs[i]
		a.injected += r.stats.Injected
		a.attempted += r.attempted
		a.accepted += r.stats.Accepted
		a.transmissions += r.stats.Phys.Transmissions
		a.bytesOnAir += r.stats.Phys.BytesOnAir
		a.violations += r.stats.Violations
		a.safety += r.stats.Safety
		a.simSeconds += cell.sc.Duration.Seconds()
		byRate[cell.rate] = append(byRate[cell.rate], ratio(float64(r.stats.Accepted), float64(r.attempted)))
		if cell.latFocus {
			focusAttempted += r.attempted
			focusAccepted += r.stats.Accepted
			pooled = append(pooled, r.obs.lats...)
		}
		if cell.goodputFocus && r.numCorrect > 1 {
			// Σ over messages of the accepted share = accepted pairs ÷ eligible receivers.
			goodputSum += float64(r.stats.Accepted) / float64(r.numCorrect-1) / cell.window.Seconds()
			goodputCells++
		}
	}
	a.delivery = ratio(float64(focusAccepted), float64(focusAttempted))
	a.lats = durationsToSortedMS(pooled)
	a.goodput = ratio(goodputSum, float64(goodputCells))
	for rate, ds := range byRate {
		var sum float64
		for _, d := range ds {
			sum += d
		}
		a.points = append(a.points, ratePoint{Rate: rate, Delivery: sum / float64(len(ds))})
	}
	sort.Slice(a.points, func(i, j int) bool { return a.points[i].Rate < a.points[j].Rate })
	return a
}

// simWorkload describes one simulator workload.
type simWorkload struct {
	name  string
	build func(seed int64) []simCell
	// invariants says the runtime checker is on. A safety violation
	// (agreement, at-most-once, state or timer bounds) then fails the run.
	invariants bool
	// liveness says the liveness checks (validity, detector soundness,
	// overlay recovery) fail the run too. sim-hostile leaves it off: under
	// burst loss plus churn a message whose origin's every link was down
	// can miss the checker's 90 % floor (one cell in sixty here), and those
	// deliveries already count as failed operations.
	liveness bool
	// tailQ is the quantile lat_tail_ms reads. It is p99 where gossip
	// recovery sets the tail. On sim-hostile p99 sits among the deliveries to
	// crashed nodes, whose latency is the fault plan's 14 s downtime and not
	// the program's doing, so the tail is read at p90: recovery through
	// burst loss.
	tailQ float64
}

var (
	simSteady  = simWorkload{name: "sim-steady", build: steadyCells, invariants: true, liveness: true, tailQ: 0.99}
	simKnee    = simWorkload{name: "sim-knee", build: kneeCells, tailQ: 0.99}
	simHostile = simWorkload{name: "sim-hostile", build: hostileCells, invariants: true, tailQ: 0.90}
)

// checkInvariants fails the run on the violations the workload does not
// tolerate and notes the ones it does.
func (w simWorkload) checkInvariants(res *result, agg simAggregate) {
	if !w.invariants {
		return
	}
	fatal := agg.safety
	if w.liveness {
		fatal = agg.violations
	}
	if fatal > 0 {
		res.fail("%d invariant violations", fatal)
	} else if agg.violations > 0 {
		res.note("%d liveness violations under the fault plan (their deliveries count as failed operations)", agg.violations)
	}
}

func runSimSteady(opts runOpts) (*result, error) {
	if opts.trace {
		return runSimTraced(simSteady, opts)
	}
	return runSimUntraced(simSteady, opts)
}

func runSimKnee(opts runOpts) (*result, error) {
	if opts.trace {
		return runSimTraced(simKnee, opts)
	}
	return runSimUntraced(simKnee, opts)
}

func runSimHostile(opts runOpts) (*result, error) {
	if opts.trace {
		return runHostileTraced(opts)
	}
	return runSimUntraced(simHostile, opts)
}
