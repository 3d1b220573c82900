//bbvet:wallclock traced benchmark runs: wall-clock accounting around simulator runs

package main

import (
	"time"

	"bbcast/internal/core"
	"bbcast/internal/mac"
	"bbcast/internal/radio"
	"bbcast/internal/wire"
)

// ledger sums, over the cells of one traced simulator workload, what the
// per-layer metrics are computed from.
type ledger struct {
	cells       int
	simSeconds  float64
	events      uint64
	injected    int
	accepted    int
	recovered   uint64
	violations  int
	phys        radio.Stats
	node        core.Stats
	macStats    mac.Stats
	txByKind    [wire.NumKinds + 1]uint64
	rxByKind    [wire.NumKinds + 1]uint64
	bytesByKind [wire.NumKinds + 1]uint64
	verifiesOK  uint64
	verifiesBad uint64
	verifyWall  time.Duration
	signs       uint64
	raised      uint64
	cleared     uint64
	roleChanges uint64
	overlay     int
	detected    int
	obsCalls    uint64
	queueWaits  []time.Duration
	tracedWall  time.Duration // whole traced runs
	engineWall  time.Duration // Engine.Run alone, traced
	refWall     time.Duration // the same cells through runner.Run, untraced
}

func (l *ledger) addRun(cell simCell, r simRun) {
	l.cells++
	l.simSeconds += cell.sc.Duration.Seconds()
	l.events += r.stats.Events
	l.injected += r.stats.Injected
	l.accepted += r.stats.Accepted
	l.recovered += r.obs.recovered
	l.violations += r.stats.Violations
	addCounters(&l.phys, r.stats.Phys)
	addCounters(&l.node, r.stats.Node)
	for k := range l.txByKind {
		l.txByKind[k] += r.obs.txByKind[k]
		l.rxByKind[k] += r.obs.rxByKind[k]
	}
	l.verifiesOK += r.obs.verifiesOK
	l.verifiesBad += r.obs.verifiesBad
	l.verifyWall += r.obs.verifyWall
	l.raised += r.obs.raised
	l.cleared += r.obs.cleared
	l.roleChanges += r.obs.roleChanges
	l.obsCalls += r.obs.calls
	l.detected += r.res.AdversariesDetected
}

func (l *ledger) addRig(cell simCell, r rigRun) {
	l.addRun(cell, r.simRun)
	addCounters(&l.macStats, r.macStats)
	for k := range l.bytesByKind {
		l.bytesByKind[k] += r.bytesByKind[k]
	}
	l.signs += r.signs
	l.overlay += r.overlaySize
	l.queueWaits = append(l.queueWaits, r.queueWaits...)
	l.tracedWall += r.cost.wall
	l.engineWall += r.engineWall
}

// emitCounts reports the metrics that come from counters the program
// returns; they are the same whether the cells ran in the rig or through
// runner.Run.
func (l *ledger) emitCounts(res *result) {
	injected := float64(l.injected)
	res.set("sim.events", float64(l.events))
	res.set("sim.events_per_sim_s", ratio(float64(l.events), l.simSeconds))
	res.set("runner.wall_ms_per_sim_s", ratio(ms(l.refWall), l.simSeconds))

	p := l.phys
	lost := float64(p.Collisions + p.FringeLosses + p.HalfDuplexDrop + p.BurstLosses + p.AsymLosses)
	res.set("radio.transmissions", float64(p.Transmissions))
	res.set("radio.deliveries", float64(p.Deliveries))
	res.set("radio.collisions", float64(p.Collisions))
	res.set("radio.fringe_losses", float64(p.FringeLosses))
	res.set("radio.halfduplex_drops", float64(p.HalfDuplexDrop))
	res.set("radio.burst_losses", float64(p.BurstLosses))
	res.set("radio.rx_per_tx", ratio(float64(p.Deliveries), float64(p.Transmissions)))
	res.set("radio.loss_share", ratio(lost, lost+float64(p.Deliveries)))
	res.set("radio.air_kb_per_msg", ratio(float64(p.BytesOnAir)/1024, injected))

	var frames, bytes uint64
	for k := range l.txByKind {
		frames += l.txByKind[k]
		bytes += l.bytesByKind[k]
	}
	for k := 1; k <= wire.NumKinds; k++ {
		name := frameShareNames[wire.Kind(k).String()]
		res.add("wire.frame_share."+name, ratio(float64(l.txByKind[k]), float64(frames)))
		res.add("wire.air_byte_share."+name, ratio(float64(l.bytesByKind[k]), float64(bytes)))
	}

	verifies := float64(l.verifiesOK + l.verifiesBad)
	res.set("sig.signs", float64(l.signs))
	res.set("sig.verifies_ok", float64(l.verifiesOK))
	res.set("sig.verifies_bad", float64(l.verifiesBad))
	res.set("sig.dedup_skips", float64(l.node.DedupSkips))
	res.set("sig.verifies_per_accept", ratio(verifies, float64(l.node.Accepted)))

	setCoreStats(res, l.node)
	res.set("core.duplicate_share", ratio(float64(l.node.Duplicates), float64(l.rxByKind[wire.KindData])))
	res.set("core.recovery_share", ratio(float64(l.recovered), float64(l.accepted)))

	res.set("overlay.size", ratio(float64(l.overlay), float64(l.cells)))
	res.set("overlay.role_changes", float64(l.roleChanges))
	res.set("fd.suspicions_raised", float64(l.raised))
	res.set("fd.suspicions_cleared", float64(l.cleared))
	res.set("fd.adversaries_detected", float64(l.detected))
	res.set("obsv.calls", float64(l.obsCalls))
	res.set("obsv.calls_per_event", ratio(float64(l.obsCalls), float64(l.events)))
	res.set("invariant.violations", float64(l.violations))
	res.set("loadgen.injected", injected)
}

// emitOutcome reports the simulated outcome figures that are not end-to-end
// metrics: p99, sample count, the interpolated knee and top-rate goodput.
func emitOutcome(res *result, w simWorkload, agg simAggregate) {
	res.set("runner.lat_p99_ms", quantile(agg.lats, 0.99))
	res.set("runner.lat_samples", float64(len(agg.lats)))
	res.set("runner.sat_goodput_msgs_per_s", agg.goodput)
	if len(agg.points) > 1 {
		res.set("runner.knee_msgs_per_s", knee(agg.points, kneeThreshold))
	}
	res.Attempted, res.Failed = int64(agg.attempted), int64(agg.attempted-agg.accepted)
	w.checkInvariants(res, agg)
}

// kneeThreshold is the delivery ratio an offered load must sustain to count
// as below the knee (experiments.KneeThreshold).
const kneeThreshold = 0.95

// runSimTraced produces the ledger of sim-steady or sim-knee: every cell runs
// through runner.Run (the untraced reference) and through the rig, and the
// rig must reproduce the reference before anything is reported.
func runSimTraced(w simWorkload, opts runOpts) (*result, error) {
	res := newResult(w.name, opts)
	cells := w.build(opts.seed)
	if err := warmUp(cells[0]); err != nil {
		return nil, err
	}
	tr := newTracer()
	var l ledger
	runs := make([]simRun, len(cells))
	rt0 := readRuntime()
	for i, cell := range cells {
		ref, err := runCell(cell)
		if err != nil {
			return nil, err
		}
		rig, err := runRig(cell.sc, tr)
		if err != nil {
			return nil, err
		}
		if diff := equivalent(rig.stats, ref.stats); diff != "" {
			res.fail("%s: the rig has drifted from runner.Run: %s", cell.name, diff)
		}
		l.refWall += ref.cost.wall
		l.addRig(cell, rig)
		runs[i] = rig.simRun
	}
	rt1 := readRuntime()
	if !res.Correct {
		return res, nil // no ledger for a different program
	}

	l.emitCounts(res)
	emitOutcome(res, w, aggregateSim(cells, runs))
	res.set("runner.run_wall_ms", ms(l.engineWall))
	res.set("runner.trace_overhead_pct", 100*(ratio(ms(l.tracedWall), ms(l.refWall))-1))
	res.set("runner.gc_cpu_share", rt1.gcShare(rt0))
	res.set("runner.peak_rss_mb", peakRSSMiB())
	res.set("runner.spans_recorded", float64(len(tr.spans)))
	res.set("sim.substrate_self_ms", ms(l.engineWall-tr.selfTotal()))
	res.set("mac.sent", float64(l.macStats.Sent))
	res.set("mac.deferrals", float64(l.macStats.Deferrals))
	res.set("mac.dropped", float64(l.macStats.Dropped))
	res.set("mac.deferrals_per_frame", ratio(float64(l.macStats.Deferrals), float64(l.macStats.Sent)))
	res.set("mac.send_self_ms", ms(tr.self[spanMacSend]))
	waits := durationsToSortedMS(l.queueWaits)
	res.set("mac.queue_wait_sim_ms_p50", quantile(waits, 0.50))
	res.set("mac.queue_wait_sim_ms_p99", quantile(waits, 0.99))
	res.set("sig.verify_ms", ms(tr.self[spanVerify]))
	res.set("sig.sign_ms", ms(tr.self[spanSign]))
	for k := 1; k <= wire.NumKinds; k++ {
		res.add("core.handle_self_ms."+handlerName(wire.Kind(k)), ms(tr.self[k]))
	}
	res.set("core.timer_self_ms", ms(tr.self[spanTimer]))
	res.set("core.timer_calls", float64(tr.calls[spanTimer]))
	res.set("core.broadcast_self_ms", ms(tr.self[spanBroadcast]))
	res.set("obsv.self_ms", ms(tr.self[spanObsv]))
	setIso(res)
	res.note("cells=%d seam spans=%d kept=%d; seams %.1f ms + substrate %.1f ms = Engine.Run %.1f ms",
		len(cells), tr.total, len(tr.spans), ms(tr.selfTotal()), ms(l.engineWall-tr.selfTotal()), ms(l.engineWall))
	if opts.spans != "" {
		if err := tr.writeSpans(opts.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// handlerName maps a packet kind to its core.handle_self_ms suffix; both sync
// kinds report as "sync".
func handlerName(k wire.Kind) string {
	if k == wire.KindSyncReq || k == wire.KindSyncResp {
		return "sync"
	}
	return k.String()
}

// runHostileTraced is sim-hostile's ledger. The workload needs the runner's
// unexported fault scheduler and adversary placement, so it stays on
// runner.Run with the counting observer: counts and the verify time
// core.verify itself measures are exact; the sign and handler times are
// count × isolated unit cost, an estimate. The traced run is the untraced
// program (same observer), so it has no tracing overhead to report.
func runHostileTraced(opts runOpts) (*result, error) {
	w := simHostile
	res := newResult(w.name, opts)
	cells := w.build(opts.seed)
	if err := warmUp(cells[0]); err != nil {
		return nil, err
	}
	var l ledger
	runs := make([]simRun, len(cells))
	rt0 := readRuntime()
	for i, cell := range cells {
		run, err := runCell(cell)
		if err != nil {
			return nil, err
		}
		l.addRun(cell, run)
		l.refWall += run.cost.wall
		l.overlay += run.res.OverlaySize
		// One signature per data and header of a broadcast, one per
		// overlay-state record sent (the rig confirms this count on
		// sim-steady); frames a crashed radio swallowed are not seen.
		l.signs += uint64(2*run.stats.Injected) + run.obs.txByKind[wire.KindGossip] + run.obs.txByKind[wire.KindOverlayState]
		runs[i] = run
	}
	rt1 := readRuntime()

	l.emitCounts(res)
	emitOutcome(res, w, aggregateSim(cells, runs))
	iso := setIso(res)
	res.set("runner.run_wall_ms", ms(l.refWall))
	res.set("runner.gc_cpu_share", rt1.gcShare(rt0))
	res.set("runner.peak_rss_mb", peakRSSMiB())
	res.set("sig.verify_ms", ms(l.verifyWall))
	res.set("sig.sign_ms", float64(l.signs)*iso["sig.sign_us_iso.ed25519"]/1e3)
	fresh := float64(l.node.Accepted) - float64(l.injected)
	res.set("core.handle_self_ms.data", (fresh*iso["core.handle_ns_iso.data-new"]+float64(l.node.Duplicates)*iso["core.handle_ns_iso.data-dup"])/1e6)
	res.note("cells=%d; sig.sign_ms and core.handle_self_ms.data are estimates (count x isolated unit cost); sig.verify_ms is measured", len(cells))
	return res, nil
}
