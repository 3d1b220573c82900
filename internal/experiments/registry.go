package experiments

import (
	"fmt"
	"time"

	"bbcast/internal/faultplan"
	"bbcast/internal/loadgen"
	"bbcast/internal/overlay"
	"bbcast/internal/runner"
	"bbcast/internal/wire"
)

// registry is the suite, in the order `bbexp -all` prints it. It is the only
// list of experiment ids: All, ByID, IDs, the tests and the benchmarks all
// read it. Every scenario starts from Config.base (n=75 unless the table
// sweeps or sets the size).
var registry = []experiment{
	// Transmissions per message vs. network size for the three protocols.
	// Expected shape: ByzCast's data cost tracks the (flat) overlay size while
	// flooding grows linearly with n; the f+1 baseline pays (f+1) overlays.
	{
		id: "E1", title: "message overhead vs. network size (failure-free)",
		params: "1000x1000 m, range 250 m, rate 1 msg/s, f=2",
		header: []string{"n", "protocol", "tx/msg", "data/msg", "gossip/msg", "bytes/msg", "delivery", "hops-p50", "rec-share"},
		plan:   func(c Config) []cell { return cross(c.base(), c.sizes(), allThree) },
		render: perCell(txPerMsg, dataPerMsg,
			func(r runner.Result) string { return perMsg(r.TxByKind[wire.KindGossip], r.Injected) },
			bytesPerMsg, delivery, hopP50, recShare),
	},
	{
		id: "E2", title: "delivery ratio vs. network size (failure-free)",
		params: "as E1",
		header: []string{"n", "byzcast", "flooding", "f+1"},
		plan:   func(c Config) []cell { return cross(c.base(), c.sizes(), hidden(allThree)) },
		render: perGroup(3, delivery),
	},
	{
		id: "E3", title: "dissemination latency vs. network size (failure-free)",
		params: "as E1; milliseconds",
		header: []string{"n", "protocol", "mean", "p50", "p95", "max"},
		plan:   func(c Config) []cell { return cross(c.base(), c.sizes(), byzVsFlood) },
		render: perCell(latMean, latP50, latP95, func(r runner.Result) string { return ms(r.LatMax) }),
	},
	// The paper's central claim: gossip recovery keeps delivery high under
	// mute Byzantine overlay nodes where a pure overlay (or flooding with
	// losses) degrades.
	{
		id: "E4", title: "delivery under mute Byzantine overlay nodes",
		params: "n=75, mute nodes placed on would-be dominators",
		header: []string{"mute", "byzcast+fd", "byzcast-fd", "flooding", "detected(+fd)"},
		plan: func(c Config) []cell {
			return cross(c.base(), c.muteCounts(), []arm{
				{},
				{set: func(sc *runner.Scenario) { sc.Core.EnableFDs = false }},
				{set: func(sc *runner.Scenario) { sc.Protocol = runner.ProtoFlooding }},
			})
		},
		render: func(cells []cell, res []runner.Result) (rows [][]string) {
			for i := 0; i < len(cells); i += 3 {
				rows = append(rows, cells[i].row(delivery(res[i]), delivery(res[i+1]), delivery(res[i+2]), detected(res[i])))
			}
			return rows
		},
	},
	// Recovery latency under mute failures, with and without the detectors.
	{
		id: "E5", title: "latency under mute Byzantine overlay nodes (ms)",
		params: "n=75, dominator placement; FDs evict mute nodes from the overlay",
		header: []string{"mute", "mean(+fd)", "p95(+fd)", "mean(-fd)", "p95(-fd)"},
		plan: func(c Config) []cell {
			return cross(c.base(func(sc *runner.Scenario) {
				if !c.Quick {
					sc.Workload.End = 90 * time.Second
					sc.Duration = 105 * time.Second
				}
			}), c.muteCounts(), hidden(fdsOnOff))
		},
		render: perGroup(2, latMean, latP95),
	},
	{
		id: "E6", title: "overlay maintainers: CDS vs MIS+B",
		params: "failure-free",
		header: []string{"n", "overlay", "size", "tx/msg", "delivery", "lat-p95(ms)"},
		plan: func(c Config) []cell {
			return cross(c.base(), c.sizes(), arms([]overlay.Kind{overlay.CDS, overlay.MISB},
				func(k overlay.Kind) string { return overlay.New(k).Name() },
				func(sc *runner.Scenario, k overlay.Kind) { sc.Core.Overlay = k }))
		},
		render: perCell(func(r runner.Result) string { return itoa(r.OverlaySize) }, txPerMsg, delivery, latP95),
	},
	// Per-kind transmission counts, failure-free vs. under mute attack —
	// where the protocol's overhead goes.
	{
		id: "E7", title: "transmission breakdown by packet kind",
		params: "n=75",
		header: []string{"scenario", "data", "gossip", "request", "find-missing", "total"},
		plan: func(c Config) []cell {
			return cross(c.base(), []arm{{label: "failure-free"}, {"8 mute dominators", mute(8)}})
		},
		render: perCell(txOf(wire.KindData), txOf(wire.KindGossip), txOf(wire.KindRequest), txOf(wire.KindFindMissing),
			func(r runner.Result) string { return u64(r.TotalTx) }),
	},
	{
		id: "E8", title: "mobility: delivery and latency vs. node speed",
		params: "n=75, random waypoint, pause 2 s",
		header: []string{"speed(m/s)", "protocol", "delivery", "lat-mean(ms)", "lat-p95(ms)"},
		plan: func(c Config) []cell {
			speeds := arms(sweep(c, []float64{0, 1, 5, 10, 20}, []float64{0, 10}), f1, func(sc *runner.Scenario, speed float64) {
				if speed > 0 {
					sc.Mobility = runner.MobWaypoint
					sc.Speed = speed
					sc.Pause = 2 * time.Second
				}
			})
			return cross(c.base(), speeds, byzVsFlood)
		},
		render: perCell(delivery, latMean, latP95),
	},
	// The damage of verbose (request-spam) attackers with and without the
	// VERBOSE failure detector.
	{
		id: "E9", title: "verbose attackers: reaction traffic with and without FDs",
		params: "n=75; spammers replay valid requests",
		header: []string{"verbose", "arm", "tx/msg", "delivery", "detected"},
		plan: func(c Config) []cell {
			spammers := arms(sweep(c, []int{0, 1, 3, 5}, []int{0, 3}), itoa, func(sc *runner.Scenario, n int) {
				infiltrate(sc, runner.AdvVerbose, n, runner.PlaceSpread)
			})
			return cross(c.base(), spammers, fdsOnOff)
		},
		render: perCell(txPerMsg, delivery, detected),
	},
	// The §1 claim: the f+1-overlays baseline pays (f+1)× while ByzCast's
	// failure-free cost is one overlay regardless of f.
	{
		id: "E10", title: "cost scaling vs. tolerated failures f (failure-free)",
		params: "n=75; byzcast row is f-independent (tolerates any f with one correct node per neighbourhood)",
		header: []string{"protocol", "f", "tx/msg", "data/msg", "delivery"},
		plan: func(c Config) []cell {
			fs := arms(sweep(c, []int{0, 1, 2, 3, 4}, []int{0, 2}), itoa, func(sc *runner.Scenario, f int) {
				sc.Protocol = runner.ProtoFPlusOne
				sc.F = f
			})
			return append(cross(c.base(), []arm{{label: "byzcast"}}, []arm{{label: "any"}}),
				cross(c.base(), []arm{{label: "f+1"}}, fs)...)
		},
		render: perCell(txPerMsg, dataPerMsg, delivery),
	},
	// The §1 optimization of aggregating several signature advertisements
	// into one gossip packet.
	{
		id: "A1", title: "ablation: gossip aggregation",
		params: "n=75, rate 5 msg/s (aggregation matters under load)",
		header: []string{"aggregation", "gossip-packets", "tx/msg", "bytes/msg", "delivery"},
		plan: func(c Config) []cell {
			return cross(c.base(func(sc *runner.Scenario) { sc.Workload.Rate = 5 }),
				toggle(true, onOff, func(sc *runner.Scenario, on bool) { sc.Core.GossipAggregation = on }))
		},
		render: perCell(txOf(wire.KindGossip), txPerMsg, bytesPerMsg, delivery),
	},
	// Without the gossip-request recovery path the overlay's holes go
	// unfilled (the cost of an efficient overlay that §1 warns about).
	{
		id: "A2", title: "ablation: gossip recovery under mute attack",
		params: "n=75, 8 mute dominators",
		header: []string{"recovery", "delivery", "lat-p95(ms)", "tx/msg"},
		plan: func(c Config) []cell {
			return cross(c.base(mute(8)), toggle(true, onOff, func(sc *runner.Scenario, on bool) { sc.Core.EnableRecovery = on }))
		},
		render: perCell(delivery, latP95, txPerMsg),
	},
	// The TTL-2 FIND_MISSING_MSG escalation bypasses a Byzantine overlay hop.
	{
		id: "A3", title: "ablation: TTL-2 find-missing escalation under mute attack",
		params: "n=75, 8 mute dominators",
		header: []string{"find-missing", "delivery", "lat-mean(ms)", "lat-p95(ms)"},
		plan: func(c Config) []cell {
			return cross(c.base(mute(8)), toggle(true, onOff, func(sc *runner.Scenario, on bool) { sc.Core.EnableFindMissing = on }))
		},
		render: perCell(delivery, latMean, latP95),
	},
	// The simulation HMAC scheme against real Ed25519 signatures end to end:
	// results should match; the wall-clock cost differs.
	{
		id: "A4", title: "ablation: signature scheme",
		params: "n=50",
		header: []string{"scheme", "delivery", "tx/msg", "lat-p95(ms)"},
		plan: func(c Config) []cell {
			return cross(c.base(func(sc *runner.Scenario) { sc.N = 50 }), toggle(false,
				func(ed bool) string {
					if ed {
						return "ed25519"
					}
					return "hmac-sim"
				},
				func(sc *runner.Scenario, ed bool) { sc.UseEd25519 = ed }))
		},
		render: perCell(delivery, txPerMsg, latP95),
	},
	// The protocol's fixed beaconing cost amortizes as the injection rate δ
	// grows, which is where the message-count advantage over flooding appears
	// (§1's "small number of messages" claim is about loaded networks).
	{
		id: "A5", title: "injection rate sweep: overhead amortization",
		params: "n=75; tx/msg includes beacons, data/msg is dissemination only",
		header: []string{"rate(msg/s)", "protocol", "tx/msg", "data/msg", "delivery"},
		plan: func(c Config) []cell {
			rates := arms(sweep(c, []float64{0.5, 1, 2, 5, 10}, []float64{1, 5}), f1,
				func(sc *runner.Scenario, rate float64) { sc.Workload.Rate = rate })
			return cross(c.base(), rates, byzVsFlood)
		},
		render: perCell(txPerMsg, dataPerMsg, delivery),
	},
	{
		id: "A6", title: "tampering forwarders: signatures catch corruption",
		params: "n=75, tamperers corrupt every forwarded payload",
		header: []string{"tamperers", "delivery", "bad-signatures", "detected"},
		plan: func(c Config) []cell {
			return cross(c.base(), arms(sweep(c, []int{0, 3, 6}, []int{0, 3}), itoa, func(sc *runner.Scenario, n int) {
				infiltrate(sc, runner.AdvTamper, n, runner.PlaceDominators)
			}))
		},
		render: perCell(delivery, func(r runner.Result) string { return u64(r.Node.BadSignatures) }, detected),
	},
	// The paper's two failure-detector classes under mute attack: interval
	// detectors (I_mute: suspicions age out and heal false positives — the
	// practical choice for long-running systems, §2.2) versus
	// eventually-perfect-style detectors (◇P_mute: suspicions never expire —
	// faster convergence, but a false suspicion from radio loss is permanent).
	{
		id: "A7", title: "failure-detector class: interval vs eventually-perfect",
		params: "n=75, 8 mute dominators",
		header: []string{"class", "delivery", "lat-mean(ms)", "lat-p95(ms)", "detected"},
		plan: func(c Config) []cell {
			return cross(c.base(mute(8)), []arm{{label: "interval (aging)"}, {"eventually-perfect", func(sc *runner.Scenario) {
				sc.Core.Mute.SuspicionTTL = 0
				sc.Core.Mute.AgeInterval = 0
				sc.Core.Verbose.SuspicionTTL = 0
				sc.Core.Verbose.AgeInterval = 0
				sc.Core.Trust.DirectTTL = 0
				sc.Core.Trust.ReportTTL = 0
			}}})
		},
		render: perCell(delivery, latMean, latP95, detected),
	},
	// Burstiness stresses the MAC and the recovery path.
	{
		id: "A8", title: "traffic model: periodic vs Poisson arrivals",
		params: "n=75, mean rate 2 msg/s",
		header: []string{"arrivals", "delivery", "lat-mean(ms)", "lat-p95(ms)", "collisions"},
		plan: func(c Config) []cell {
			return cross(c.base(func(sc *runner.Scenario) { sc.Workload.Rate = 2 }), toggle(false,
				func(poisson bool) string {
					if poisson {
						return "poisson"
					}
					return "periodic"
				},
				func(sc *runner.Scenario, poisson bool) { sc.Workload.Poisson = poisson }))
		},
		render: perCell(delivery, latMean, latP95, collisions),
	},
	// Letting the stronger of two overlapping frames survive reduces
	// effective collision losses, which mostly benefits dense flooding.
	{
		id: "A9", title: "radio capture effect",
		params: "n=75; capture ratio 0.5 (≈6 dB)",
		header: []string{"capture", "protocol", "delivery", "collisions", "lat-p95(ms)"},
		plan: func(c Config) []cell {
			return cross(c.base(), toggle(false, onOff, func(sc *runner.Scenario, on bool) {
				if on {
					sc.Radio.CaptureRatio = 0.5
				}
			}), byzVsFlood)
		},
		render: perCell(delivery, collisions, latP95),
	},
	// The failure detectors at work over time: with FDs on, latency degrades
	// when mute dominators first black-hole traffic and then recovers as
	// suspicions evict them from the overlay; without FDs every affected
	// message keeps paying the gossip-recovery latency. One seed: a timeline
	// is not averaged.
	{
		id: "E11", title: "fast-path restoration timeline under mute attack (latency per 30 s window)",
		params: "n=75, 10 mute dominators, 3-minute run",
		header: []string{"window", "mean(+fd) ms", "p95(+fd) ms", "mean(-fd) ms", "p95(-fd) ms"},
		plan: func(c Config) []cell {
			window := timeline(165*time.Second, 30*time.Second)
			if c.Quick {
				window = timeline(55*time.Second, 20*time.Second)
			}
			cells := cross(c.base(mute(10), window), hidden(fdsOnOff))
			for i := range cells {
				cells[i].repeats = 1
			}
			return cells
		},
		render: func(cells []cell, res []runner.Result) (rows [][]string) {
			on, off := res[0].Timeline, res[1].Timeline
			for i := 0; i < min(len(on), len(off)); i++ {
				start := time.Duration(i) * cells[0].sc.LatencyBucket
				rows = append(rows, []string{start.String(), ms(on[i].Mean), ms(on[i].P95), ms(off[i].Mean), ms(off[i].P95)})
			}
			return rows
		},
	},
	// Nodes crash at random and come back ten seconds later, so the overlay
	// must keep re-electing dominators while the gossip layer backfills what
	// the departed nodes missed. The invariant checker runs on every arm; a
	// violation count above zero means the protocol broke one of its
	// promises, not just that delivery dipped.
	{
		id: "E12", title: "churn sweep: crash/recover pairs at increasing rate",
		params: "n=75, downtime 10s per crash, invariants on",
		header: []string{"churn(node/s)", "faults", "delivery", "lat-p95(ms)", "tx/msg", "violations"},
		plan: func(c Config) []cell {
			return cross(c.base(), arms(sweep(c, []float64{0, 0.05, 0.1, 0.2, 0.4}, []float64{0, 0.2}), f2,
				func(sc *runner.Scenario, rate float64) {
					if rate > 0 {
						churn(sc, faultplan.Churn{Rate: rate})
					}
				}))
		},
		render: perCell(func(r runner.Result) string { return itoa(len(r.FaultEvents)) }, delivery, latP95, txPerMsg, violations),
	},
	// The network splits in half mid-run and heals later; delivery per time
	// window shows the dip and the post-heal backfill next to the fault
	// timeline. Cross-partition messages are exempt from the validity
	// invariant while the split lasts; after the heal the overlay must
	// re-cover the whole network within the recovery window.
	{
		id: "E13", title: "partition/heal timeline: delivery per window around the split",
		params: "n=75, halves split mid-run, invariants on",
		header: []string{"window", "samples", "lat-mean(ms)", "lat-p95(ms)", "faults-so-far"},
		plan: func(c Config) []cell {
			window, partAt, healAt := timeline(140*time.Second, 20*time.Second), 40*time.Second, 100*time.Second
			if c.Quick {
				window, partAt, healAt = timeline(60*time.Second, 15*time.Second), 20*time.Second, 45*time.Second
			}
			return cross(c.base(window, func(sc *runner.Scenario) {
				var left []wire.NodeID
				for i := 0; i < sc.N/2; i++ {
					left = append(left, wire.NodeID(i))
				}
				sc.FaultPlan = &faultplan.Plan{Events: []faultplan.Event{
					{At: partAt, Kind: faultplan.Partition, Groups: [][]wire.NodeID{left}},
					{At: healAt, Kind: faultplan.Heal},
				}}
			}))
		},
		render: func(cells []cell, res []runner.Result) (rows [][]string) {
			r := res[0]
			for _, b := range r.Timeline {
				faults := 0
				for _, e := range r.FaultEvents {
					if e.At < b.Start+cells[0].sc.LatencyBucket {
						faults++
					}
				}
				rows = append(rows, []string{b.Start.String(), itoa(b.Count), ms(b.Mean), ms(b.P95), itoa(faults)})
			}
			return append(rows, []string{"overall", "delivery " + delivery(r), "-", "-", "violations " + violations(r)})
		},
	},
	// Resource-exhaustion adversaries against the admission-control layer:
	// correct traffic keeps flowing while the state-bounds invariant asserts
	// that no node's protocol tables exceed their caps. A flooder originates
	// fresh validly-signed messages at roughly 10× the workload rate — every
	// one verifies, so the only defences are rate limiting,
	// dedup-before-verify and GC. Spam is never injected through the
	// workload, so it does not count towards (or against) the delivery ratio.
	{
		id: "E14", title: "spam resilience: correct-traffic delivery under resource-exhaustion adversaries",
		params: "n=75, 2 spammers, flooder ~10x workload rate, state bounds + invariants on",
		header: []string{"adversary", "delivery", "lat-p95(ms)", "rate-limited", "dedup-skips", "evictions", "violations"},
		plan: func(c Config) []cell {
			spam := func(kind runner.AdversaryKind) func(*runner.Scenario) {
				return func(sc *runner.Scenario) { infiltrate(sc, kind, 2, runner.PlaceSpread) }
			}
			advs := []arm{{label: "none"}, {"flooder", spam(runner.AdvFlooder)},
				{"replayer", spam(runner.AdvReplayer)}, {"forge-spammer", spam(runner.AdvForgeSpammer)}}
			return cross(c.base(), sweep(c, advs, advs[:2]))
		},
		render: perCell(delivery, latP95,
			func(r runner.Result) string { return u64(r.Node.RateLimited) },
			func(r runner.Result) string { return u64(r.Node.DedupSkips) },
			func(r runner.Result) string { return u64(r.Node.Evictions) },
			violations),
	},
	// Hostile links (Gilbert–Elliott burst loss, delivery jitter, asymmetric
	// degradation, plus an equivocating adversary on top) × timing mode. The
	// invariant checker runs on every arm with the timer-bounds probe armed,
	// so "violations 0" certifies both agreement and that the adaptive timers
	// never left their configured bounds. The headline is graceful
	// degradation: under burst loss the adaptive arm holds delivery where the
	// static baseline collapses.
	{
		id: "E15", title: "hostile links: adaptive vs static timing under burst loss, jitter and asymmetry",
		params: "n=75, GE blackout bursts ~2s, ~74% mean loss, invariants + timer bounds on",
		header: []string{"condition", "timing", "delivery", "lat-p95(ms)", "adaptations", "retries", "abandoned", "violations"},
		plan:   hostilePlan,
		render: perCell(delivery, latP95,
			func(r runner.Result) string { return u64(r.Node.Adaptations) },
			func(r runner.Result) string { return u64(r.Node.RetriesSent) },
			func(r runner.Result) string { return u64(r.Node.RetriesAbandoned) },
			violations),
	},
	// The delivery-forensics view of E15's runs: "data-path" deliveries
	// arrived purely over the overlay relay chain; "recovery" deliveries
	// carry the sticky recovered bit (the payload crossed a gossip-repair hop
	// somewhere upstream). Expected shape: hostile conditions push rec-share
	// up and stretch the hop tail, and the adaptive arm converts would-be
	// losses into recovery deliveries.
	{
		id: "E15L", title: "hostile links: delivery lineage — data-path vs gossip-recovery attribution per arm",
		params: "as E15; counts are per-seed means over remote deliveries",
		header: []string{"condition", "timing", "deliveries", "data-path", "recovery", "rec-share", "hops-mean", "hops-p50", "hops-p95", "hops-max"},
		plan:   hostilePlan,
		render: perCell(
			func(r runner.Result) string { return u64(r.RemoteDeliveries) },
			func(r runner.Result) string { return u64(r.RemoteDeliveries - r.RecoveryDeliveries) },
			func(r runner.Result) string { return u64(r.RecoveryDeliveries) },
			recShare,
			func(r runner.Result) string { return f1(r.HopMean) }, hopP50,
			func(r runner.Result) string { return f1(r.HopP95) },
			func(r runner.Result) string { return f1(r.HopMax) }),
	},
	// Offered load swept with the load generator: delivery stays ≈1 and
	// goodput tracks offered load up to the knee, past which delivery
	// degrades and p99 latency blows up. The closed-loop arm self-clocks
	// (each sender keeps two messages outstanding, completing at 95%
	// coverage), so its goodput reads out the sustainable throughput.
	{
		id: "E16", title: "throughput knee: delivery and latency vs offered load",
		params: fmt.Sprintf("poisson arrivals over concurrent senders, payload 256 B; knee = highest offered load sustaining delivery >= %.2f",
			KneeThreshold),
		header: []string{"offered(msg/s)", "arrival", "injected", "delivery", "goodput(msg/s)", "lat-p50(ms)", "lat-p99(ms)", "bytes/msg", "knee"},
		plan: func(c Config) (cells []cell) {
			for _, rate := range sweep(c, []float64{1, 2, 4, 8, 16, 32, 64, 128}, []float64{2, 8, 32}) {
				cells = append(cells, c.kneeCell(rate, loadgen.Poisson))
			}
			return append(cells, c.kneeCell(0, loadgen.ClosedLoop))
		},
		render: renderKnee,
	},
	// What durable state and catch-up sync buy under amnesiac churn. Nodes
	// crash losing all volatile state, stay down longer than the gossip
	// advertisement window (so plain gossip recovery cannot backfill what
	// they missed) but shorter than the payload purge timeout (so a neighbour
	// still holds the payloads a rejoiner asks for). The invariant checker —
	// including the wipe-aware at-most-once check — runs on every arm.
	{
		id: "E17", title: "crash-amnesia recovery: durable state and catch-up sync under churn",
		params: "n=75, churn wipes volatile state, downtime > gossip retention, invariants on",
		header: []string{"arm", "rejoins", "delivery", "rejoin-lat(ms)", "sync-KB", "violations"},
		plan: func(c Config) []cell {
			downtime := 20 * time.Second
			if c.Quick {
				downtime = 14 * time.Second // still past the 10s gossip retention
			}
			durable := func(persist, catchUp bool) func(*runner.Scenario) {
				return func(sc *runner.Scenario) { sc.Core.Persist, sc.Core.CatchUpSync = persist, catchUp }
			}
			return cross(c.base(func(sc *runner.Scenario) {
				churn(sc, faultplan.Churn{Rate: 0.2, Downtime: downtime, Wipe: true})
			}), []arm{
				{"amnesia-no-persist", durable(false, false)},
				{"persist-only", durable(true, false)},
				{"persist+catch-up", durable(true, true)},
			})
		},
		render: perCell(func(r runner.Result) string { return itoa(int(r.Rejoins)) }, delivery,
			func(r runner.Result) string { return ms(r.RejoinLatMean) },
			func(r runner.Result) string { return f1(float64(r.SyncBytes) / 1024) },
			violations),
	},
}
