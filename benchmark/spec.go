package main

// metricSpec names one reported metric. BENCHMARK.json at the repository
// root lists the same metrics; TestSpecMatchesBenchmarkJSON keeps the two
// one-for-one.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent commit's median by which an
	// end-to-end metric may worsen before it counts as a regression.
	// Per-layer metrics carry no bound.
	Bound float64
}

// endToEnd are the metrics a user of the program sees. Every workload reports
// every one of them from an untraced run; README.md gives each definition
// per workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"delivery_ratio", "ratio", "higher", 0.03},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_tail_ms", "ms", "lower", 0.25},
	{"tx_per_msg", "frames", "lower", 0.12},
	{"goodput_msgs_per_s", "msg/s", "higher", 0.15},
	{"cpu_ms_per_msg", "ms", "lower", 0.25},
	{"allocs_per_msg", "allocs", "lower", 0.07},
	{"alloc_kb_per_msg", "KiB", "lower", 0.07},
}

// simExact are the end-to-end metrics that are pure functions of (code,
// seed) on the simulator workloads: they must be bit-identical across the
// passes of one run and between two runs of the same seed.
var simExact = map[string]bool{
	"delivery_ratio":     true,
	"lat_p50_ms":         true,
	"lat_tail_ms":        true,
	"tx_per_msg":         true,
	"goodput_msgs_per_s": true,
}

// perLayer is the ledger a traced run reports. A metric a workload cannot
// measure reads 0 there (README.md says which and why).
var perLayer = []metricSpec{
	{Name: "runner.run_wall_ms", Unit: "ms", Better: "lower"},
	{Name: "runner.wall_ms_per_sim_s", Unit: "ms/s", Better: "lower"},
	{Name: "runner.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "runner.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runner.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "runner.lat_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "runner.lat_samples", Unit: "count", Better: "higher"},
	{Name: "runner.knee_msgs_per_s", Unit: "msg/s", Better: "higher"},
	{Name: "runner.sat_goodput_msgs_per_s", Unit: "msg/s", Better: "higher"},
	{Name: "runner.spans_recorded", Unit: "count", Better: "higher"},

	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.events_per_sim_s", Unit: "1/s", Better: "lower"},
	{Name: "sim.substrate_self_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.event_ns_iso", Unit: "ns", Better: "lower"},

	{Name: "radio.transmissions", Unit: "count", Better: "lower"},
	{Name: "radio.deliveries", Unit: "count", Better: "lower"},
	{Name: "radio.collisions", Unit: "count", Better: "lower"},
	{Name: "radio.fringe_losses", Unit: "count", Better: "lower"},
	{Name: "radio.halfduplex_drops", Unit: "count", Better: "lower"},
	{Name: "radio.burst_losses", Unit: "count", Better: "lower"},
	{Name: "radio.rx_per_tx", Unit: "ratio", Better: "lower"},
	{Name: "radio.loss_share", Unit: "ratio", Better: "lower"},
	{Name: "radio.air_kb_per_msg", Unit: "KiB", Better: "lower"},
	{Name: "radio.broadcast_ns_per_rx_iso", Unit: "ns", Better: "lower"},

	{Name: "mac.sent", Unit: "count", Better: "lower"},
	{Name: "mac.deferrals", Unit: "count", Better: "lower"},
	{Name: "mac.dropped", Unit: "count", Better: "lower"},
	{Name: "mac.deferrals_per_frame", Unit: "ratio", Better: "lower"},
	{Name: "mac.send_self_ms", Unit: "ms", Better: "lower"},
	{Name: "mac.queue_wait_sim_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "mac.queue_wait_sim_ms_p99", Unit: "ms", Better: "lower"},

	{Name: "wire.marshal_ns_iso.data", Unit: "ns", Better: "lower"},
	{Name: "wire.marshal_ns_iso.gossip", Unit: "ns", Better: "lower"},
	{Name: "wire.unmarshal_ns_iso.data", Unit: "ns", Better: "lower"},
	{Name: "wire.unmarshal_ns_iso.gossip", Unit: "ns", Better: "lower"},
	{Name: "wire.clone_ns_iso.data", Unit: "ns", Better: "lower"},
	{Name: "wire.clone_ns_iso.gossip", Unit: "ns", Better: "lower"},
	{Name: "wire.clone_allocs_iso.data", Unit: "allocs", Better: "lower"},
	{Name: "wire.clone_allocs_iso.gossip", Unit: "allocs", Better: "lower"},
	{Name: "wire.frame_share.data", Unit: "ratio", Better: "lower"},
	{Name: "wire.frame_share.gossip", Unit: "ratio", Better: "lower"},
	{Name: "wire.frame_share.overlay-state", Unit: "ratio", Better: "lower"},
	{Name: "wire.frame_share.recovery", Unit: "ratio", Better: "lower"},
	{Name: "wire.air_byte_share.data", Unit: "ratio", Better: "lower"},
	{Name: "wire.air_byte_share.gossip", Unit: "ratio", Better: "lower"},
	{Name: "wire.air_byte_share.overlay-state", Unit: "ratio", Better: "lower"},
	{Name: "wire.air_byte_share.recovery", Unit: "ratio", Better: "lower"},

	{Name: "sig.signs", Unit: "count", Better: "lower"},
	{Name: "sig.verifies_ok", Unit: "count", Better: "lower"},
	{Name: "sig.verifies_bad", Unit: "count", Better: "lower"},
	{Name: "sig.dedup_skips", Unit: "count", Better: "higher"},
	{Name: "sig.verifies_per_accept", Unit: "ratio", Better: "lower"},
	{Name: "sig.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "sig.sign_ms", Unit: "ms", Better: "lower"},
	{Name: "sig.verify_us_iso.hmac", Unit: "us", Better: "lower"},
	{Name: "sig.verify_us_iso.ed25519", Unit: "us", Better: "lower"},
	{Name: "sig.sign_us_iso.ed25519", Unit: "us", Better: "lower"},

	{Name: "core.handle_self_ms.data", Unit: "ms", Better: "lower"},
	{Name: "core.handle_self_ms.gossip", Unit: "ms", Better: "lower"},
	{Name: "core.handle_self_ms.request", Unit: "ms", Better: "lower"},
	{Name: "core.handle_self_ms.find-missing", Unit: "ms", Better: "lower"},
	{Name: "core.handle_self_ms.overlay-state", Unit: "ms", Better: "lower"},
	{Name: "core.handle_self_ms.sync", Unit: "ms", Better: "lower"},
	{Name: "core.timer_self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.timer_calls", Unit: "count", Better: "lower"},
	{Name: "core.broadcast_self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.accepted", Unit: "count", Better: "higher"},
	{Name: "core.duplicates", Unit: "count", Better: "lower"},
	{Name: "core.forwarded", Unit: "count", Better: "lower"},
	{Name: "core.gossips_sent", Unit: "count", Better: "lower"},
	{Name: "core.requests_sent", Unit: "count", Better: "lower"},
	{Name: "core.finds_sent", Unit: "count", Better: "lower"},
	{Name: "core.recovered_by_data", Unit: "count", Better: "lower"},
	{Name: "core.rate_limited", Unit: "count", Better: "lower"},
	{Name: "core.evictions", Unit: "count", Better: "lower"},
	{Name: "core.retries_sent", Unit: "count", Better: "lower"},
	{Name: "core.retries_abandoned", Unit: "count", Better: "lower"},
	{Name: "core.adaptations", Unit: "count", Better: "lower"},
	{Name: "core.rejoins", Unit: "count", Better: "lower"},
	{Name: "core.sync_entries_applied", Unit: "count", Better: "higher"},
	{Name: "core.redeliveries", Unit: "count", Better: "lower"},
	{Name: "core.duplicate_share", Unit: "ratio", Better: "lower"},
	{Name: "core.recovery_share", Unit: "ratio", Better: "lower"},
	{Name: "core.handle_ns_iso.data-new", Unit: "ns", Better: "lower"},
	{Name: "core.handle_ns_iso.data-dup", Unit: "ns", Better: "lower"},
	{Name: "core.handle_ns_iso.gossip-32", Unit: "ns", Better: "lower"},
	{Name: "core.handle_ns_iso.data-at-cap", Unit: "ns", Better: "lower"},

	{Name: "overlay.size", Unit: "count", Better: "lower"},
	{Name: "overlay.role_changes", Unit: "count", Better: "lower"},
	{Name: "overlay.decide_ns_iso.cds", Unit: "ns", Better: "lower"},
	{Name: "overlay.decide_ns_iso.misb", Unit: "ns", Better: "lower"},

	{Name: "fd.suspicions_raised", Unit: "count", Better: "lower"},
	{Name: "fd.suspicions_cleared", Unit: "count", Better: "lower"},
	{Name: "fd.adversaries_detected", Unit: "count", Better: "higher"},

	{Name: "persist.record_ns_iso.below-cap", Unit: "ns", Better: "lower"},
	{Name: "persist.record_ns_iso.at-cap", Unit: "ns", Better: "lower"},
	{Name: "persist.snapshot_ms_iso", Unit: "ms", Better: "lower"},
	{Name: "persist.open_replay_ms_iso", Unit: "ms", Better: "lower"},
	{Name: "persist.disk_bytes_per_msg", Unit: "B", Better: "lower"},

	{Name: "obsv.calls", Unit: "count", Better: "lower"},
	{Name: "obsv.calls_per_event", Unit: "ratio", Better: "lower"},
	{Name: "obsv.self_ms", Unit: "ms", Better: "lower"},
	{Name: "invariant.violations", Unit: "count", Better: "lower"},

	{Name: "loadgen.injected", Unit: "count", Better: "higher"},
	{Name: "loadgen.max_late_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.late_share", Unit: "ratio", Better: "lower"},

	{Name: "transport.tx_frames", Unit: "count", Better: "lower"},
	{Name: "transport.rx_frames", Unit: "count", Better: "lower"},
	{Name: "transport.ingress_drops", Unit: "count", Better: "lower"},
	{Name: "transport.datagrams_per_msg", Unit: "ratio", Better: "lower"},
	{Name: "transport.sigverify_us_p50", Unit: "us", Better: "lower"},
	{Name: "transport.cpu_user_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.cpu_sys_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.mutex_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.sched_latency_us_p99", Unit: "us", Better: "lower"},
}

// workloadSpec names one workload and the reason it is in the benchmark.
type workloadSpec struct {
	Name string
	Why  string
	run  func(opts runOpts) (*result, error)
}

var workloads = []workloadSpec{
	{"sim-steady", "paper regime: default n=75 scenario at 1 msg/s; periodic gossip and observer work dominate, store far below its cap", runSimSteady},
	{"sim-knee", "open-loop Poisson load at 8-32 msg/s on n=50, up to twice the knee; the data path, MAC queueing and radio collisions do the work", runSimKnee},
	{"sim-hostile", "recovery path: Ed25519, persistence, mute and forging adversaries, burst loss and wiping churn; signature cost dominates", runSimHostile},
	{"live-clique", "six real UDP nodes on loopback with Ed25519 and file persistence; paced open loop then saturated closed loop past the store caps", runLiveClique},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
