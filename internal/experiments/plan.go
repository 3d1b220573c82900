package experiments

import (
	"fmt"
	"time"

	"bbcast/internal/faultplan"
	"bbcast/internal/invariant"
	"bbcast/internal/loadgen"
	"bbcast/internal/runner"
	"bbcast/internal/wire"
)

// The vocabulary the registry is written in: axes of arms that cross into
// cells, result columns, the two stock renderers, and the scenario builders
// several tables share.

// arm is one value of a swept axis: the setting it applies to the scenario
// and the leading column it contributes to the row ("" for none).
type arm struct {
	label string
	set   func(*runner.Scenario)
}

// arms builds an axis from its values.
func arms[T any](vals []T, label func(T) string, set func(*runner.Scenario, T)) []arm {
	out := make([]arm, len(vals))
	for i, v := range vals {
		out[i] = arm{label: label(v), set: func(sc *runner.Scenario) { set(sc, v) }}
	}
	return out
}

// hidden strips an axis's labels, for tables that spread its arms across the
// columns of one row.
func hidden(axis []arm) []arm {
	out := make([]arm, len(axis))
	for i, a := range axis {
		out[i] = arm{set: a.set}
	}
	return out
}

// cross plans one cell per combination of one arm from each axis, the first
// axis outermost, applying the arms' settings to base in axis order.
func cross(base runner.Scenario, axes ...[]arm) []cell {
	cells := []cell{{sc: base}}
	for _, axis := range axes {
		var next []cell
		for _, c := range cells {
			for _, a := range axis {
				n := c
				if a.label != "" {
					n.label = c.row(a.label)
				}
				if a.set != nil {
					a.set(&n.sc)
				}
				next = append(next, n)
			}
		}
		cells = next
	}
	return cells
}

func (c Config) sizes() []arm {
	return arms(sweep(c, []int{25, 50, 75, 100}, []int{25, 50}), itoa, func(sc *runner.Scenario, n int) { sc.N = n })
}

func protocols(ps ...runner.Protocol) []arm {
	return arms(ps, runner.Protocol.String, func(sc *runner.Scenario, p runner.Protocol) { sc.Protocol = p })
}

var (
	byzVsFlood = protocols(runner.ProtoByzCast, runner.ProtoFlooding)
	allThree   = protocols(runner.ProtoByzCast, runner.ProtoFlooding, runner.ProtoFPlusOne)
)

// toggle is a two-arm axis over a boolean setting, in the given order.
func toggle(first bool, label func(bool) string, set func(*runner.Scenario, bool)) []arm {
	return arms([]bool{first, !first}, label, set)
}

func onOff(on bool) string {
	if on {
		return "on"
	}
	return "off"
}

// fdsOnOff runs each cell with the failure detectors on, then off.
var fdsOnOff = toggle(true,
	func(on bool) string {
		if on {
			return "+fd"
		}
		return "-fd"
	},
	func(sc *runner.Scenario, on bool) { sc.Core.EnableFDs = on })

// infiltrate places count adversaries of one kind (none when count is 0).
func infiltrate(sc *runner.Scenario, kind runner.AdversaryKind, count int, where runner.AdversaryPlacement) {
	if count > 0 {
		sc.Adversaries = []runner.Adversaries{{Kind: kind, Count: count}}
		sc.Placement = where
	}
}

// mute puts count mute nodes on the would-be dominators — the paper's worst
// case of Byzantine overlay nodes.
func mute(count int) func(*runner.Scenario) {
	return func(sc *runner.Scenario) { infiltrate(sc, runner.AdvMute, count, runner.PlaceDominators) }
}

func (c Config) muteCounts() []arm {
	return arms(sweep(c, []int{0, 4, 8, 12, 15}, []int{0, 8}), itoa, func(sc *runner.Scenario, n int) { mute(n)(sc) })
}

// churn crashes random nodes over the injection window. The senders are kept
// alive so every arm injects the same load.
func churn(sc *runner.Scenario, ch faultplan.Churn) {
	ch.Start, ch.End = sc.Workload.Start, sc.Workload.End
	for i := 0; i < sc.Workload.Senders; i++ { // the lowest ids, per the runner's round-robin assignment
		ch.Exclude = append(ch.Exclude, wire.NodeID(i))
	}
	sc.FaultPlan = &faultplan.Plan{Churn: &ch}
}

// timeline sets the injection window, a 15 s drain and the latency bucket of
// a per-window table.
func timeline(end, bucket time.Duration) func(*runner.Scenario) {
	return func(sc *runner.Scenario) {
		sc.Workload.End = end
		sc.Duration = end + 15*time.Second
		sc.LatencyBucket = bucket
	}
}

// hostile switches the given hostile-link kinds on shortly after the workload
// starts and keeps them on through the drain — recovery has to happen over
// the bad channel, not on a conveniently clean tail.
func hostile(kinds ...faultplan.Kind) func(*runner.Scenario) {
	return func(sc *runner.Scenario) {
		start := sc.Workload.Start + 5*time.Second
		plan := &faultplan.Plan{}
		for _, k := range kinds {
			e := faultplan.Event{At: start, Kind: k, Duration: sc.Duration - start}
			switch k {
			case faultplan.BurstLoss:
				e.LossFactor = 1
				e.MeanBad = 2 * time.Second
				e.MeanGood = 700 * time.Millisecond
			case faultplan.Jitter:
				e.MaxJitter = 80 * time.Millisecond
			case faultplan.AsymDegrade:
				e.LossFactor = 0.3
			}
			plan.Events = append(plan.Events, e)
		}
		sc.FaultPlan = plan
	}
}

// hostilePlan is E15's and E15L's: hostile-link conditions × timing mode. The
// adaptive arm runs link-quality-driven AIMD timers and bounded
// retransmission; the static arm pins the pre-adaptive protocol (fixed
// timers, no retransmission chain).
func hostilePlan(c Config) []cell {
	burstJitter := hostile(faultplan.BurstLoss, faultplan.Jitter)
	conds := []arm{
		{label: "clean"},
		{"burst-loss", hostile(faultplan.BurstLoss)},
		{"burst+jitter", burstJitter},
		{"burst+asym", hostile(faultplan.BurstLoss, faultplan.AsymDegrade)},
		{"burst+jitter+equiv", func(sc *runner.Scenario) {
			burstJitter(sc)
			infiltrate(sc, runner.AdvEquivocate, 2, runner.PlaceSpread)
		}},
	}
	timing := toggle(true,
		func(adaptive bool) string {
			if adaptive {
				return "adaptive"
			}
			return "static"
		},
		func(sc *runner.Scenario, adaptive bool) {
			sc.Core.AdaptiveTiming = adaptive
			if !adaptive {
				sc.Core.RetryMaxAttempts = 0
			}
		})
	return cross(c.base(), sweep(c, conds, conds[:2]), timing)
}

// KneeThreshold is the delivery ratio an offered load must sustain to count
// as below the knee: the knee is the highest swept rate still at or above it.
const KneeThreshold = 0.95

// kneeCell builds the load-generator cell for one offered rate (msgs/s
// network-wide; 0 for the self-clocked closed-loop arm). The runtime
// invariant checker is disabled: saturating the channel on purpose violates
// liveness-style invariants by design, and the measurement of interest is
// delivery/latency degradation, not protocol correctness.
func (c Config) kneeCell(rate float64, arrival loadgen.Arrival) cell {
	n, senders, window, drain := 50, 25, 30*time.Second, 15*time.Second
	if c.Quick {
		n, senders, window, drain = 40, 20, 15*time.Second, 10*time.Second
	}
	start := 15 * time.Second
	offered := "self-clocked"
	if rate > 0 {
		offered = f1(rate)
	}
	sc := c.base()
	sc.Name = fmt.Sprintf("knee-%s-%g", arrival, rate)
	sc.N = n
	sc.Invariants = invariant.Config{}
	sc.LoadGen = &loadgen.Config{
		Senders:      senders,
		PayloadSizes: []int{256},
		Arrival:      arrival,
		Start:        start,
		Steps:        []loadgen.Step{{Rate: rate, Duration: window}},
		Window:       2,
		Quorum:       KneeThreshold,
		Timeout:      5 * time.Second,
	}
	sc.Workload = runner.Workload{} // loadgen replaces the fixed-rate workload
	sc.Duration = start + window + drain
	return cell{sc: sc, label: []string{offered, arrival.String()}}
}

// renderKnee marks the knee — the highest open-loop offered rate whose
// delivery ratio is still at or above KneeThreshold — and reports goodput
// (delivered msgs/s: injected × delivery / window) per offered load.
func renderKnee(cells []cell, res []runner.Result) (rows [][]string) {
	rate := func(i int) float64 { return cells[i].sc.LoadGen.Steps[0].Rate }
	knee := -1
	for i, r := range res {
		if rate(i) > 0 && r.DeliveryRatio >= KneeThreshold && (knee < 0 || rate(i) > rate(knee)) {
			knee = i
		}
	}
	for i, r := range res {
		lg := cells[i].sc.LoadGen
		mark := ""
		if i == knee {
			mark = "<= knee"
		}
		rows = append(rows, cells[i].row(
			itoa(r.Injected), delivery(r),
			f1(float64(r.Injected)*r.DeliveryRatio/(lg.End()-lg.Start).Seconds()),
			latP50(r), ms(r.LatP99), bytesPerMsg(r), mark,
		))
	}
	return rows
}

// col renders one result column.
type col = func(runner.Result) string

// perCell renders one row per cell: its label, then the columns.
func perCell(cols ...col) func([]cell, []runner.Result) [][]string { return perGroup(1, cols...) }

// perGroup renders one row per k consecutive cells: the first one's label,
// then the columns of each cell in turn.
func perGroup(k int, cols ...col) func([]cell, []runner.Result) [][]string {
	return func(cells []cell, res []runner.Result) (rows [][]string) {
		for i := 0; i < len(cells); i += k {
			row := cells[i].row()
			for _, r := range res[i : i+k] {
				for _, col := range cols {
					row = append(row, col(r))
				}
			}
			rows = append(rows, row)
		}
		return rows
	}
}

func f1(v float64) string       { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string       { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string       { return fmt.Sprintf("%.3f", v) }
func ms(d time.Duration) string { return fmt.Sprintf("%d", d.Milliseconds()) }
func itoa(v int) string         { return fmt.Sprintf("%d", v) }
func u64(v uint64) string       { return fmt.Sprintf("%d", v) }
func perMsg(v uint64, n int) string {
	if n == 0 {
		return "0"
	}
	return f1(float64(v) / float64(n))
}

// The columns more than one table shows.
var (
	delivery    col = func(r runner.Result) string { return f3(r.DeliveryRatio) }
	txPerMsg    col = func(r runner.Result) string { return f1(r.TxPerMessage) }
	dataPerMsg  col = func(r runner.Result) string { return perMsg(r.TxByKind[wire.KindData], r.Injected) }
	bytesPerMsg col = func(r runner.Result) string { return perMsg(r.BytesOnAir, r.Injected) }
	latMean     col = func(r runner.Result) string { return ms(r.LatMean) }
	latP50      col = func(r runner.Result) string { return ms(r.LatP50) }
	latP95      col = func(r runner.Result) string { return ms(r.LatP95) }
	collisions  col = func(r runner.Result) string { return u64(r.Collisions) }
	detected    col = func(r runner.Result) string { return itoa(r.AdversariesDetected) }
	violations  col = func(r runner.Result) string { return itoa(len(r.Violations)) }
	hopP50      col = func(r runner.Result) string { return f1(r.HopP50) }
	recShare    col = func(r runner.Result) string { return f3(r.RecoveryShare) }
)

// txOf counts the transmissions of one packet kind.
func txOf(k wire.Kind) col { return func(r runner.Result) string { return u64(r.TxByKind[k]) } }
