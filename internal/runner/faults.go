package runner

import (
	"fmt"
	"math/rand"
	"time"

	"bbcast/internal/byzantine"
	"bbcast/internal/core"
	"bbcast/internal/faultplan"
	"bbcast/internal/fd"
	"bbcast/internal/invariant"
	"bbcast/internal/obsv"
	"bbcast/internal/persist"
	"bbcast/internal/radio"
	"bbcast/internal/sig"
	"bbcast/internal/sim"
	"bbcast/internal/wire"
)

// buildChecker constructs the invariant checker for a run, gating off checks
// that do not apply to the configured protocol: overlay recovery and
// detector soundness are meaningless for the baselines, and validity is only
// promised when the recovery machinery is on (flooding legitimately leaves a
// tail of undelivered messages). Returns nil when nothing is enabled.
func buildChecker(sc Scenario, eng *sim.Engine, medium *radio.Medium, protos []broadcaster, correct []bool) *invariant.Checker {
	cfg := sc.Invariants
	if sc.Protocol != ProtoByzCast {
		cfg.Validity = false
		cfg.Recovery = false
		cfg.Detectors = false
	} else {
		if !sc.Core.EnableRecovery {
			cfg.Validity = false
		}
		if !sc.Core.EnableFDs {
			cfg.Detectors = false
		}
		// The at-most-once grace must cover the store's tombstone lifetime: a
		// replay older than the quiescence GC is a legitimate re-accept, not a
		// dedup bug.
		if cfg.RedeliveryGrace > 0 && sc.Core.StoreQuiescence > cfg.RedeliveryGrace {
			cfg.RedeliveryGrace = sc.Core.StoreQuiescence
		}
	}
	if !cfg.Enabled() {
		return nil
	}
	coreAt := func(id wire.NodeID) *core.Protocol {
		cp, _ := protos[id].(*core.Protocol)
		return cp
	}
	// State bounds mirror the core config caps; only capped tables get a
	// bound (zero/negative knobs mean unbounded and are skipped).
	bounds := make(map[string]int, 5)
	timerRanges := make(map[string][2]time.Duration, 2)
	if sc.Protocol == ProtoByzCast {
		for queue, cap := range map[obsv.Queue]int{
			obsv.QueueStore:     sc.Core.MaxStore,
			obsv.QueueMissing:   sc.Core.MaxMissing,
			obsv.QueueNeighbors: sc.Core.MaxNeighbors,
			obsv.QueueReqSeen:   sc.Core.MaxReqSeen,
			obsv.QueueLinkQual:  sc.Core.MaxNeighbors,
		} {
			if cap > 0 {
				bounds[string(queue)] = cap
			}
		}
		// Timer ranges come from the same Config helpers the protocol's AIMD
		// step clamps against, so checker and protocol cannot drift apart.
		gMin, gMax := sc.Core.GossipBounds()
		mMin, mMax := sc.Core.MuteTimeoutBounds()
		timerRanges[string(obsv.TimerGossip)] = [2]time.Duration{gMin, gMax}
		timerRanges[string(obsv.TimerMute)] = [2]time.Duration{mMin, mMax}
	}
	return invariant.New(cfg, eng.Now, invariant.Probes{
		N:           sc.N,
		Bounds:      bounds,
		TimerRanges: timerRanges,
		Correct: func(id wire.NodeID) bool {
			return int(id) < len(correct) && correct[id]
		},
		Up: func(id wire.NodeID) bool { return !medium.IsDown(id) },
		Neighbors: func(id wire.NodeID) []wire.NodeID {
			return medium.Neighbors(id)
		},
		ReliableNeighbors: func(id wire.NodeID) []wire.NodeID {
			return medium.SolidNeighbors(id)
		},
		OverlayActive: func(id wire.NodeID) bool {
			cp := coreAt(id)
			return cp != nil && cp.InOverlay()
		},
		Suspects: func(observer, subject wire.NodeID) bool {
			cp := coreAt(observer)
			return cp != nil && cp.Trust().Level(subject) == fd.Untrusted
		},
	})
}

// scheduleFaultPlan installs the expanded plan on the engine. Each event
// fires as a named epoch ("fault:<name>"), so every observer registered via
// OnEpoch — the result event log, the invariant checker, the tracer — sees
// the same timeline. Behaviour construction happens here, at schedule time,
// so a bad swap name fails the run before it starts.
func scheduleFaultPlan(sc Scenario, eng *sim.Engine, medium *radio.Medium, protos []broadcaster, devices []*persist.MemDevice, switchables []*byzantine.Switchable, scheme sig.Scheme, chk *invariant.Checker, events []faultplan.Event) error {
	recoveryChecked := make(map[time.Duration]bool)
	// amnesiac tracks nodes downed by a crash-amnesia event; their next
	// recovery wipes volatile state and runs the rejoin path.
	amnesiac := make(map[wire.NodeID]bool)
	// Corruption draws come from a dedicated substream, created lazily so
	// plans without PersistCorrupt leave the RNG schedule untouched.
	var corruptRng *rand.Rand
	rejoin := func(id wire.NodeID) {
		if chk != nil {
			chk.OnWipe(id, eng.Now())
		}
		cp, ok := protos[id].(*core.Protocol)
		if !ok {
			return // baselines keep no volatile protocol state worth wiping
		}
		if devices != nil && devices[id] != nil {
			if sc.PersistCorrupt != nil {
				if corruptRng == nil {
					corruptRng = eng.SubRand(0xc0de)
				}
				devices[id].Corrupt(corruptRng, *sc.PersistCorrupt)
			}
			// Re-open the device as the restarted process would: replay the
			// log, truncating at the first damaged record.
			st, err := persist.Open(devices[id])
			if err != nil {
				st = nil // unreadable device: the node is truly amnesiac
			}
			cp.SetStore(st)
		}
		cp.Rejoin()
	}
	for _, e := range events {
		e := e
		// Expanded events are validated against the scenario size here, at
		// schedule time: an out-of-range id would otherwise silently no-op in
		// the radio mask, making a typoed plan look like a clean pass.
		switch e.Kind {
		case faultplan.Crash, faultplan.CrashAmnesia, faultplan.Recover, faultplan.SwapBehavior:
			if int(e.Node) >= sc.N {
				return fmt.Errorf("runner: fault plan: %s at %s: node %d out of range [0,%d)", e.Kind, e.At, e.Node, sc.N)
			}
		case faultplan.Partition:
			for gi, g := range e.Groups {
				for _, id := range g {
					if int(id) >= sc.N {
						return fmt.Errorf("runner: fault plan: partition at %s: groups[%d] node %d out of range [0,%d)", e.At, gi, id, sc.N)
					}
				}
			}
		}
		var apply func()
		topology := false
		switch e.Kind {
		case faultplan.Crash:
			topology = true
			apply = func() {
				medium.SetDown(e.Node, true)
				if chk != nil {
					chk.OnDown(e.Node, eng.Now())
				}
			}
		case faultplan.CrashAmnesia:
			topology = true
			apply = func() {
				medium.SetDown(e.Node, true)
				amnesiac[e.Node] = true
				if chk != nil {
					chk.OnDown(e.Node, eng.Now())
				}
			}
		case faultplan.Recover:
			topology = true
			apply = func() {
				medium.SetDown(e.Node, false)
				if chk != nil {
					chk.OnUp(e.Node, eng.Now())
				}
				if amnesiac[e.Node] {
					delete(amnesiac, e.Node)
					rejoin(e.Node)
				}
			}
		case faultplan.Partition:
			topology = true
			groups := groupVector(e.Groups, sc.N)
			apply = func() {
				medium.SetPartition(e.Groups)
				if chk != nil {
					chk.OnPartition(groups, eng.Now())
				}
			}
		case faultplan.Heal:
			topology = true
			apply = func() {
				medium.Heal()
				if chk != nil {
					chk.OnPartition(nil, eng.Now())
				}
			}
		case faultplan.DegradeRadio:
			end := e.At + e.Duration
			apply = func() {
				// Each window pushes its own degradation and pops exactly it
				// at expiry: overlapping degrade-radio events compose (their
				// survival probabilities multiply) instead of the last writer
				// clobbering the shared scalar and the first expiry clearing
				// every later window.
				pop := medium.PushDegradation(e.LossFactor)
				eng.AtEpoch(end, "fault:radio-restored", pop)
			}
		case faultplan.BurstLoss:
			end := e.At + e.Duration
			apply = func() {
				medium.SetBurst(radio.BurstConfig{
					Loss:     e.LossFactor,
					MeanBad:  e.MeanBad,
					MeanGood: e.MeanGood,
				})
				eng.AtEpoch(end, "fault:burst-restored", func() {
					medium.SetBurst(radio.BurstConfig{})
				})
			}
		case faultplan.Jitter:
			end := e.At + e.Duration
			apply = func() {
				medium.SetJitter(e.MaxJitter)
				eng.AtEpoch(end, "fault:jitter-restored", func() {
					medium.SetJitter(0)
				})
			}
		case faultplan.Duplicate:
			end := e.At + e.Duration
			apply = func() {
				medium.SetDuplication(e.DupProb)
				eng.AtEpoch(end, "fault:duplicate-restored", func() {
					medium.SetDuplication(0)
				})
			}
		case faultplan.AsymDegrade:
			end := e.At + e.Duration
			apply = func() {
				medium.SetAsymLoss(e.LossFactor)
				eng.AtEpoch(end, "fault:asym-restored", func() {
					medium.SetAsymLoss(0)
				})
			}
		case faultplan.SwapBehavior:
			b, err := byzantine.Make(e.Behavior, e.Node,
				eng.SubRand(uint64(e.Node)+3<<32), signerFor(scheme, e.Node))
			if err != nil {
				return fmt.Errorf("runner: fault plan: %w", err)
			}
			sw := switchables[e.Node]
			apply = func() { sw.Set(b) }
		default:
			return fmt.Errorf("runner: fault plan: unknown kind %q", e.Kind)
		}
		eng.AtEpoch(e.At, "fault:"+e.Name(), apply)
		// After every topology change, the overlay must re-cover the network
		// before the RecoveryWindow deadline. Roles legitimately flap while
		// the detectors digest the change, so probe every couple of seconds
		// and record a violation only if no probe comes back clean in time.
		if topology && chk != nil && sc.Invariants.Recovery && !recoveryChecked[e.At] {
			recoveryChecked[e.At] = true
			deadline := e.At + sc.Invariants.RecoveryWindow
			var probe func()
			probe = func() {
				vs := chk.ProbeRecovery()
				if len(vs) == 0 {
					return
				}
				if eng.Now() >= deadline {
					chk.Report(vs...)
					return
				}
				eng.After(2*time.Second, probe)
			}
			eng.At(e.At+2*time.Second, probe)
		}
	}
	return nil
}

// groupVector flattens partition groups into a per-node group index, with
// the same semantics as radio.Medium.SetPartition: nodes listed in group i
// get index i+1, unlisted nodes share the implicit group 0.
func groupVector(groups [][]wire.NodeID, n int) []int {
	out := make([]int, n)
	for gi, g := range groups {
		for _, id := range g {
			if int(id) < n {
				out[id] = gi + 1
			}
		}
	}
	return out
}

// signerFor restricts a scheme to signing as one node — behaviours may only
// ever sign with their own key, per the system model.
func signerFor(scheme sig.Scheme, id wire.NodeID) func([]byte) []byte {
	return func(data []byte) []byte {
		return scheme.Sign(uint32(id), data)
	}
}
