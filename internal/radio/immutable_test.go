package radio_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"bbcast/internal/faultplan"
	"bbcast/internal/geo"
	"bbcast/internal/invariant"
	"bbcast/internal/mobility"
	"bbcast/internal/radio"
	"bbcast/internal/runner"
	"bbcast/internal/sim"
	"bbcast/internal/wire"
)

// framePrint is everything a receiver can observe of a frame: its wire
// encoding and its in-memory causal metadata.
type framePrint struct {
	wire string
	meta wire.Meta
}

func printOf(pkt *wire.Packet) framePrint {
	return framePrint{wire: string(pkt.Marshal()), meta: pkt.Meta}
}

// frameGuard enforces the shared-frame contract from the medium's test seam:
// a frame is fingerprinted when Broadcast puts it on the air and must read the
// same after every receiver callback, at batch finish and at the end of the
// run, and no *wire.Packet may be broadcast twice. Holding every packet in the
// map also keeps the allocator from reusing an address within a run.
type frameGuard struct {
	errorf func(format string, args ...any) // t.Errorf
	frames map[*wire.Packet]framePrint
}

func newFrameGuard(errorf func(string, ...any)) *frameGuard {
	return &frameGuard{errorf: errorf, frames: make(map[*wire.Packet]framePrint)}
}

func (g *frameGuard) hook(stage string, node wire.NodeID, pkt *wire.Packet) {
	if stage == radio.FrameOnAir {
		if _, again := g.frames[pkt]; again {
			g.errorf("node %d passed one *wire.Packet (%s frame %d) to Send twice: the second Meta.Frame stamp is visible to receivers of the first transmission",
				node, pkt.Kind, pkt.Meta.Frame)
		}
		g.frames[pkt] = printOf(pkt)
		return
	}
	g.check(stage, node, pkt)
}

func (g *frameGuard) check(stage string, node wire.NodeID, pkt *wire.Packet) {
	want, known := g.frames[pkt]
	if !known {
		g.errorf("%s at node %d: frame was never broadcast", stage, node)
		return
	}
	got := printOf(pkt)
	if got == want {
		return
	}
	g.frames[pkt] = got // report each write once
	if stage == radio.FrameDelivered {
		g.errorf("receiver %d wrote to the shared %s frame %d from node %d (receivers may retain, never modify; clone before editing)",
			node, pkt.Kind, want.meta.Frame, pkt.Sender)
		return
	}
	g.errorf("%s frame %d from node %d changed by %s without a receiver callback running: its sender (or a timer some receiver armed) wrote to it after Send",
		pkt.Kind, want.meta.Frame, pkt.Sender, stage)
}

// sweep re-checks every frame of the run: receivers keep payloads, signatures
// and state records for as long as they like, so a late write is as bad as an
// early one.
func (g *frameGuard) sweep() {
	for pkt := range g.frames {
		g.check("end of run", pkt.Sender, pkt)
	}
}

// guardScenario is the default scenario cut down to a few simulated seconds
// with traffic from the start.
func guardScenario() runner.Scenario {
	sc := runner.DefaultScenario()
	sc.Duration = 12 * time.Second
	sc.Workload.Start = 1 * time.Second
	sc.Workload.End = 9 * time.Second
	sc.Workload.Rate = 4
	sc.Invariants = invariant.Config{} // adversaries break them by design
	return sc
}

func TestFramesAreImmutableOnceSent(t *testing.T) {
	adversary := func(kind runner.AdversaryKind) func(*runner.Scenario) {
		return func(sc *runner.Scenario) {
			sc.Adversaries = []runner.Adversaries{{Kind: kind, Count: 6}}
		}
	}
	cases := []struct {
		name string
		edit func(*runner.Scenario)
	}{
		{"default", func(*runner.Scenario) {}},
		{"jitter-and-duplication", func(sc *runner.Scenario) {
			// Deferred deliveries outlive the batch, and duplicated ones hand
			// a receiver the same frame twice.
			sc.FaultPlan = &faultplan.Plan{Events: []faultplan.Event{
				{At: time.Second, Kind: faultplan.Jitter, MaxJitter: 40 * time.Millisecond, Duration: 6 * time.Second},
				{At: time.Second, Kind: faultplan.Duplicate, DupProb: 0.3, Duration: 6 * time.Second},
			}}
		}},
		{"amnesiac-churn-with-sync", func(sc *runner.Scenario) {
			// Crashes, wipes and rejoins put SYNC-REQ/RESP frames on the air.
			sc.Core.Persist, sc.Core.CatchUpSync = true, true
			sc.FaultPlan = &faultplan.Plan{Churn: &faultplan.Churn{
				Rate: 1, Start: time.Second, End: 6 * time.Second,
				Downtime: 2 * time.Second, Wipe: true, Exclude: []wire.NodeID{0, 1, 2, 3, 4},
			}}
		}},
		{"mute", adversary(runner.AdvMute)},
		{"mute-silent", adversary(runner.AdvMuteSilent)},
		{"verbose", adversary(runner.AdvVerbose)},
		{"tamper", adversary(runner.AdvTamper)},
		{"selective-drop", adversary(runner.AdvSelective)},
		{"equivocate", adversary(runner.AdvEquivocate)},
		{"flooder", adversary(runner.AdvFlooder)},
		{"replayer", adversary(runner.AdvReplayer)},
		{"forge-spammer", adversary(runner.AdvForgeSpammer)},
		{"baseline-flooding", func(sc *runner.Scenario) { sc.Protocol = runner.ProtoFlooding }},
		{"baseline-f+1", func(sc *runner.Scenario) { sc.Protocol = runner.ProtoFPlusOne }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := guardScenario()
			tc.edit(&sc)
			g := newFrameGuard(t.Errorf)
			defer radio.SetFrameHook(g.hook)()
			res, err := runner.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			g.sweep()
			if len(g.frames) == 0 || res.Phys.Deliveries == 0 {
				t.Fatalf("guard saw %d frames and %d deliveries: the scenario exercised nothing", len(g.frames), res.Phys.Deliveries)
			}
			t.Logf("%d frames, %d deliveries, %d sync entries applied", len(g.frames), res.Phys.Deliveries, res.Node.SyncEntriesApplied)
		})
	}
}

// TestGuardNamesTheWriter proves the guard catches what it exists to catch: a
// receiver that edits the frame it was handed is reported by id, and so is a
// packet broadcast a second time.
func TestGuardNamesTheWriter(t *testing.T) {
	var reports []string
	g := newFrameGuard(func(format string, args ...any) {
		reports = append(reports, fmt.Sprintf(format, args...))
	})
	defer radio.SetFrameHook(g.hook)()

	pts := []geo.Point{{X: 0}, {X: 100}, {X: 200}}
	eng := sim.New(1)
	cfg := radio.DefaultConfig()
	cfg.BaseLoss, cfg.FringeStart, cfg.PosUpdate = 0, 1, 0
	m := radio.New(eng, mobility.NewStatic(geo.Rect{W: 300, H: 10}, pts), len(pts), cfg)
	m.Attach(1, func(p *wire.Packet) { p.Payload[0] ^= 0xFF })
	m.Attach(2, func(p *wire.Packet) {})
	pkt := &wire.Packet{Kind: wire.KindData, Sender: 0, TTL: 1, Target: wire.NoNode, Payload: []byte("payload")}
	m.Broadcast(0, pkt)
	eng.RunAll()
	if len(reports) != 1 || !strings.HasPrefix(reports[0], "receiver 1 wrote") {
		t.Fatalf("guard reports %q, want exactly one naming receiver 1", reports)
	}

	m.Broadcast(0, pkt)
	eng.RunAll()
	if len(reports) < 2 || !strings.Contains(reports[1], "to Send twice") {
		t.Fatalf("guard reports %q, want the re-broadcast flagged", reports)
	}
}
