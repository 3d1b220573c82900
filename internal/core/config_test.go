package core

// Tests for configuration paths not exercised by the main protocol tests:
// dedicated maintenance packets, gossip batching limits, retention windows.

import (
	"reflect"
	"testing"
	"time"

	"bbcast/internal/wire"
)

func TestDedicatedStatePacketsWhenNotPiggybacking(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PiggybackState = false
	h := newHarness(t, 0, cfg)
	h.run(cfg.MaintenanceInterval + 100*time.Millisecond)
	states := h.sentOfKind(wire.KindOverlayState)
	if len(states) == 0 {
		t.Fatal("no dedicated overlay-state packet sent")
	}
	if states[0].State == nil || len(states[0].StateSig) == 0 {
		t.Fatal("state packet unsigned or empty")
	}
	// Gossip packets must not carry state in this mode.
	h.sent = nil
	h.p.Broadcast([]byte("x"))
	h.run(cfg.GossipInterval + 100*time.Millisecond)
	for _, g := range h.sentOfKind(wire.KindGossip) {
		if g.State != nil {
			t.Fatal("gossip carried state despite PiggybackState=false")
		}
	}
}

func TestGossipMaxEntriesCapsBatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GossipMaxEntries = 3
	h := newHarness(t, 0, cfg)
	var ids []wire.MsgID
	for i := 0; i < 10; i++ {
		h.p.HandlePacket(h.dataFrom(1, wire.Seq(i+1), []byte("m")))
		ids = append(ids, wire.MsgID{Origin: 1, Seq: wire.Seq(i + 1)})
	}
	h.p.HandlePacket(h.gossipFrom(2, ids...)) // header signatures arrive
	h.sent = nil
	h.run(cfg.GossipInterval + 100*time.Millisecond)
	gossips := h.sentOfKind(wire.KindGossip)
	if len(gossips) != 1 {
		t.Fatalf("gossip packets = %d", len(gossips))
	}
	if len(gossips[0].Gossip) != 3 {
		t.Fatalf("entries = %d, want capped at 3", len(gossips[0].Gossip))
	}
}

func TestGossipRetentionStopsAdvertising(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GossipRetention = 2 * time.Second
	cfg.PurgeTimeout = time.Hour
	h := newHarness(t, 0, cfg)
	h.p.HandlePacket(h.dataFrom(1, 1, []byte("m")))
	// The header signature arrives by gossip (receivers cannot forge it);
	// only then can this node re-advertise.
	h.p.HandlePacket(h.gossipFrom(2, wire.MsgID{Origin: 1, Seq: 1}))
	h.run(cfg.GossipInterval + 100*time.Millisecond)
	early := len(h.sentOfKind(wire.KindGossip)[0].Gossip)
	if early != 1 {
		t.Fatalf("fresh message not advertised: %d entries", early)
	}
	h.run(5 * time.Second)
	h.sent = nil
	h.run(cfg.GossipInterval + 100*time.Millisecond)
	for _, g := range h.sentOfKind(wire.KindGossip) {
		if len(g.Gossip) != 0 {
			t.Fatal("message advertised past GossipRetention")
		}
	}
	// Still held and servable though.
	if !h.p.Holds(wire.MsgID{Origin: 1, Seq: 1}) {
		t.Fatal("message purged before PurgeTimeout")
	}
}

func TestSecondHandReportAboutSelfIgnored(t *testing.T) {
	// A Byzantine neighbour accusing *us* must not poison our own tables.
	h := newHarness(t, 0, DefaultConfig())
	st := &wire.OverlayState{Active: true, Suspects: []wire.NodeID{0}}
	h.introduceNeighbors(map[wire.NodeID]*wire.OverlayState{2: st})
	// Nothing to assert on Trust().Level(0) (it is never consulted for
	// self); the protocol must simply not crash and keep operating.
	h.p.Broadcast([]byte("still alive"))
	if len(h.delivered) != 1 {
		t.Fatal("node stopped working after being accused")
	}
}

func TestStatsSnapshot(t *testing.T) {
	h := newHarness(t, 0, DefaultConfig())
	h.p.Broadcast([]byte("a"))
	h.p.HandlePacket(h.dataFrom(1, 1, []byte("b")))
	st := h.p.Stats()
	if st.Accepted != 2 {
		t.Fatalf("Accepted = %d", st.Accepted)
	}
	if h.p.ID() != 0 {
		t.Fatalf("ID = %d", h.p.ID())
	}
}

func TestAbandonedMissingEntriesReaped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PurgeTimeout = 2 * time.Second
	cfg.PurgeInterval = 500 * time.Millisecond
	h := newHarness(t, 0, cfg)
	for i := 0; i < 5; i++ {
		h.p.HandlePacket(h.gossipFrom(2, wire.MsgID{Origin: 1, Seq: wire.Seq(i + 1)}))
	}
	if got := h.p.MissingCount(); got != 5 {
		t.Fatalf("missing = %d, want 5", got)
	}
	h.run(5 * time.Second)
	if got := h.p.MissingCount(); got != 0 {
		t.Fatalf("abandoned missing entries not reaped: %d", got)
	}
}

// TestConfigFieldCeiling holds Config at the 30 fields it had once every knob
// nothing outside this package's tests had ever moved was worked out by the
// code. Each field multiplies the configurations tests, experiments and the
// benchmark have to cover: a new one must replace an old one.
func TestConfigFieldCeiling(t *testing.T) {
	if n := reflect.TypeOf(Config{}).NumField(); n > 30 {
		t.Fatalf("Config has %d fields, want <= 30", n)
	}
}

// TestShortIntervalKeepsGossipTicksApart shortens only the gossip interval,
// as the live tests and examples do. The jitter follows it, so no two ticks
// fall closer than half an interval; a fixed 200 ms jitter around a 100 ms
// period fired a quarter of them back to back.
func TestShortIntervalKeepsGossipTicksApart(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GossipInterval = 100 * time.Millisecond
	cfg.AdaptiveTiming = false
	var ticks []time.Duration // every gossip tick sends one frame: it carries the state record
	var h *harness
	h = newHarnessWith(t, 0, cfg, func(d *Deps) {
		d.Send = func(pkt *wire.Packet) {
			if pkt.Kind == wire.KindGossip {
				ticks = append(ticks, h.eng.Now())
			}
		}
	})
	for len(ticks) <= 200 && h.eng.Now() < time.Minute {
		h.run(time.Second)
	}
	if len(ticks) <= 200 {
		t.Fatalf("%d gossip ticks in %v, want more than 200", len(ticks), h.eng.Now())
	}
	for i := 1; i <= 200; i++ {
		if gap := ticks[i] - ticks[i-1]; gap < cfg.GossipInterval/2 {
			t.Fatalf("gossip ticks %d and %d are %v apart, want >= %v", i-1, i, gap, cfg.GossipInterval/2)
		}
	}
}

// TestRetryBackoffSchedule pins the retransmission waits the goldens were cut
// with: 800 ms doubling per completed attempt, capped at 6.4 s.
func TestRetryBackoffSchedule(t *testing.T) {
	for attempt, ms := range []time.Duration{800, 1600, 3200, 6400, 6400} {
		if got := retryBackoff(attempt); got != ms*time.Millisecond {
			t.Errorf("retryBackoff(%d) = %v, want %v", attempt, got, ms*time.Millisecond)
		}
	}
}

// TestDefaultAdaptiveBounds pins the adaptive-timer bounds of DefaultConfig,
// which the invariant checker's timer-bounds probe and the goldens rely on.
func TestDefaultAdaptiveBounds(t *testing.T) {
	cfg := DefaultConfig()
	if lo, hi := cfg.GossipBounds(); lo != 250*time.Millisecond || hi != 2*time.Second {
		t.Errorf("GossipBounds() = [%v, %v], want [250ms, 2s]", lo, hi)
	}
	if lo, hi := cfg.MuteTimeoutBounds(); lo != 1500*time.Millisecond || hi != 6*time.Second {
		t.Errorf("MuteTimeoutBounds() = [%v, %v], want [1.5s, 6s]", lo, hi)
	}
}

// TestStatsAddCoversEveryCounter sets every field of Stats to a distinct
// value by reflection, so a counter added to the struct but not to counters()
// fails here instead of silently reading zero in every experiment table.
func TestStatsAddCoversEveryCounter(t *testing.T) {
	var one Stats
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Uint64 {
			t.Fatalf("Stats.%s is %s: Add and Div handle uint64 counters only", v.Type().Field(i).Name, v.Field(i).Kind())
		}
		v.Field(i).SetUint(uint64(i + 1))
	}
	sum := one
	sum.Add(one)
	sum.Add(one)
	s := reflect.ValueOf(sum)
	for i := 0; i < s.NumField(); i++ {
		if got, want := s.Field(i).Uint(), 3*uint64(i+1); got != want {
			t.Errorf("after two Adds Stats.%s = %d, want %d", s.Type().Field(i).Name, got, want)
		}
	}
	if sum.Div(3); sum != one {
		t.Errorf("Div(3) of the tripled stats = %+v, want %+v", sum, one)
	}
}
