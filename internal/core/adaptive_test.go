package core

// Tests for ISSUE 6's adaptive-timing and bounded-retransmission layer: the
// retry chain's backoff, cap, give-up accounting and gossiper rotation, and
// the link-quality-driven AIMD timer control with its hard bounds.

import (
	"testing"
	"time"

	"bbcast/internal/wire"
)

// TestRetransmissionBackoffAndGiveUp: a gossiper that never supplies the
// advertised data is re-asked up to RetryMaxAttempts times with growing
// backoff, then the chain gives up explicitly while the missing entry stays
// for the natural gossip-round retry.
func TestRetransmissionBackoffAndGiveUp(t *testing.T) {
	cfg := DefaultConfig()
	// Raise the server-side tolerance above the retry budget so this test
	// exercises the full backoff chain; the tolerance interaction is pinned
	// by TestRetryRespectsRequestTolerance.
	cfg.RequestTolerance = cfg.RetryMaxAttempts + 1
	h := newHarness(t, 0, cfg)
	id := wire.MsgID{Origin: 1, Seq: 7}
	h.p.HandlePacket(h.gossipFrom(2, id))
	h.run(2 * time.Minute)

	reqs := h.sentOfKind(wire.KindRequest)
	want := 1 + cfg.RetryMaxAttempts
	if len(reqs) != want {
		t.Fatalf("requests = %d, want %d (first + %d retries)", len(reqs), want, cfg.RetryMaxAttempts)
	}
	st := h.p.Stats()
	if st.RetriesSent != uint64(cfg.RetryMaxAttempts) {
		t.Fatalf("RetriesSent = %d, want %d", st.RetriesSent, cfg.RetryMaxAttempts)
	}
	if st.RetriesAbandoned != 1 {
		t.Fatalf("RetriesAbandoned = %d, want 1", st.RetriesAbandoned)
	}
	// The backoff grows: each retry fires no earlier than its base backoff
	// after the previous request. With the entry's firstHeard at t=0, the
	// first request fires at RequestDelay and the chain spans at least the
	// summed base backoffs.
	if h.p.MissingCount() == 1 {
		t.Log("missing entry retained after give-up (natural gossip retry still applies)")
	} else if h.p.MissingCount() != 0 {
		t.Fatalf("MissingCount = %d", h.p.MissingCount())
	}
}

// TestRetryStopsWhenDataArrives: a chain in flight is cut short the moment
// the data lands; no abandoned transition is recorded.
func TestRetryStopsWhenDataArrives(t *testing.T) {
	cfg := DefaultConfig()
	h := newHarness(t, 0, cfg)
	id := wire.MsgID{Origin: 1, Seq: 7}
	h.p.HandlePacket(h.gossipFrom(2, id))
	// Let the first request and one retry fire, then supply the data.
	h.run(cfg.RequestDelay + retryBackoffBase + retryBackoffBase/4 + 50*time.Millisecond)
	sentBefore := len(h.sentOfKind(wire.KindRequest))
	h.p.HandlePacket(h.dataFrom(1, 7, []byte("payload")))
	h.run(2 * time.Minute)

	if got := len(h.sentOfKind(wire.KindRequest)); got != sentBefore {
		t.Fatalf("requests grew from %d to %d after the data arrived", sentBefore, got)
	}
	if st := h.p.Stats(); st.RetriesAbandoned != 0 {
		t.Fatalf("RetriesAbandoned = %d after successful recovery, want 0", st.RetriesAbandoned)
	}
	if h.p.MissingCount() != 0 {
		t.Fatalf("MissingCount = %d after recovery, want 0", h.p.MissingCount())
	}
}

// TestRetryTimerOfReapedEntryStaysSilent: an entry abandoned at PurgeTimeout
// leaves its retry timer armed, and the same id is then advertised again by
// another gossiper. The old timer fires while the new entry holds the id and
// must send nothing: the guard compares entries, not ids.
func TestRetryTimerOfReapedEntryStaysSilent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PurgeTimeout = time.Second
	cfg.PurgeInterval = time.Second
	// A long chain that no tolerance cuts short: only the reap ends it.
	cfg.RetryMaxAttempts = 10
	cfg.RequestTolerance = 100
	h := newHarness(t, 0, cfg)
	id := wire.MsgID{Origin: 1, Seq: 7}
	h.p.HandlePacket(h.gossipFrom(2, id))
	// First request at RequestDelay, the first retry about 1 s later; the
	// purge tick at 2 s reaps the entry with the second retry still armed.
	h.run(2*time.Second + time.Millisecond)
	if h.p.MissingCount() != 0 {
		t.Fatalf("MissingCount = %d, want the entry reaped", h.p.MissingCount())
	}
	before := len(h.sentOfKind(wire.KindRequest))
	if before != 2 {
		t.Fatalf("requests before the reap = %d, want the first and one retry", before)
	}
	h.p.HandlePacket(h.gossipFrom(3, id))
	h.run(time.Minute)
	after := h.sentOfKind(wire.KindRequest)[before:]
	if len(after) == 0 {
		t.Fatal("the new entry sent no request")
	}
	for _, r := range after {
		if r.Target != 3 {
			t.Fatalf("request to %d after the reap: the old entry's chain fired for the new one", r.Target)
		}
	}
}

// TestRetryRespectsRequestTolerance: with a single gossiper, the chain stops
// once that target has been asked RequestTolerance times in total — one more
// request would get this node indicted as VERBOSE by a correct server.
func TestRetryRespectsRequestTolerance(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.RetryMaxAttempts < cfg.RequestTolerance {
		t.Skip("default retry budget no longer reaches the tolerance cap")
	}
	h := newHarness(t, 0, cfg)
	id := wire.MsgID{Origin: 1, Seq: 7}
	h.p.HandlePacket(h.gossipFrom(2, id))
	h.run(2 * time.Minute)

	reqs := h.sentOfKind(wire.KindRequest)
	if len(reqs) != cfg.RequestTolerance {
		t.Fatalf("requests = %d, want exactly RequestTolerance (%d)", len(reqs), cfg.RequestTolerance)
	}
	st := h.p.Stats()
	if st.RetriesSent != uint64(cfg.RequestTolerance-1) {
		t.Fatalf("RetriesSent = %d, want %d", st.RetriesSent, cfg.RequestTolerance-1)
	}
	if st.RetriesAbandoned != 1 {
		t.Fatalf("RetriesAbandoned = %d, want 1", st.RetriesAbandoned)
	}
}

// TestRetryRotatesGossipers: with several known gossipers, the retransmission
// chain spreads its attempts over them instead of hammering the first.
func TestRetryRotatesGossipers(t *testing.T) {
	cfg := DefaultConfig()
	h := newHarness(t, 0, cfg)
	id := wire.MsgID{Origin: 1, Seq: 7}
	h.p.HandlePacket(h.gossipFrom(2, id))
	h.p.HandlePacket(h.gossipFrom(3, id))
	h.run(2 * time.Minute)

	reqs := h.sentOfKind(wire.KindRequest)
	// Two first requests (one per gossiper) + RetryMaxAttempts retries.
	if want := 2 + cfg.RetryMaxAttempts; len(reqs) != want {
		t.Fatalf("requests = %d, want %d", len(reqs), want)
	}
	targets := map[wire.NodeID]int{}
	for _, r := range reqs[2:] {
		targets[r.Target]++
	}
	if len(targets) < 2 {
		t.Fatalf("retries all went to one target: %v", targets)
	}
}

// TestAdaptiveTimersDegradeAndRecover drives the link-quality estimator
// directly: a neighbour that keeps the link alive but whose gossip stops
// arriving pushes quality below the threshold, the timers take their
// multiplicative steps (never leaving the configured bounds), and once
// gossip flows again they return additively to nominal.
func TestAdaptiveTimersDegradeAndRecover(t *testing.T) {
	cfg := DefaultConfig()
	h := newHarness(t, 0, cfg)
	gMin, gMax := cfg.GossipBounds()
	mMin, mMax := cfg.MuteTimeoutBounds()
	id := wire.MsgID{Origin: 1, Seq: 1}

	check := func(stage string) {
		if g := h.p.GossipPeriod(); g < gMin || g > gMax {
			t.Fatalf("%s: gossip period %s outside [%s, %s]", stage, g, gMin, gMax)
		}
		if m := h.p.MuteTimeout(); m < mMin || m > mMax {
			t.Fatalf("%s: mute timeout %s outside [%s, %s]", stage, m, mMin, mMax)
		}
	}

	// Healthy phase: one gossip per maintenance window keeps quality high
	// and the timers nominal.
	for i := 0; i < 10; i++ {
		h.p.HandlePacket(h.gossipFrom(2, id))
		h.run(cfg.MaintenanceInterval)
		check("healthy")
	}
	if h.p.GossipPeriod() != cfg.GossipInterval || h.p.MuteTimeout() != cfg.Mute.Timeout {
		t.Fatalf("healthy links moved the timers: gossip %s, mute %s",
			h.p.GossipPeriod(), h.p.MuteTimeout())
	}
	if h.p.LinkQualCount() != 1 {
		t.Fatalf("LinkQualCount = %d, want 1", h.p.LinkQualCount())
	}

	// Degraded phase: the neighbour stays alive (state packets) but its
	// gossip is lost. Quality decays, the timers walk to their degraded
	// bounds, and never beyond them.
	for i := 0; i < 30; i++ {
		h.p.HandlePacket(h.stateFrom(2, &wire.OverlayState{Active: true}))
		h.run(cfg.MaintenanceInterval)
		check("degraded")
	}
	if h.p.GossipPeriod() != gMin {
		t.Fatalf("degraded gossip period = %s, want floor %s", h.p.GossipPeriod(), gMin)
	}
	if h.p.MuteTimeout() != mMax {
		t.Fatalf("degraded mute timeout = %s, want ceiling %s", h.p.MuteTimeout(), mMax)
	}
	if st := h.p.Stats(); st.Adaptations == 0 {
		t.Fatal("no adaptations recorded for a degraded link")
	}

	// Recovery phase: gossip flows again; the timers step back to nominal.
	for i := 0; i < 60; i++ {
		h.p.HandlePacket(h.gossipFrom(2, id))
		h.run(cfg.MaintenanceInterval)
		check("recovering")
	}
	if h.p.GossipPeriod() != cfg.GossipInterval {
		t.Fatalf("recovered gossip period = %s, want nominal %s", h.p.GossipPeriod(), cfg.GossipInterval)
	}
	if h.p.MuteTimeout() != cfg.Mute.Timeout {
		t.Fatalf("recovered mute timeout = %s, want nominal %s", h.p.MuteTimeout(), cfg.Mute.Timeout)
	}
}

// TestAdaptiveTimingDisabledIsStatic: with the gate off, the estimator tracks
// nothing and the timers never move regardless of link behaviour.
func TestAdaptiveTimingDisabledIsStatic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AdaptiveTiming = false
	h := newHarness(t, 0, cfg)
	id := wire.MsgID{Origin: 1, Seq: 1}
	for i := 0; i < 20; i++ {
		h.p.HandlePacket(h.stateFrom(2, &wire.OverlayState{Active: true}))
		if i < 3 {
			h.p.HandlePacket(h.gossipFrom(2, id))
		}
		h.run(cfg.MaintenanceInterval)
	}
	if h.p.LinkQualCount() != 0 {
		t.Fatalf("LinkQualCount = %d with adaptation off, want 0", h.p.LinkQualCount())
	}
	if h.p.GossipPeriod() != cfg.GossipInterval || h.p.MuteTimeout() != cfg.Mute.Timeout {
		t.Fatalf("static timers moved: gossip %s, mute %s", h.p.GossipPeriod(), h.p.MuteTimeout())
	}
	if st := h.p.Stats(); st.Adaptations != 0 {
		t.Fatalf("Adaptations = %d with adaptation off, want 0", st.Adaptations)
	}
}

// TestLinkQualExpiresWithNeighbors: estimator entries die with their
// neighbour-table entries, so MaxNeighbors bounds both.
func TestLinkQualExpiresWithNeighbors(t *testing.T) {
	cfg := DefaultConfig()
	h := newHarness(t, 0, cfg)
	id := wire.MsgID{Origin: 1, Seq: 1}
	for n := wire.NodeID(2); n <= 5; n++ {
		h.p.HandlePacket(h.gossipFrom(n, id))
	}
	h.run(cfg.MaintenanceInterval)
	if h.p.LinkQualCount() != 4 {
		t.Fatalf("LinkQualCount = %d, want 4", h.p.LinkQualCount())
	}
	// Silence past NeighborTTL expires the neighbours and their estimators.
	h.run(cfg.NeighborTTL + 2*cfg.MaintenanceInterval)
	if h.p.LinkQualCount() != 0 {
		t.Fatalf("LinkQualCount = %d after neighbour expiry, want 0", h.p.LinkQualCount())
	}
	if h.p.NeighborCount() != 0 {
		t.Fatalf("NeighborCount = %d after expiry, want 0", h.p.NeighborCount())
	}
}
