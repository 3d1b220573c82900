package obsv

import (
	"testing"
	"time"

	"bbcast/internal/overlay"
	"bbcast/internal/wire"
)

func TestRegistryObserverCountsByKind(t *testing.T) {
	r := NewRegistry()
	o := NewRegistryObserver(r)
	o.OnPacketTx(0, 1, wire.KindData, wire.MsgID{}, wire.Meta{})
	o.OnPacketTx(0, 1, wire.KindData, wire.MsgID{}, wire.Meta{})
	o.OnPacketRx(0, 2, wire.KindGossip, wire.MsgID{}, wire.Meta{})
	o.OnPacketRx(0, 2, wire.Kind(99), wire.MsgID{}, wire.Meta{}) // out of range → "unknown"
	if got := r.Counter(`bbcast_tx_total{kind="data"}`).Value(); got != 2 {
		t.Fatalf("tx data = %d", got)
	}
	if got := r.Counter(`bbcast_rx_total{kind="gossip"}`).Value(); got != 1 {
		t.Fatalf("rx gossip = %d", got)
	}
	if got := r.Counter(`bbcast_rx_total{kind="unknown"}`).Value(); got != 1 {
		t.Fatalf("rx unknown = %d", got)
	}
}

func TestRegistryObserverDeliveryLatency(t *testing.T) {
	r := NewRegistry()
	o := NewRegistryObserver(r)
	id := wire.MsgID{Origin: 1, Seq: 1}
	o.OnInject(time.Second, 1, id)
	o.OnAccept(time.Second, 1, id, nil, wire.Meta{})                  // originator: excluded
	o.OnAccept(1500*time.Millisecond, 2, id, nil, wire.Meta{})        // 0.5 s
	o.OnAccept(3*time.Second, 3, id, nil, wire.Meta{})                // 2 s
	o.OnAccept(0, 4, wire.MsgID{Origin: 9, Seq: 9}, nil, wire.Meta{}) // unknown inject: counted, no latency
	if got := r.Counter(MetricInjectsTotal).Value(); got != 1 {
		t.Fatalf("injects = %d", got)
	}
	if got := r.Counter(MetricAcceptsTotal).Value(); got != 4 {
		t.Fatalf("accepts = %d", got)
	}
	st := r.Summary(MetricDeliveryLatency, 0).Stats()
	if st.Count != 2 || st.Sum != 2.5 {
		t.Fatalf("latency = %+v, want count 2 sum 2.5", st)
	}
}

func TestRegistryObserverLineageMetrics(t *testing.T) {
	r := NewRegistry()
	o := NewRegistryObserver(r)
	id := wire.MsgID{Origin: 1, Seq: 1}
	o.OnInject(time.Second, 1, id)
	o.OnAccept(time.Second, 1, id, nil, wire.Meta{})                           // own delivery: no hop sample
	o.OnAccept(2*time.Second, 2, id, nil, wire.Meta{Hops: 2})                  // data path
	o.OnAccept(3*time.Second, 3, id, nil, wire.Meta{Hops: 4, Recovered: true}) // via recovery
	o.OnForwardSuppressed(3*time.Second, 2, id, wire.Meta{Frame: 7})
	st := r.Summary(MetricAcceptHops, 0).Stats()
	if st.Count != 2 || st.Sum != 6 {
		t.Fatalf("accept hops = %+v, want count 2 sum 6", st)
	}
	if got := r.Counter(MetricRecoveryDeliveries).Value(); got != 1 {
		t.Fatalf("recovery deliveries = %d, want 1", got)
	}
	if got := r.Counter(MetricSuppressedTotal).Value(); got != 1 {
		t.Fatalf("suppressed = %d, want 1", got)
	}
}

func TestRegistryObserverOverlayActiveGauge(t *testing.T) {
	r := NewRegistry()
	o := NewRegistryObserver(r)
	o.OnRoleChange(0, 1, overlay.Dominator)
	o.OnRoleChange(0, 2, overlay.Bridge)
	o.OnRoleChange(0, 1, overlay.Bridge) // still active: no delta
	o.OnRoleChange(0, 2, overlay.Passive)
	if got := r.Gauge(MetricOverlayActive).Value(); got != 1 {
		t.Fatalf("active gauge = %v, want 1", got)
	}
	if got := r.Counter(MetricRoleChanges).Value(); got != 4 {
		t.Fatalf("role changes = %d", got)
	}
}

func TestRegistryObserverSuspicions(t *testing.T) {
	r := NewRegistry()
	o := NewRegistryObserver(r)
	o.OnSuspicion(0, 1, 7, DetectorMute, true)
	o.OnSuspicion(0, 1, 7, DetectorMute, true) // dup raise: counter yes, gauge no
	o.OnSuspicion(0, 2, 7, DetectorVerbose, true)
	o.OnSuspicion(0, 1, 7, DetectorMute, false)
	if got := r.Counter(`bbcast_suspicions_total{detector="mute",event="raised"}`).Value(); got != 2 {
		t.Fatalf("mute raised = %d", got)
	}
	if got := r.Counter(`bbcast_suspicions_total{detector="mute",event="cleared"}`).Value(); got != 1 {
		t.Fatalf("mute cleared = %d", got)
	}
	if got := r.Gauge(MetricSuspectedNodes).Value(); got != 1 {
		t.Fatalf("suspected gauge = %v, want 1 (verbose still standing)", got)
	}
}

func TestRegistryObserverSigVerify(t *testing.T) {
	r := NewRegistry()
	o := NewRegistryObserver(r)
	o.OnSigVerify(0, 1, true, 2*time.Millisecond)
	o.OnSigVerify(0, 1, false, time.Millisecond)
	if got := r.Counter(MetricSigVerifyFails).Value(); got != 1 {
		t.Fatalf("fails = %d", got)
	}
	if st := r.Summary(MetricSigVerifySecs, 0).Stats(); st.Count != 2 {
		t.Fatalf("verify summary = %+v", st)
	}
}

func TestRegistryObserverQueueDepthSumsNodes(t *testing.T) {
	r := NewRegistry()
	o := NewRegistryObserver(r)
	o.OnQueueDepth(0, 1, QueueStore, 5)
	o.OnQueueDepth(0, 2, QueueStore, 3)
	o.OnQueueDepth(0, 1, QueueStore, 2) // resample replaces node 1's last value
	if got := r.Gauge(`bbcast_queue_depth{queue="store"}`).Value(); got != 5 {
		t.Fatalf("store depth = %v, want 5 (2+3)", got)
	}
}

func TestRegistryObserverExposesFullSchemaWhenIdle(t *testing.T) {
	r := NewRegistry()
	NewRegistryObserver(r)
	d := r.Snapshot()
	for _, name := range []string{
		`bbcast_tx_total{kind="data"}`, `bbcast_rx_total{kind="overlay-state"}`,
		MetricAcceptsTotal, MetricInjectsTotal, MetricRoleChanges, MetricSigVerifyFails,
		MetricRecoveryDeliveries, MetricSuppressedTotal,
	} {
		if _, ok := d.Counters[name]; !ok {
			t.Fatalf("idle schema missing counter %q", name)
		}
	}
	for _, name := range []string{
		MetricOverlayActive, MetricSuspectedNodes, `bbcast_queue_depth{queue="missing"}`,
	} {
		if _, ok := d.Gauges[name]; !ok {
			t.Fatalf("idle schema missing gauge %q", name)
		}
	}
	for _, name := range []string{MetricDeliveryLatency, MetricSigVerifySecs, MetricAcceptHops} {
		if _, ok := d.Summaries[name]; !ok {
			t.Fatalf("idle schema missing summary %q", name)
		}
	}
}
