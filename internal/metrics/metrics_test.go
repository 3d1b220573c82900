package metrics

import (
	"strings"
	"testing"
	"time"

	"bbcast/internal/obsv"
	"bbcast/internal/wire"
)

func tx(c *Collector, kind wire.Kind) {
	c.OnPacketTx(0, 0, kind, wire.MsgID{}, wire.Meta{})
}

func TestTransmissionCounting(t *testing.T) {
	c := NewCollector()
	tx(c, wire.KindData)
	tx(c, wire.KindData)
	tx(c, wire.KindGossip)
	r := c.Summarize("p", 3, func(wire.NodeID) int { return 2 })
	if r.TotalTx != 3 || r.TxByKind[wire.KindData] != 2 || r.TxByKind[wire.KindGossip] != 1 {
		t.Fatalf("tx counts wrong: %+v", r.TxByKind)
	}
}

func TestDeliveryRatioPerMessage(t *testing.T) {
	c := NewCollector()
	id1 := wire.MsgID{Origin: 0, Seq: 1}
	id2 := wire.MsgID{Origin: 0, Seq: 2}
	c.OnInject(0, 0, id1)
	c.OnInject(0, 0, id2)
	// id1 reaches both receivers, id2 reaches one of two.
	c.OnAccept(time.Second, 1, id1, nil, wire.Meta{})
	c.OnAccept(time.Second, 2, id1, nil, wire.Meta{})
	c.OnAccept(time.Second, 1, id2, nil, wire.Meta{})
	r := c.Summarize("p", 3, func(wire.NodeID) int { return 2 })
	if r.DeliveryRatio != 0.75 {
		t.Fatalf("delivery = %v, want 0.75", r.DeliveryRatio)
	}
	if r.Injected != 2 {
		t.Fatalf("injected = %d", r.Injected)
	}
}

func TestOriginatorAcceptExcluded(t *testing.T) {
	c := NewCollector()
	id := wire.MsgID{Origin: 0, Seq: 1}
	c.OnInject(0, 0, id)
	c.OnAccept(0, 0, id, nil, wire.Meta{}) // own delivery must not count toward the ratio
	r := c.Summarize("p", 2, func(wire.NodeID) int { return 1 })
	if r.DeliveryRatio != 0 {
		t.Fatalf("delivery = %v, want 0", r.DeliveryRatio)
	}
}

func TestRepeatAcceptIgnored(t *testing.T) {
	c := NewCollector()
	id := wire.MsgID{Origin: 0, Seq: 1}
	c.OnInject(0, 0, id)
	c.OnAccept(time.Second, 1, id, nil, wire.Meta{})
	c.OnAccept(2*time.Second, 1, id, nil, wire.Meta{}) // later duplicate: first timestamp wins
	r := c.Summarize("p", 2, func(wire.NodeID) int { return 1 })
	if r.DeliveryRatio != 1 {
		t.Fatalf("delivery = %v", r.DeliveryRatio)
	}
	if r.LatMean != time.Second {
		t.Fatalf("latency = %v, want 1s (first accept)", r.LatMean)
	}
}

func TestLatencyPercentiles(t *testing.T) {
	c := NewCollector()
	id := wire.MsgID{Origin: 0, Seq: 1}
	c.OnInject(0, 0, id)
	for i := 1; i <= 100; i++ {
		c.OnAccept(time.Duration(i)*time.Millisecond, wire.NodeID(i), id, nil, wire.Meta{})
	}
	r := c.Summarize("p", 101, func(wire.NodeID) int { return 100 })
	if r.LatP50 != 50*time.Millisecond {
		t.Fatalf("p50 = %v", r.LatP50)
	}
	if r.LatP95 != 95*time.Millisecond {
		t.Fatalf("p95 = %v", r.LatP95)
	}
	if r.LatMax != 100*time.Millisecond {
		t.Fatalf("max = %v", r.LatMax)
	}
	if r.LatMean != 50500*time.Microsecond {
		t.Fatalf("mean = %v", r.LatMean)
	}
}

func TestEmptyCollector(t *testing.T) {
	c := NewCollector()
	r := c.Summarize("p", 0, func(wire.NodeID) int { return 0 })
	if r.DeliveryRatio != 0 || r.LatMean != 0 || r.TotalTx != 0 {
		t.Fatalf("empty summary not zero: %+v", r)
	}
}

func TestTxPerMessage(t *testing.T) {
	c := NewCollector()
	c.OnInject(0, 0, wire.MsgID{Origin: 0, Seq: 1})
	c.OnInject(0, 0, wire.MsgID{Origin: 0, Seq: 2})
	for i := 0; i < 10; i++ {
		tx(c, wire.KindData)
	}
	r := c.Summarize("p", 2, func(wire.NodeID) int { return 1 })
	if r.TxPerMessage != 5 {
		t.Fatalf("tx/msg = %v", r.TxPerMessage)
	}
}

func TestStringAndBreakdown(t *testing.T) {
	c := NewCollector()
	tx(c, wire.KindData)
	tx(c, wire.KindGossip)
	r := c.Summarize("byzcast", 5, func(wire.NodeID) int { return 4 })
	if !strings.Contains(r.String(), "byzcast") {
		t.Fatalf("String() = %q", r.String())
	}
	bd := r.KindBreakdown()
	if !strings.Contains(bd, "data=1") || !strings.Contains(bd, "gossip=1") {
		t.Fatalf("KindBreakdown() = %q", bd)
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	if obsv.Quantile([]time.Duration(nil), 0.5) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	one := []time.Duration{7}
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99} {
		if got := obsv.Quantile(one, q); got != 7 {
			t.Fatalf("obsv.Quantile(len 1, %v) = %v, want 7", q, got)
		}
	}
}

func TestPercentileNearestRankRounding(t *testing.T) {
	// Nearest-rank with idx = round(q*n) - 1: for n=10 and q=0.95,
	// round(9.5) = 10 → index 9 (the max), not index 8.
	ten := make([]time.Duration, 10)
	for i := range ten {
		ten[i] = time.Duration(i+1) * time.Millisecond
	}
	if got := obsv.Quantile(ten, 0.95); got != 10*time.Millisecond {
		t.Fatalf("p95 of 1..10ms = %v, want 10ms", got)
	}
	if got := obsv.Quantile(ten, 0.5); got != 5*time.Millisecond {
		t.Fatalf("p50 of 1..10ms = %v, want 5ms", got)
	}
	// n=20, q=0.95: round(19) = 19 → index 18, the 19th value.
	twenty := make([]time.Duration, 20)
	for i := range twenty {
		twenty[i] = time.Duration(i+1) * time.Millisecond
	}
	if got := obsv.Quantile(twenty, 0.95); got != 19*time.Millisecond {
		t.Fatalf("p95 of 1..20ms = %v, want 19ms", got)
	}
}

func TestTimelineBucketsLatencies(t *testing.T) {
	c := NewCollector()
	id1 := wire.MsgID{Origin: 0, Seq: 1} // injected in bucket 0
	id2 := wire.MsgID{Origin: 0, Seq: 2} // injected in bucket 2
	c.OnInject(1*time.Second, 0, id1)
	c.OnInject(25*time.Second, 0, id2)
	c.OnAccept(1500*time.Millisecond, 1, id1, nil, wire.Meta{}) // 500 ms
	c.OnAccept(2*time.Second, 2, id1, nil, wire.Meta{})         // 1 s
	c.OnAccept(1100*time.Millisecond, 0, id1, nil, wire.Meta{}) // originator: excluded
	c.OnAccept(26*time.Second, 1, id2, nil, wire.Meta{})        // 1 s
	tl := c.Timeline(10 * time.Second)
	if len(tl) != 3 {
		t.Fatalf("buckets = %d, want 3", len(tl))
	}
	if tl[0].Count != 2 || tl[0].Mean != 750*time.Millisecond {
		t.Fatalf("bucket 0 = %+v", tl[0])
	}
	if tl[1].Count != 0 {
		t.Fatalf("bucket 1 should be empty: %+v", tl[1])
	}
	if tl[1].Start != 10*time.Second {
		t.Fatalf("gap bucket start = %v", tl[1].Start)
	}
	if tl[2].Count != 1 || tl[2].Mean != time.Second {
		t.Fatalf("bucket 2 = %+v", tl[2])
	}
	if tl[2].Start != 20*time.Second {
		t.Fatalf("bucket 2 start = %v", tl[2].Start)
	}
}

func TestTimelineZeroBucket(t *testing.T) {
	c := NewCollector()
	if got := c.Timeline(0); got != nil {
		t.Fatalf("zero bucket returned %v", got)
	}
}

func TestTimelineNoInjections(t *testing.T) {
	// With nothing injected there is no timeline — not a single phantom
	// zero bucket.
	c := NewCollector()
	if got := c.Timeline(10 * time.Second); got != nil {
		t.Fatalf("empty-collector timeline = %v, want nil", got)
	}
}

func TestInjectedCount(t *testing.T) {
	c := NewCollector()
	c.OnInject(0, 0, wire.MsgID{Origin: 0, Seq: 1})
	if c.Injected() != 1 {
		t.Fatalf("Injected = %d", c.Injected())
	}
}

func TestEligibleZeroCountsAsDelivered(t *testing.T) {
	// A message with no eligible receivers (e.g. every other node is
	// Byzantine) must not drag the ratio down.
	c := NewCollector()
	c.OnInject(0, 0, wire.MsgID{Origin: 0, Seq: 1})
	r := c.Summarize("p", 1, func(wire.NodeID) int { return 0 })
	if r.DeliveryRatio != 1 {
		t.Fatalf("delivery = %v, want 1 for zero eligible receivers", r.DeliveryRatio)
	}
}
