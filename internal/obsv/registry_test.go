package obsv

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if r.Counter("c_total") != c {
		t.Fatal("get-or-create returned a different counter")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
}

func TestSummaryStatsNearestRank(t *testing.T) {
	r := NewRegistry()
	s := r.Summary("lat", 0)
	for i := 1; i <= 100; i++ {
		s.Observe(float64(i))
	}
	st := s.Stats()
	if st.Count != 100 || st.Sum != 5050 {
		t.Fatalf("count/sum = %d/%v", st.Count, st.Sum)
	}
	if st.P50 != 50 || st.P95 != 95 || st.P99 != 99 {
		t.Fatalf("quantiles = %v/%v/%v, want 50/95/99", st.P50, st.P95, st.P99)
	}
}

func TestSummaryRingWrap(t *testing.T) {
	r := NewRegistry()
	s := r.Summary("lat", 4)
	for i := 1; i <= 10; i++ {
		s.Observe(float64(i))
	}
	st := s.Stats()
	// Count and sum cover everything; quantiles only the retained window
	// (7, 8, 9, 10).
	if st.Count != 10 || st.Sum != 55 {
		t.Fatalf("count/sum = %d/%v", st.Count, st.Sum)
	}
	if st.P50 != 8 || st.P99 != 10 {
		t.Fatalf("windowed quantiles = %v/%v, want 8/10", st.P50, st.P99)
	}
}

func TestEmptySummaryStats(t *testing.T) {
	r := NewRegistry()
	if st := r.Summary("lat", 2).Stats(); st != (SummaryStats{}) {
		t.Fatalf("empty summary stats = %+v", st)
	}
}

func TestQuantileMatchesMetricsRounding(t *testing.T) {
	ten := make([]float64, 10)
	for i := range ten {
		ten[i] = float64(i + 1)
	}
	// round(0.95*10) = 10 → index 9, the max (mirrors
	// metrics.TestPercentileNearestRankRounding).
	if got := Quantile(ten, 0.95); got != 10 {
		t.Fatalf("p95 of 1..10 = %v, want 10", got)
	}
	if got := Quantile(ten[:1], 0.01); got != 1 {
		t.Fatalf("low quantile of singleton = %v, want 1", got)
	}
}

func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter(`bbcast_tx_total{kind="data"}`).Add(3)
	r.Counter(`bbcast_tx_total{kind="gossip"}`).Add(7)
	r.Gauge("bbcast_overlay_active").Set(1)
	s := r.Summary("bbcast_delivery_latency_seconds", 8)
	s.Observe(0.25)
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE bbcast_tx_total counter\n",
		"bbcast_tx_total{kind=\"data\"} 3\n",
		"bbcast_tx_total{kind=\"gossip\"} 7\n",
		"# TYPE bbcast_overlay_active gauge\n",
		"# TYPE bbcast_delivery_latency_seconds summary\n",
		"bbcast_delivery_latency_seconds{quantile=\"0.95\"} 0.25\n",
		"bbcast_delivery_latency_seconds_sum 0.25\n",
		"bbcast_delivery_latency_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE bbcast_tx_total") != 1 {
		t.Fatalf("labelled series must share one TYPE line:\n%s", out)
	}
}

func TestSnapshotJSONSchema(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Inc()
	r.Gauge("g").Set(0.5)
	r.Summary("s_seconds", 4).Observe(2)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal([]byte(b.String()), &d); err != nil {
		t.Fatalf("dump does not round-trip: %v", err)
	}
	if d.Counters["c_total"] != 1 || d.Gauges["g"] != 0.5 {
		t.Fatalf("dump = %+v", d)
	}
	if st := d.Summaries["s_seconds"]; st.Count != 1 || st.P50 != 2 {
		t.Fatalf("summary dump = %+v", st)
	}
}

func TestLabelHelpers(t *testing.T) {
	if got := labelled("a_total", "k", "v"); got != `a_total{k="v"}` {
		t.Fatalf("labelled = %q", got)
	}
	if got := labelled(`a_total{k="v"}`, "e", "x"); got != `a_total{k="v",e="x"}` {
		t.Fatalf("labelled append = %q", got)
	}
	if baseName(`a_total{k="v"}`) != "a_total" || labelSuffix(`a_total{k="v"}`) != `{k="v"}` {
		t.Fatal("baseName/labelSuffix disagree")
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("c_total").Inc()
				r.Gauge("g").Add(1)
				r.Summary("s", 64).Observe(float64(j))
				if j%100 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total").Value(); got != 4000 {
		t.Fatalf("counter = %d, want 4000", got)
	}
	if got := r.Gauge("g").Value(); got != 4000 {
		t.Fatalf("gauge = %v, want 4000", got)
	}
	if st := r.Summary("s", 64).Stats(); st.Count != 4000 {
		t.Fatalf("summary count = %d, want 4000", st.Count)
	}
}
