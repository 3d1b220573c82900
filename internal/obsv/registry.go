package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down. Safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the value by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Summary is a bounded-memory sample distribution exposing count, sum and
// the p50/p95/p99 quantiles. It keeps the most recent Cap samples in a ring,
// so quantiles reflect recent behaviour once the ring wraps. Safe for
// concurrent use.
type Summary struct {
	mu    sync.Mutex
	count uint64
	sum   float64
	ring  []float64
	n     int // valid samples in ring
	next  int // ring write cursor
}

// DefaultSummaryCap bounds summary memory when no explicit cap is given:
// large enough that a full default experiment's delivery latencies all fit.
const DefaultSummaryCap = 16384

// Observe records one sample.
func (s *Summary) Observe(v float64) {
	s.mu.Lock()
	s.count++
	s.sum += v
	s.ring[s.next] = v
	s.next = (s.next + 1) % len(s.ring)
	if s.n < len(s.ring) {
		s.n++
	}
	s.mu.Unlock()
}

// SummaryStats is a point-in-time digest of a Summary.
type SummaryStats struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Stats digests the summary: total count and sum, and Quantile over the
// retained samples.
func (s *Summary) Stats() SummaryStats {
	s.mu.Lock()
	st := SummaryStats{Count: s.count, Sum: s.sum}
	samples := make([]float64, s.n)
	copy(samples, s.ring[:s.n])
	s.mu.Unlock()
	if len(samples) == 0 {
		return st
	}
	sort.Float64s(samples)
	st.P50 = Quantile(samples, 0.50)
	st.P95 = Quantile(samples, 0.95)
	st.P99 = Quantile(samples, 0.99)
	return st
}

// Quantile returns the nearest-rank q-quantile of sorted samples: the one at
// index round(q·n) − 1, clamped to the slice; the zero value when there are
// none. The live summaries and the simulation's metrics both digest through
// it, so they agree on identical sample sets.
func Quantile[T any](sorted []T, q float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}

// Registry is a named collection of counters, gauges and summaries with
// Prometheus-style text exposition and a JSON dump sharing one schema
// between live nodes and simulation runs. Metric names may carry a label
// suffix in Prometheus syntax (`name{k="v"}`); the base name groups the
// exposition. Safe for concurrent use; get-or-create calls are intended for
// setup, with handles cached by the hot path.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	summaries map[string]*Summary
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		summaries: make(map[string]*Summary),
	}
}

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Summary returns the summary registered under name, creating it with the
// given sample capacity if needed (cap <= 0 uses DefaultSummaryCap).
func (r *Registry) Summary(name string, cap int) *Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.summaries[name]
	if s == nil {
		if cap <= 0 {
			cap = DefaultSummaryCap
		}
		s = &Summary{ring: make([]float64, cap)}
		r.summaries[name] = s
	}
	return s
}

// baseName strips a label suffix: `a_total{kind="data"}` -> `a_total`.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// labelled re-renders name with an extra label appended inside the braces
// (or a fresh label set when it has none).
func labelled(name, k, v string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:len(name)-1] + "," + k + "=\"" + v + "\"}"
	}
	return name + "{" + k + "=\"" + v + "\"}"
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteProm writes the registry in the Prometheus text exposition format:
// counters and gauges one line each, summaries as quantile series plus _sum
// and _count.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	summaries := make(map[string]*Summary, len(r.summaries))
	for k, v := range r.summaries {
		summaries[k] = v
	}
	r.mu.Unlock()

	typed := make(map[string]bool)
	typeLine := func(name, typ string) string {
		base := baseName(name)
		if typed[base] {
			return ""
		}
		typed[base] = true
		return "# TYPE " + base + " " + typ + "\n"
	}
	var b strings.Builder
	for _, name := range sortedKeys(counters) {
		b.WriteString(typeLine(name, "counter"))
		fmt.Fprintf(&b, "%s %d\n", name, counters[name].Value())
	}
	for _, name := range sortedKeys(gauges) {
		b.WriteString(typeLine(name, "gauge"))
		fmt.Fprintf(&b, "%s %g\n", name, gauges[name].Value())
	}
	for _, name := range sortedKeys(summaries) {
		st := summaries[name].Stats()
		b.WriteString(typeLine(name, "summary"))
		fmt.Fprintf(&b, "%s %g\n", labelled(name, "quantile", "0.5"), st.P50)
		fmt.Fprintf(&b, "%s %g\n", labelled(name, "quantile", "0.95"), st.P95)
		fmt.Fprintf(&b, "%s %g\n", labelled(name, "quantile", "0.99"), st.P99)
		fmt.Fprintf(&b, "%s_sum%s %g\n", baseName(name), labelSuffix(name), st.Sum)
		fmt.Fprintf(&b, "%s_count%s %d\n", baseName(name), labelSuffix(name), st.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func labelSuffix(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[i:]
	}
	return ""
}

// Dump is the JSON form of a registry: one schema shared by live nodes
// (scraped over HTTP) and simulation runs (`bbsim -metrics-out`).
type Dump struct {
	Counters  map[string]uint64       `json:"counters"`
	Gauges    map[string]float64      `json:"gauges"`
	Summaries map[string]SummaryStats `json:"summaries"`
}

// Snapshot digests every metric into a Dump.
func (r *Registry) Snapshot() Dump {
	r.mu.Lock()
	d := Dump{
		Counters:  make(map[string]uint64, len(r.counters)),
		Gauges:    make(map[string]float64, len(r.gauges)),
		Summaries: make(map[string]SummaryStats, len(r.summaries)),
	}
	summaries := make(map[string]*Summary, len(r.summaries))
	for k, v := range r.counters {
		d.Counters[k] = v.Value()
	}
	for k, v := range r.gauges {
		d.Gauges[k] = v.Value()
	}
	for k, v := range r.summaries {
		summaries[k] = v
	}
	r.mu.Unlock()
	for k, v := range summaries {
		d.Summaries[k] = v.Stats()
	}
	return d
}

// WriteJSON writes the Snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
