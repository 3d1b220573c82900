package experiments

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"bbcast/internal/loadgen"
	"bbcast/internal/runner"
	"bbcast/internal/trace"
	"bbcast/internal/wire"
)

// TestKneePerOriginDeliverySpread holds E16's quick knee cell (16 msg/s,
// Poisson) to an even delivery across origins: each origin's mean delivery,
// (accepts-1)/(nodes-1) over its messages, read from the run's trace, may
// differ from any other origin's by at most 0.02.
func TestKneePerOriginDeliverySpread(t *testing.T) {
	c := Config{Quick: true, Seed: 1}.kneeCell(16, loadgen.Poisson)
	var buf bytes.Buffer
	c.sc.Trace = &buf
	if _, err := runner.Run(c.sc); err != nil {
		t.Fatal(err)
	}
	d, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sum := map[wire.NodeID]float64{}
	count := map[wire.NodeID]int{}
	for _, m := range d.Messages {
		if m.Injected {
			sum[m.Origin] += float64(m.Accepts-1) / float64(d.Nodes-1)
			count[m.Origin]++
		}
	}
	if len(count) < 2 {
		t.Fatalf("trace holds %d origins, want the cell's senders", len(count))
	}
	origins := make([]wire.NodeID, 0, len(count))
	for o := range count {
		origins = append(origins, o)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	lo, hi := 1.0, 0.0
	var table []string
	for _, o := range origins {
		mean := sum[o] / float64(count[o])
		lo, hi = min(lo, mean), max(hi, mean)
		table = append(table, fmt.Sprintf("%d:%.3f", o, mean))
	}
	if hi-lo > 0.02 {
		t.Fatalf("per-origin delivery spread %.3f > 0.02 (origin:mean %s)", hi-lo, strings.Join(table, " "))
	}
}
