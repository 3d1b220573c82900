package runner

// A Scenario.Observer must see the same events the built-in collector sees:
// a RegistryObserver attached to a run exports the same numbers (and the
// same JSON schema) a live node serves, which is the whole point of the
// shared observability layer.

import (
	"math"
	"strings"
	"testing"
	"time"

	"bbcast/internal/obsv"
	"bbcast/internal/wire"
)

func TestScenarioObserverRegistryMatchesResults(t *testing.T) {
	reg := obsv.NewRegistry()
	sc := quickScenario()
	sc.N = 30
	sc.Workload.End = 35 * time.Second
	sc.Duration = 45 * time.Second
	sc.Observer = obsv.NewRegistryObserver(reg)
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	d := reg.Snapshot()

	if got := d.Counters[obsv.MetricInjectsTotal]; got != uint64(res.Injected) {
		t.Fatalf("registry injects = %d, results say %d", got, res.Injected)
	}
	var tx uint64
	for name, v := range d.Counters {
		if strings.HasPrefix(name, obsv.MetricTxTotal+"{") {
			tx += v
		}
	}
	if tx != res.TotalTx {
		t.Fatalf("registry tx = %d, results say %d", tx, res.TotalTx)
	}

	// The latency summary holds exactly the collector's samples (same
	// injects, same accepts, same originator exclusion), so the nearest-rank
	// quantiles must agree to float rounding.
	st := d.Summaries[obsv.MetricDeliveryLatency]
	if st.Count == 0 {
		t.Fatal("no delivery latency samples in registry")
	}
	for _, q := range []struct {
		name string
		reg  float64
		want time.Duration
	}{
		{"p50", st.P50, res.LatP50},
		{"p95", st.P95, res.LatP95},
	} {
		if diff := math.Abs(q.reg - q.want.Seconds()); diff > 0.001 {
			t.Fatalf("%s: registry %.6fs, results %v", q.name, q.reg, q.want)
		}
	}
	mean := st.Sum / float64(st.Count)
	if diff := math.Abs(mean - res.LatMean.Seconds()); diff > 0.001 {
		t.Fatalf("mean: registry %.6fs, results %v", mean, res.LatMean)
	}

	// Accepts at correct nodes only: adversary-free run, so every node's
	// accepts count — and each message is accepted at most once per node.
	if got := d.Counters[obsv.MetricAcceptsTotal]; got == 0 {
		t.Fatal("no accepts in registry")
	}
	if got := d.Counters[obsv.MetricRoleChanges]; got == 0 {
		t.Fatal("no role changes in registry")
	}
}

func TestScenarioObserverSkipsAdversaryAccepts(t *testing.T) {
	reg := obsv.NewRegistry()
	sc := quickScenario()
	sc.N = 30
	sc.Workload.End = 30 * time.Second
	sc.Duration = 40 * time.Second
	sc.Adversaries = []Adversaries{{Kind: AdvMute, Count: 5}}
	sc.Observer = obsv.NewRegistryObserver(reg)
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Latency samples come only from correct nodes' accepts: with 5 mute
	// adversaries among 30 nodes, at most (correct nodes - originator) per
	// message.
	st := reg.Snapshot().Summaries[obsv.MetricDeliveryLatency]
	if max := uint64(res.Injected * (30 - 5 - 1)); st.Count > max {
		t.Fatalf("latency samples = %d, max %d with adversary accepts excluded", st.Count, max)
	}
}

// sigCounter counts real signature verifications and accepts across a run.
type sigCounter struct {
	obsv.Nop
	verifies, accepts int
}

func (c *sigCounter) OnSigVerify(time.Duration, wire.NodeID, bool, time.Duration) { c.verifies++ }

func (c *sigCounter) OnAccept(time.Duration, wire.NodeID, wire.MsgID, []byte, wire.Meta) {
	c.accepts++
}

// TestGridRunVerifyCeiling holds the whole run to the verifications the
// det-byzcast-grid golden shape needs now that every signed record is checked
// once per node: 6.873 per accept (4117 over 599), a pure function of code and
// seed. The ceiling leaves 5 %; without the seen-valid-before reuse of state
// records and request headers the same run made 10.010 per accept.
func TestGridRunVerifyCeiling(t *testing.T) {
	sc := goldenConfigs()[0]
	c := &sigCounter{}
	sc.Observer = c
	if _, err := Run(sc); err != nil {
		t.Fatal(err)
	}
	perAccept := float64(c.verifies) / float64(c.accepts)
	t.Logf("%d verifications, %d accepts, %.3f per accept", c.verifies, c.accepts, perAccept)
	const ceiling = 7.22
	if perAccept > ceiling {
		t.Errorf("%.3f signature verifications per accept, ceiling is %v", perAccept, ceiling)
	}
}
