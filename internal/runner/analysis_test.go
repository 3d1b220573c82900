package runner

// Empirical checks of the paper's §3.4.1 analysis: the dissemination-time
// bound and the buffer-size bound. The bounds are deliberately loose in the
// paper; the tests verify the implementation stays inside them by generous
// margins and that the quantities scale the way the analysis says.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"bbcast/internal/core"
)

// maxTimeout mirrors the paper's max_timeout = gossip_timeout +
// request_timeout + rebroadcast_timeout + 3β (the longest jittered gossip
// period, a fifth over the interval; the MUTE timeout as the rebroadcast
// allowance; a conservative per-hop β of 10 ms).
func maxTimeout(cfg core.Config) time.Duration {
	return cfg.GossipInterval + cfg.GossipInterval/5 + cfg.RequestDelay + cfg.Mute.Timeout + 3*10*time.Millisecond
}

func TestDisseminationTimeBound(t *testing.T) {
	// §3.4.1: in a static network every correct node receives each message
	// within max_timeout·(n−1); our measured worst case must respect it.
	sc := quickScenario()
	sc.N = 50
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	bound := maxTimeout(sc.Core) * time.Duration(sc.N-1)
	if res.LatMax > bound {
		t.Fatalf("worst-case latency %v exceeds the paper's bound %v", res.LatMax, bound)
	}
	if res.DeliveryRatio < 0.99 {
		t.Fatalf("bound check only meaningful at full delivery (got %.3f)", res.DeliveryRatio)
	}
}

func TestDisseminationTimeBoundUnderMuteOverlay(t *testing.T) {
	// The pathological case of Figure 5 (Byzantine overlay everywhere):
	// dissemination degrades to the gossip-request mechanism but stays
	// within max_timeout per hop.
	sc := quickScenario()
	sc.N = 50
	sc.Adversaries = []Adversaries{{Kind: AdvMute, Count: 10}}
	sc.Placement = PlaceDominators
	sc.Workload.End = 60 * time.Second
	sc.Duration = 80 * time.Second
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	bound := maxTimeout(sc.Core) * time.Duration(sc.N-1)
	if res.LatMax > bound {
		t.Fatalf("worst-case latency %v exceeds bound %v under mute attack", res.LatMax, bound)
	}
}

func TestBufferBound(t *testing.T) {
	// §3.4.1: buffers need max_timeout·(n−1)·δ messages in the mobile case;
	// the static retention actually used is PurgeTimeout·δ plus the tail
	// still inside the purge interval. Verify held payloads stay within the
	// static bound (with slack for the purge period) at every node.
	sc := quickScenario()
	sc.N = 50
	sc.Workload.Rate = 4
	sc.Workload.End = 60 * time.Second
	sc.Duration = 70 * time.Second
	delta := sc.Workload.Rate
	bound := int((sc.Core.PurgeTimeout+sc.Core.PurgeInterval).Seconds()*delta) + 5
	_, err := RunInspect(sc, func(protos []*core.Protocol) {
		for i, p := range protos {
			held, _ := p.StoreSize()
			if held > bound {
				t.Errorf("node %d holds %d payloads, bound %d", i, held, bound)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTombstonesRetainDuplicateFilter(t *testing.T) {
	// After purging, ids survive as tombstones: total store size equals the
	// number of distinct accepted messages, held payloads only the recent
	// window.
	sc := quickScenario()
	sc.N = 30
	sc.Core.PurgeTimeout = 10 * time.Second
	sc.Core.PurgeInterval = 2 * time.Second
	sc.Workload.End = 55 * time.Second
	sc.Duration = 65 * time.Second
	injected := 0
	_, err := RunInspect(sc, func(protos []*core.Protocol) {
		held, tombs := protos[0].StoreSize()
		if tombs == 0 {
			t.Error("no tombstones despite a short purge timeout")
		}
		injected = held + tombs
	})
	if err != nil {
		t.Fatal(err)
	}
	if injected == 0 {
		t.Fatal("store empty at end of run")
	}
}

func TestPoissonWorkloadDelivers(t *testing.T) {
	sc := quickScenario()
	sc.N = 50
	sc.Workload.Poisson = true
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected == 0 {
		t.Fatal("poisson workload injected nothing")
	}
	if res.DeliveryRatio < 0.98 {
		t.Fatalf("delivery under poisson arrivals = %.3f", res.DeliveryRatio)
	}
}

func TestTimelineBucketsCoverRun(t *testing.T) {
	sc := quickScenario()
	sc.N = 30
	sc.LatencyBucket = 10 * time.Second
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("timeline empty despite LatencyBucket")
	}
	total := 0
	for _, b := range res.Timeline {
		total += b.Count
	}
	if total == 0 {
		t.Fatal("timeline has no delivery samples")
	}
	for i := 1; i < len(res.Timeline); i++ {
		if res.Timeline[i].Start <= res.Timeline[i-1].Start {
			t.Fatal("timeline buckets out of order")
		}
	}
}

func TestSnapshotSVGWritten(t *testing.T) {
	sc := quickScenario()
	sc.N = 20
	sc.Workload.End = 25 * time.Second
	sc.Duration = 30 * time.Second
	sc.SnapshotSVG = t.TempDir() + "/topo.svg"
	if _, err := Run(sc); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(sc.SnapshotSVG)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("snapshot file empty")
	}
}

func TestTraceRecordsRun(t *testing.T) {
	var buf bytes.Buffer
	sc := quickScenario()
	sc.N = 20
	sc.Workload.End = 25 * time.Second
	sc.Duration = 30 * time.Second
	sc.Trace = &buf
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]int{}
	scanner := bufio.NewScanner(&buf)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		var ev struct {
			T    int64  `json:"t"`
			Type string `json:"type"`
		}
		if err := json.Unmarshal(scanner.Bytes(), &ev); err != nil {
			t.Fatalf("trace line not JSON: %v", err)
		}
		types[ev.Type]++
	}
	if types["tx"] == 0 || types["accept"] == 0 || types["inject"] == 0 || types["role"] == 0 {
		t.Fatalf("trace missing event types: %v", types)
	}
	if types["inject"] != res.Injected {
		t.Fatalf("trace injects = %d, result says %d", types["inject"], res.Injected)
	}
	if uint64(types["tx"]) != res.TotalTx {
		t.Fatalf("trace tx = %d, result says %d", types["tx"], res.TotalTx)
	}
}
