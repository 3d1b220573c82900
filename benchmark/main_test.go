package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"bbcast/internal/runner"
	"bbcast/internal/sig"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n, u string) {
		t.Helper()
		if !name.MatchString(n) || (u != "" && !unit.MatchString(u)) {
			t.Errorf("name %q or unit %q outside the allowed alphabet", n, u)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the spec %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check(w.Name, "")
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, spec {%s %s}", i, bj.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the spec %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, s := range endToEnd {
		check(s.Name, s.Unit)
		got := bj.EndToEnd[i]
		if got.Name != s.Name || got.Unit != s.Unit || got.Better != s.Better || got.Bound != s.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, spec %+v", i, got, s)
		}
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the spec %d (at most 128)", len(bj.PerLayer), len(perLayer))
	}
	for i, s := range perLayer {
		check(s.Name, s.Unit)
		got := bj.PerLayer[i]
		if got.Name != s.Name || got.Unit != s.Unit || got.Better != s.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, spec %+v", i, got, s)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s missing from the end-to-end metrics")
	}
	for _, ib := range isoTable {
		if _, ok := unitOf[ib.name]; !ok {
			t.Errorf("iso benchmark %s is not a per-layer metric", ib.name)
		}
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.50, 5}, {0.90, 9}, {0.99, 10}, {0.0, 1}, {0.25, 3}, {1.0, 10},
	} {
		if got := quantile(sorted, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
}

func TestKnee(t *testing.T) {
	for _, c := range []struct {
		name   string
		points []ratePoint
		want   float64
	}{
		{"crossing between grid points", []ratePoint{{8, 1.0}, {16, 0.97}, {24, 0.89}, {32, 0.70}}, 18},
		{"crossing exactly on a grid point", []ratePoint{{8, 1.0}, {16, 0.95}, {24, 0.90}}, 16},
		{"never below", []ratePoint{{8, 1.0}, {16, 0.99}, {32, 0.96}}, 32},
		{"never above", []ratePoint{{8, 0.90}, {16, 0.80}}, 8},
		{"dips below and recovers: first crossing counts", []ratePoint{{8, 0.99}, {16, 0.91}, {24, 0.96}}, 12},
	} {
		if got := knee(c.points, 0.95); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("%s: knee = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := strings.Join(normalizeArgs([]string{"--workload", "sim-knee", "--seed", "3", "--seconds", "15", "--trace", "1"}), " ")
	if want := "--workload sim-knee --seed 3 --seconds 15 -trace=true"; got != want {
		t.Errorf("driver form: got %q, want %q", got, want)
	}
	got = strings.Join(normalizeArgs([]string{"-trace", "-out", "x.json"}), " ")
	if want := "-trace -out x.json"; got != want {
		t.Errorf("bare form: got %q, want %q", got, want)
	}
}

// TestOpenLoopCountsFromDueTime drives the paced generator with a clock the
// test owns and a sleep that oversleeps: latency must read the lateness, not
// the zero the instant fake delivery took from issue to accept.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const nodes, oversleep = 3, 3 * time.Millisecond
	var clock time.Duration
	sink := newAcceptSink(nodes, 64)
	sink.now = func() time.Duration { return clock }
	gen := &liveGen{
		sink: sink,
		rng:  newLiveGen(&liveCluster{sink: sink}, 1).rng,
		sleep: func(d time.Duration) {
			clock += d + oversleep
		},
		broadcast: func(sender int, payload []byte) {
			for j := 0; j < nodes; j++ {
				sink.deliver(j, payload)
			}
		},
	}
	from, to := gen.paced(100, 100*time.Millisecond)
	if to-from != 10 {
		t.Fatalf("paced injected %d messages, want 10", to-from)
	}
	lats := sink.takeLats()
	if len(lats) != 10*(nodes-1) {
		t.Fatalf("%d latency samples, want %d", len(lats), 10*(nodes-1))
	}
	// The first message is due at the start and issued on time; every later
	// one is issued one oversleep late.
	for i, l := range lats {
		if l != 0 && l != oversleep {
			t.Fatalf("sample %d: latency %v, want 0 (first message) or the %v the generator was late", i, l, oversleep)
		}
	}
	if gen.maxLate != oversleep || gen.late != 9 {
		t.Errorf("max late %v (want %v), late injections %d (want 9)", gen.maxLate, oversleep, gen.late)
	}
	if att, acc := sink.pairs(from, to); att != 20 || acc != 20 {
		t.Errorf("pairs attempted=%d accepted=%d, want 20 and 20", att, acc)
	}
	if sink.duplicates.Load() != 0 || sink.mismatches.Load() != 0 {
		t.Errorf("duplicates=%d mismatches=%d, want none", sink.duplicates.Load(), sink.mismatches.Load())
	}

	// A second accept and a tampered payload are both caught.
	payload := *sink.expected[0].Load()
	sink.deliver(1, payload)
	bad := append([]byte(nil), payload...)
	bad[len(bad)-1] ^= 1
	sink.deliver(2, bad)
	if sink.duplicates.Load() != 1 || sink.mismatches.Load() != 1 {
		t.Errorf("duplicates=%d mismatches=%d, want 1 and 1", sink.duplicates.Load(), sink.mismatches.Load())
	}
}

// TestRigEquivalentToRunner holds the traced rig to runner.Run on a small
// scenario, for both workload shapes it assembles.
func TestRigEquivalentToRunner(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		steady := runner.DefaultScenario()
		steady.Seed = seed
		steady.N = 20
		steady.Workload.Start, steady.Workload.End = 5*time.Second, 15*time.Second
		steady.Duration = 20 * time.Second

		knee := kneeScenario(8, seed)
		knee.N = 20
		knee.LoadGen.Senders = 10
		knee.LoadGen.Start = 5 * time.Second
		knee.LoadGen.Steps[0].Duration = 10 * time.Second
		knee.Duration = 20 * time.Second

		for _, cell := range []simCell{{name: "steady", sc: steady}, {name: "knee", sc: knee}} {
			ref, err := runCell(cell)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			rig, err := runRig(cell.sc, tr)
			if err != nil {
				t.Fatal(err)
			}
			if diff := equivalent(rig.stats, ref.stats); diff != "" {
				t.Errorf("seed %d %s: %s", seed, cell.name, diff)
			}
			if ref.stats.Injected == 0 || ref.stats.Accepted == 0 {
				t.Errorf("seed %d %s: nothing was injected or accepted; the check is vacuous", seed, cell.name)
			}
			if len(tr.stack) != 0 {
				t.Errorf("seed %d %s: %d spans left open", seed, cell.name, len(tr.stack))
			}
			if seams := tr.selfTotal(); seams <= 0 || seams > rig.engineWall {
				t.Errorf("seed %d %s: seam self time %v outside (0, Engine.Run wall %v]", seed, cell.name, seams, rig.engineWall)
			}
		}
	}
	sc := runner.DefaultScenario()
	sc.UseEd25519 = true
	if _, err := runRig(sc, newTracer()); err == nil {
		t.Error("the rig assembled a scenario it does not cover")
	}
}

// TestLiveClusterLeavesNothingBehind brings three nodes up, passes traffic
// and tears them down: no goroutine and no file may outlive Close.
func TestLiveClusterLeavesNothingBehind(t *testing.T) {
	tmp := t.TempDir()
	before := runtime.NumGoroutine()
	scheme, err := sig.NewEd25519(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := startCluster(3, scheme, tmp, 16)
	if err != nil {
		t.Fatal(err)
	}
	gen := newLiveGen(c, 1)
	from, to := gen.paced(100, 50*time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for {
		att, acc := c.sink.pairs(from, to)
		if att > 0 && acc == att {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d deliveries arrived", acc, att)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c.diskBytes() == 0 {
		t.Error("the nodes' durable stores wrote nothing")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("%d entries left under the temp directory", len(entries))
	}
	// Timer goroutines of the stopped protocol instances wind down on their
	// own schedule; Close has returned only after the nodes' own loops did.
	for deadline := time.Now().Add(3 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the cluster, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
