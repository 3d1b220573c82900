package experiments

import (
	"flag"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bbcast/internal/runner"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/quick-seed1.golden from the current run")

func quickCfg() Config { return Config{Quick: true, Seed: 1, Repeats: 1, Parallel: 8} }

// quickSuite is one driver run of the whole quick suite, shared by every test
// that reads a table.
var quickSuite = sync.OnceValue(func() map[string]Table {
	tables := map[string]Table{}
	for _, tab := range All(quickCfg()) {
		tables[tab.ID] = tab
	}
	return tables
})

// bbexpOutput is what `bbexp -all` prints for the tables.
func bbexpOutput(tables []Table) string {
	var b strings.Builder
	for _, tab := range tables {
		b.WriteString(tab.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestTableRendering(t *testing.T) {
	tab := Table{
		ID:     "T",
		Title:  "demo",
		Params: "p",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"1", "2"}, {"333333333333", "4"}},
	}
	out := tab.String()
	if !strings.Contains(out, "== T: demo ==") || !strings.Contains(out, "(p)") {
		t.Fatalf("header missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d, want 5", len(lines))
	}
	// Columns align: the header's second column starts where row cells do.
	if !strings.Contains(lines[2], "long-header") && !strings.Contains(lines[2], "a") {
		t.Fatalf("unexpected table body: %q", lines[2])
	}
}

func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range registry {
		if e.id == "" || seen[e.id] {
			t.Errorf("id %q is empty or listed twice", e.id)
		}
		seen[e.id] = true
		if e.title == "" || len(e.header) == 0 || e.render == nil {
			t.Errorf("%s: incomplete entry", e.id)
		}
		for _, c := range []Config{quickCfg(), {Seed: 1}} {
			cells := e.plan(c)
			if len(cells) == 0 {
				t.Errorf("%s plans no cells (quick=%v)", e.id, c.Quick)
			}
			if !reflect.DeepEqual(cells, e.plan(c)) {
				t.Errorf("%s: plan is not a pure function of the Config", e.id)
			}
		}
	}
	ids := IDs()
	if len(ids) != len(registry) {
		t.Errorf("IDs() lists %d ids, the registry holds %d", len(ids), len(registry))
	}
	for _, id := range ids {
		if !seen[id] {
			t.Errorf("IDs() lists %q, which is not in the registry", id)
		}
	}
	if _, ok := ByID("nope", quickCfg()); ok {
		t.Error("ByID resolved a bogus id")
	}
}

// TestIdenticalScenariosArePlannedOnce pins how much of the suite is shared:
// E2 and E3 read E1's runs, E15L reads E15's, and the unperturbed base
// scenario appears in a dozen tables. A plan edit that makes two "same"
// scenarios differ in some field shows up here as a changed count.
func TestIdenticalScenariosArePlannedOnce(t *testing.T) {
	for _, tc := range []struct {
		cfg               Config
		planned, distinct int
	}{{quickCfg(), 87, 47}, {Config{Seed: 1}, 164, 106}} {
		var cells []cell
		for _, e := range registry {
			cells = append(cells, e.plan(tc.cfg)...)
		}
		distinct := 0
		for i, c := range cells {
			dup := false
			for _, p := range cells[:i] {
				dup = dup || sameScenario(p.sc, c.sc)
			}
			if !dup {
				distinct++
			}
		}
		if len(cells) != tc.planned || distinct != tc.distinct {
			t.Errorf("quick=%v: %d cells planned, %d distinct; want %d and %d",
				tc.cfg.Quick, len(cells), distinct, tc.planned, tc.distinct)
		}
	}
}

var shellWord = regexp.MustCompile(`'[^']*'|\S+`)

// parseBbsim reads a bbsim command line the way a shell and then bbsim would.
// The only quoting the planned scenarios need is '…' around fault-plan JSON.
func parseBbsim(cmd string) (runner.Scenario, error) {
	words := shellWord.FindAllString(cmd, -1)
	for i, w := range words {
		words[i] = strings.Trim(w, "'")
	}
	fs := flag.NewFlagSet(words[0], flag.ContinueOnError)
	finish := runner.ScenarioFlags(fs)
	if err := fs.Parse(words[1:]); err != nil {
		return runner.Scenario{}, err
	}
	return finish()
}

// TestPlannedScenariosReproduceOrSaySo holds runner.ReproCommand to every
// scenario the quick suite plans: the line either parses back to the planned
// scenario, or ends in the comment that names what no flag spells, and then it
// really does not. The split is pinned: an experiment that starts moving an
// unspelt field, or a flag that stops rendering, changes the counts.
func TestPlannedScenariosReproduceOrSaySo(t *testing.T) {
	exact, commented := 0, 0
	unspelt := map[string]bool{}
	for _, e := range registry {
		for _, c := range e.plan(quickCfg()) {
			line := runner.ReproCommand(c.sc)
			cmd, comment, said := strings.Cut(line, "  # not expressible as flags: ")
			back, err := parseBbsim(cmd)
			if err != nil {
				t.Errorf("%s %v: %s: %v", e.id, c.label, line, err)
				continue
			}
			switch same := sameScenario(back, c.sc); {
			case said && same:
				t.Errorf("%s %v: the line is exact but says it is not: %s", e.id, c.label, line)
			case said:
				commented++
				for _, field := range strings.Split(comment, ", ") {
					unspelt[field] = true
				}
			case !same || strings.Contains(cmd, "#"):
				t.Errorf("%s %v: the line silently differs from the plan: %s", e.id, c.label, line)
			default:
				exact++
			}
		}
	}
	var fields []string
	for f := range unspelt {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	const wantFields = "Core.EnableFindMissing, Core.EnableRecovery, Core.GossipAggregation, " +
		"Core.Mute.AgeInterval, Core.Mute.SuspicionTTL, Core.Trust.DirectTTL, Core.Trust.ReportTTL, " +
		"Core.Verbose.AgeInterval, Core.Verbose.SuspicionTTL, LatencyBucket, Radio.CaptureRatio, Workload.Poisson"
	if got := strings.Join(fields, ", "); got != wantFields {
		t.Errorf("fields no flag spells:\n got %s\nwant %s", got, wantFields)
	}
	if exact != 77 || commented != 10 {
		t.Errorf("%d planned scenarios reproduce exactly and %d say what they cannot spell; want 77 and 10", exact, commented)
	}
}

func TestQuickExperimentsProduceRows(t *testing.T) {
	// A representative subset must yield plausibly sized tables with
	// non-empty cells.
	for _, id := range []string{"E2", "E7", "A2"} {
		tab, ok := quickSuite()[id]
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Fatalf("%s row width %d != header width %d", id, len(row), len(tab.Header))
			}
			for _, cell := range row {
				if cell == "" {
					t.Fatalf("%s has an empty cell in %v", id, row)
				}
			}
		}
	}
}

func TestE2DeliveryValuesParse(t *testing.T) {
	for _, row := range quickSuite()["E2"].Rows {
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("unparseable delivery %q", cell)
			}
			if v < 0 || v > 1 {
				t.Fatalf("delivery %v out of range", v)
			}
		}
	}
}

func TestAverageReducesResults(t *testing.T) {
	a := runner.Result{}
	a.DeliveryRatio = 1.0
	a.LatMean = 100 * time.Millisecond
	a.TotalTx = 100
	a.OverlaySize = 10
	b := runner.Result{}
	b.DeliveryRatio = 0.5
	b.LatMean = 200 * time.Millisecond
	b.TotalTx = 200
	b.OverlaySize = 20
	avg := runner.Average([]runner.Result{a, b})
	if avg.DeliveryRatio != 0.75 {
		t.Fatalf("delivery = %v", avg.DeliveryRatio)
	}
	if avg.LatMean != 150*time.Millisecond {
		t.Fatalf("latency = %v", avg.LatMean)
	}
	if avg.TotalTx != 150 || avg.OverlaySize != 15 {
		t.Fatalf("tx = %d overlay = %d", avg.TotalTx, avg.OverlaySize)
	}
}

func TestAverageSingleIsIdentity(t *testing.T) {
	r := runner.Result{}
	r.DeliveryRatio = 0.9
	if got := runner.Average([]runner.Result{r}); got.DeliveryRatio != 0.9 {
		t.Fatal("single-element average altered the result")
	}
}

// TestAllQuickTablesEndToEnd holds the whole quick suite byte-identical to
// testdata/quick-seed1.golden (the output of `bbexp -all -quick -seed 1`), on
// one worker and on eight, and each table run alone identical to its block of
// the suite. Regenerate after an intended change with
//
//	go test ./internal/experiments/ -run TestAllQuickTablesEndToEnd -update
func TestAllQuickTablesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-suite runs skipped in -short mode")
	}
	const golden = "testdata/quick-seed1.golden"
	serial := quickCfg()
	serial.Parallel = 1
	tables := All(serial)
	got := bbexpOutput(tables)
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("quick suite on one worker differs from %s; if intended, regenerate with -update.\ngot:\n%s", golden, got)
	}
	pooled := quickSuite()
	for _, tab := range tables {
		if len(tab.Rows) == 0 {
			t.Errorf("%s produced no rows", tab.ID)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Errorf("%s row/header width mismatch", tab.ID)
			}
		}
		if !reflect.DeepEqual(tab, pooled[tab.ID]) {
			t.Errorf("%s on eight workers differs from one worker:\n%s\n%s", tab.ID, pooled[tab.ID], tab)
		}
		if alone, ok := ByID(tab.ID, quickCfg()); !ok || !reflect.DeepEqual(alone, tab) {
			t.Errorf("%s run alone differs from its block of the suite:\n%s\n%s", tab.ID, alone, tab)
		}
	}
}
