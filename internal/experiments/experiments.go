// Package experiments defines the paper-reproduction experiment suite
// (DESIGN.md E1–E17 plus ablations A1–A9) as data: one ordered registry
// (registry.go) of tables, each a pure plan (Config → scenarios) and a render
// step (results → rows), and one driver that plans every requested table,
// simulates each distinct scenario once on a single runner pool, and renders.
// The benchmark harness in the repository root and cmd/bbexp both drive this
// package, so the numbers in EXPERIMENTS.md regenerate from either entry
// point.
package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"bbcast/internal/runner"
)

// Table is one experiment's output: paper-style rows of series × sweep.
type Table struct {
	ID     string
	Title  string
	Params string
	Header []string
	Rows   [][]string
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Params != "" {
		fmt.Fprintf(&b, "   (%s)\n", t.Params)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Config tunes the suite.
type Config struct {
	// Quick shrinks sweeps and durations for CI-speed smoke runs.
	Quick bool
	// Seed is the base seed; repeats derive replicate seeds from it via
	// runner.ReplicateSeed (SplitMix64), so per-replicate RNG streams are
	// decorrelated and independent of worker scheduling.
	Seed int64
	// Repeats is how many seeds each scenario is averaged over
	// (default: 3, or 1 in Quick mode).
	Repeats int
	// Parallel is how many simulations may run concurrently (the runner
	// pool's worker count); <= 0 means GOMAXPROCS. Parallelism never changes
	// results: each replicate is bit-identical at any worker count.
	Parallel int
}

// base returns the canonical scenario every experiment perturbs, with the
// experiment's own fixed settings applied on top.
func (c Config) base(mods ...func(*runner.Scenario)) runner.Scenario {
	sc := runner.DefaultScenario()
	sc.Seed = c.Seed
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if c.Quick {
		sc.Workload.End = 35 * time.Second
		sc.Duration = 45 * time.Second
	}
	for _, mod := range mods {
		mod(&sc)
	}
	return sc
}

func (c Config) repeats() int {
	switch {
	case c.Repeats > 0:
		return c.Repeats
	case c.Quick:
		return 1
	}
	return 3
}

// sweep picks an axis's values: the full sweep, or the shrunken Quick one.
func sweep[T any](c Config, full, quick []T) []T {
	if c.Quick {
		return quick
	}
	return full
}

// cell is one planned simulation: the scenario, how many replicate seeds it
// is averaged over (0 = the Config's repeats) and the leading columns of the
// row it renders into.
type cell struct {
	sc      runner.Scenario
	repeats int
	label   []string
}

// row starts a table row with the cell's label.
func (c cell) row(vals ...string) []string {
	return append(append([]string(nil), c.label...), vals...)
}

// experiment is one registry entry: a table's fixed text, the pure plan that
// lists its scenarios, and the render step that turns the seed-averaged
// result of each planned cell (same order) into rows.
type experiment struct {
	id, title, params string
	header            []string
	plan              func(Config) []cell
	render            func([]cell, []runner.Result) [][]string
}

// run is the driver, and the package's only call into the runner. It plans
// every requested experiment, drops each cell whose scenario (Name aside) and
// repeat count equal one already planned — a run is a deterministic function
// of its scenario, so E2 reads E1's results and the unperturbed base scenario
// is simulated once however many tables show it — sends every remaining
// (scenario × replicate seed) through one pool, averages per cell and renders.
func run(c Config, exps []experiment) []Table {
	var (
		plans    = make([][]cell, len(exps))
		slots    = make([][]int, len(exps)) // per planned cell, its index in distinct
		distinct []cell
		scs      []runner.Scenario
		first    []int // per distinct cell, the index in scs of its replicate 0
	)
	for i, e := range exps {
		plans[i] = e.plan(c)
		for _, cl := range plans[i] {
			if cl.repeats <= 0 {
				cl.repeats = c.repeats()
			}
			j := 0
			for j < len(distinct) && !(distinct[j].repeats == cl.repeats && sameScenario(distinct[j].sc, cl.sc)) {
				j++
			}
			if j == len(distinct) {
				distinct = append(distinct, cl)
				first = append(first, len(scs))
				scs = append(scs, runner.ReplicateScenarios(cl.sc, cl.repeats)...)
			}
			slots[i] = append(slots[i], j)
		}
	}
	results, err := runner.Pool{Workers: c.Parallel}.RunAll(scs)
	if err != nil {
		// Experiment scenarios are constructed by this package; a failure
		// is a programming error, surfaced loudly.
		panic(fmt.Sprintf("experiment scenario failed: %v", err))
	}
	// Counter-like fields are averaged too, so every reported number is a
	// per-seed mean.
	averaged := make([]runner.Result, len(distinct))
	for j, cl := range distinct {
		averaged[j] = runner.Average(results[first[j] : first[j]+cl.repeats])
	}
	tables := make([]Table, len(exps))
	for i, e := range exps {
		res := make([]runner.Result, len(slots[i]))
		for k, j := range slots[i] {
			res[k] = averaged[j]
		}
		tables[i] = Table{ID: e.id, Title: e.title, Params: e.params, Header: e.header, Rows: e.render(plans[i], res)}
	}
	return tables
}

// sameScenario reports whether two scenarios describe the same simulation;
// the name is a label the runner never reads.
func sameScenario(a, b runner.Scenario) bool {
	a.Name, b.Name = "", ""
	return reflect.DeepEqual(a, b)
}

// All runs the complete suite in registry order.
func All(c Config) []Table { return run(c, registry) }

// ByID returns the experiment with the given id (case-sensitive), or false.
func ByID(id string, c Config) (Table, bool) {
	for _, e := range registry {
		if e.id == id {
			return run(c, []experiment{e})[0], true
		}
	}
	return Table{}, false
}

// IDs lists the experiment identifiers: the experiments (E…) in registry
// order, then the ablations (A…).
func IDs() []string {
	var exps, ablations []string
	for _, e := range registry {
		if e.id[0] == 'A' {
			ablations = append(ablations, e.id)
		} else {
			exps = append(exps, e.id)
		}
	}
	return append(exps, ablations...)
}
