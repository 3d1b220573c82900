// Command benchmark is the repository's benchmark: four workloads over both
// substrates (the discrete-event simulator and real UDP sockets), the
// end-to-end metrics BENCHMARK.json lists, and a per-layer ledger measured
// from outside the program. README.md in this directory defines every metric.
//
//	go run ./benchmark -workload sim-steady -seed 1 -seconds 15 -trace 0
//	go run ./benchmark -seed 1 [-trace] [-out file.json]   # all four workloads
//	go run ./benchmark -iso                                # isolated unit costs
//	go run ./benchmark -repeat 2 -out benchmark/baseline/  # repeatability check
//
// Per workload it prints every metric as "workload metric value unit" and
// then one JSON object {correct, attempted, failed, metrics}. It exits 1 when
// a correctness check fails and 2 on a usage or harness error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"
)

// runOpts are the inputs of one workload run.
type runOpts struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// spans, when set, is where a traced simulator run writes its spans.
	spans string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run's outcome.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Notes     []string               `json:"notes,omitempty"`
	Failures  []string               `json:"failures,omitempty"`
}

func newResult(workload string, opts runOpts) *result {
	return &result{
		Workload: workload, Seed: opts.seed, Seconds: opts.seconds.Seconds(), Trace: opts.trace,
		Correct: true, Metrics: make(map[string]metricValue),
	}
}

var unitOf = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, s := range endToEnd {
		m[s.Name] = s.Unit
	}
	for _, s := range perLayer {
		m[s.Name] = s.Unit
	}
	return m
}()

// set records a metric. Setting a name the spec does not list is a bug in
// the harness.
func (r *result) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the spec")
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

func (r *result) add(name string, v float64) { r.set(name, r.Metrics[name].Value+v) }

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// complete fills every metric of the run's kind the workload did not set
// with 0, so a run always reports the full list.
func (r *result) complete() {
	specs := endToEnd
	if r.Trace {
		specs = perLayer
	}
	for _, s := range specs {
		if _, ok := r.Metrics[s.Name]; !ok {
			r.set(s.Name, 0)
		}
	}
}

// print writes the metric lines, the notes and the one-line JSON object the
// driver reads.
func (r *result) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	fmt.Fprintf(w, "%s operations attempted=%d failed=%d\n", r.Workload, r.Attempted, r.Failed)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "%s note: %s\n", r.Workload, n)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%s FAILED: %s\n", r.Workload, f)
	}
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// suiteReport is what -out writes: the host and every workload's result.
type suiteReport struct {
	Schema  string    `json:"schema"`
	Host    hostInfo  `json:"host"`
	Results []*result `json:"results"`
}

const reportSchema = "bbcast-benchmark/v1"

// runWorkloads runs the named workload, or all of them when name is empty.
func runWorkloads(name string, opts runOpts, stdout, stderr io.Writer) (*suiteReport, int) {
	selected := workloads
	if name != "" {
		w := findWorkload(name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", name)
			return nil, 2
		}
		selected = []workloadSpec{*w}
	}
	rep := &suiteReport{Schema: reportSchema, Host: readHostInfo()}
	code := 0
	for _, w := range selected {
		res, err := w.run(opts)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
			return nil, 2
		}
		res.complete()
		res.print(stdout)
		if !res.Correct {
			code = 1
		}
		rep.Results = append(rep.Results, res)
	}
	return rep, code
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// normalizeArgs accepts both the bare "-trace" of the documented command line
// and the driver's "--trace 0|1" (a bool flag cannot take a separate value).
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if b, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, "-trace="+strconv.FormatBool(b))
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (default: all four)")
	seed := fs.Int64("seed", 1, "base seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 15, "how long each workload measures")
	trace := fs.Bool("trace", false, "traced run: report the per-layer ledger instead of the end-to-end metrics")
	out := fs.String("out", "", "write the results as JSON to this file (a directory with -repeat)")
	spans := fs.String("spans", "", "with -trace on sim-steady or sim-knee: write the recorded spans to this file as JSON lines")
	iso := fs.Bool("iso", false, "print the isolated unit-cost table and exit")
	repeat := fs.Int("repeat", 0, "run the untraced suite this many times with one seed and compare the runs")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments or non-positive -seconds")
		return 2
	}
	opts := runOpts{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace, spans: *spans}

	switch {
	case *iso:
		printIsoTable(stdout, runIso(isoLongBenchtime))
		return 0
	case *repeat > 0:
		return runRepeat(*repeat, *workload, opts, *out, stdout, stderr)
	}
	rep, code := runWorkloads(*workload, opts, stdout, stderr)
	if rep != nil && *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
	}
	return code
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
