package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// runRepeat is the repeatability mode: it runs the untraced suite n times
// with one seed, writes run-a.json, run-b.json, … under outDir, and prints
// every (workload, end-to-end metric) pair of the first run beside each later
// one. Two runs of the same code must agree within the metric's bound, and a
// metric that is a pure function of code and seed must not differ at all.
func runRepeat(n int, workload string, opts runOpts, outDir string, stdout, stderr io.Writer) int {
	if n < 2 || n > 26 || opts.trace {
		fmt.Fprintln(stderr, "benchmark: -repeat takes 2 to 26 untraced runs")
		return 2
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
	}
	reports := make([]*suiteReport, n)
	code := 0
	for i := range reports {
		rep, c := runWorkloads(workload, opts, stdout, stderr)
		if rep == nil {
			return c
		}
		if c != 0 {
			code = c
		}
		reports[i] = rep
		if outDir != "" {
			path := filepath.Join(outDir, fmt.Sprintf("run-%c.json", 'a'+i))
			if err := writeJSON(path, rep); err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 2
			}
		}
	}
	for i := 1; i < n; i++ {
		if !compareReports(reports[0], reports[i], stdout) {
			code = 1
		}
	}
	return code
}

// compareReports prints the two runs side by side and reports whether they
// agree.
func compareReports(a, b *suiteReport, w io.Writer) bool {
	ok := true
	fmt.Fprintf(w, "%-12s %-20s %16s %16s %9s  %s\n", "workload", "metric", "first", "later", "diff", "verdict")
	for i, ra := range a.Results {
		rb := b.Results[i]
		for _, spec := range endToEnd {
			va, vb := ra.Metrics[spec.Name].Value, rb.Metrics[spec.Name].Value
			diff := math.Abs(ratio(vb-va, va))
			exact := simExact[spec.Name] && strings.HasPrefix(ra.Workload, "sim-")
			verdict := "ok"
			switch {
			case exact && va != vb:
				verdict = "EXACT METRIC DIFFERS"
			case diff > spec.Bound:
				verdict = fmt.Sprintf("BEYOND BOUND %.2f", spec.Bound)
			case exact:
				verdict = "ok (exact)"
			}
			if !strings.HasPrefix(verdict, "ok") {
				ok = false
			}
			fmt.Fprintf(w, "%-12s %-20s %16.6g %16.6g %8.2f%%  %s\n", ra.Workload, spec.Name, va, vb, 100*diff, verdict)
		}
	}
	return ok
}
