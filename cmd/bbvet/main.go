// Command bbvet runs the repo's project-specific static analyzers over Go
// package patterns and fails on any finding:
//
//	determinism   no wall-clock time, global math/rand or order-leaking map
//	              iteration in simulation-deterministic packages, directly
//	              or through a call chain into helpers (printed)
//	obsvonce      obsv.Observer events emitted only from their designated
//	              source functions (the PR 2 emission table)
//	errflow       no dropped, discarded or overwritten errors from persist
//	              and transport writes (the PR 9 latch discipline)
//
// Usage:
//
//	go run ./cmd/bbvet ./...
//	go run ./cmd/bbvet -run determinism,obsvonce ./internal/core
//	go run ./cmd/bbvet -json ./...
//	go run ./cmd/bbvet -sarif bbvet.sarif ./...
//
// -json replaces the text lines on stdout with a JSON array; -sarif
// additionally writes a SARIF 2.1.0 file for GitHub code scanning. Exit
// status: 0 clean, 1 findings, 2 load/usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"bbcast/internal/analysis"
	"bbcast/internal/analysis/determinism"
	"bbcast/internal/analysis/errflow"
	"bbcast/internal/analysis/obsvonce"
)

var all = []*analysis.Analyzer{
	determinism.Analyzer,
	obsvonce.Analyzer,
	errflow.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bbvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runList := fs.String("run", "", "comma-separated analyzer subset (default: all)")
	dir := fs.String("C", ".", "module directory to analyze from")
	jsonOut := fs.Bool("json", false, "write findings to stdout as JSON instead of text")
	sarifPath := fs.String("sarif", "", "also write findings to this file as SARIF 2.1.0")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: bbvet [-run names] [-C dir] [-json] [-sarif file] [packages]\n\nanalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := all
	if *runList != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*runList, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "bbvet: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	moduleDir, err := filepath.Abs(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "bbvet: %v\n", err)
		return 2
	}
	pkgs, err := analysis.Load(moduleDir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "bbvet: %v\n", err)
		return 2
	}
	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "bbvet: %v\n", err)
		return 2
	}
	if *jsonOut {
		if err := analysis.WriteJSON(stdout, moduleDir, diags); err != nil {
			fmt.Fprintf(stderr, "bbvet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if *sarifPath != "" {
		f, err := os.Create(*sarifPath)
		if err != nil {
			fmt.Fprintf(stderr, "bbvet: %v\n", err)
			return 2
		}
		werr := analysis.WriteSARIF(f, moduleDir, analyzers, diags)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(stderr, "bbvet: write %s: %v\n", *sarifPath, werr)
			return 2
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "bbvet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
