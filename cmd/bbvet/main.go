// Command bbvet runs the repo's project-specific static analyzer over Go
// package patterns and fails on any finding:
//
//	determinism   no wall-clock time, global math/rand or order-leaking map
//	              iteration in simulation-deterministic packages, directly
//	              or through a call chain into helpers (printed), across
//	              package boundaries
//
// The named packages' dependencies are loaded too, so a chain from a named
// package into one that is not named is still followed and reported; a
// finding inside an unnamed package is not.
//
// Usage:
//
//	go run ./cmd/bbvet ./...
//	go run ./cmd/bbvet ./internal/core
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

	"bbcast/internal/analysis"
	"bbcast/internal/analysis/determinism"
)

var analyzers = []*analysis.Analyzer{determinism.Analyzer}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bbvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "module directory to analyze from")
	jsonOut := fs.Bool("json", false, "write findings to stdout as JSON instead of text")
	sarifPath := fs.String("sarif", "", "also write findings to this file as SARIF 2.1.0")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: bbvet [-C dir] [-json] [-sarif file] [packages]\n\n%s: %s\n\n", determinism.Analyzer.Name, determinism.Analyzer.Doc)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
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
		matched := 0
		for _, pkg := range pkgs {
			if !pkg.DepOnly {
				matched++
			}
		}
		fmt.Fprintf(stderr, "bbvet: %d finding(s) in %d package(s)\n", len(diags), matched)
		return 1
	}
	return 0
}
