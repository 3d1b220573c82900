// Command bbvet runs the repo's project-specific static rule over Go package
// patterns and fails on any finding:
//
//	determinism   no wall-clock time, global math/rand or order-leaking map
//	              iteration in any package under internal/
//
// The rule looks at one package at a time, so a run over some packages
// reports exactly their share of a run over ./....
//
// Usage:
//
//	go run ./cmd/bbvet ./...
//	go run ./cmd/bbvet ./internal/core
//	go run ./cmd/bbvet -sarif bbvet.sarif ./...
//
// -sarif additionally writes a SARIF 2.1.0 file for GitHub code scanning.
// Exit status: 0 clean, 1 findings, 2 load/usage error.
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

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bbvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "module directory to analyze from")
	sarifPath := fs.String("sarif", "", "also write findings to this file as SARIF 2.1.0")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: bbvet [-C dir] [-sarif file] [packages]\n\n%s: %s\n\n", determinism.Name, determinism.Doc)
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
	diags := determinism.Run(pkgs)
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if *sarifPath != "" {
		f, err := os.Create(*sarifPath)
		if err != nil {
			fmt.Fprintf(stderr, "bbvet: %v\n", err)
			return 2
		}
		werr := analysis.WriteSARIF(f, moduleDir, determinism.Name, determinism.Doc, diags)
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
