package analysis

import (
	"strings"
	"testing"
)

// TestLoadDirSkipsTagExcludedFiles proves the loader applies build
// constraints: testdata/tagged has a live file and one behind an undefined
// tag that redeclares the same constant, so including it would fail the
// type-check.
func TestLoadDirSkipsTagExcludedFiles(t *testing.T) {
	pkg, err := LoadDir("testdata/tagged", "bbcast/internal/taggedfixture")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("got %d files, want 1 (excluded.go must be filtered)", len(pkg.Files))
	}
	name := pkg.Fset.Position(pkg.Files[0].Pos()).Filename
	if !strings.HasSuffix(name, "tagged.go") {
		t.Errorf("kept %s, want tagged.go", name)
	}
}

// TestLoadDirAllFilesExcluded: a directory whose every file is constraint-
// excluded is an explicit error naming the cause, not an opaque parse or
// typecheck failure.
func TestLoadDirAllFilesExcluded(t *testing.T) {
	_, err := LoadDir("testdata/allexcluded", "bbcast/internal/allexcluded")
	if err == nil || !strings.Contains(err.Error(), "build-constraint") {
		t.Fatalf("got %v, want a no-Go-files error naming build constraints", err)
	}
}

// TestLoadDirMissingExportData: importing a package `go list -export` cannot
// compile must surface the named "no export data" cause, not the gc
// importer's opaque "can't find import".
func TestLoadDirMissingExportData(t *testing.T) {
	_, err := LoadDir("testdata/badimport", "bbcast/internal/badfixture")
	if err == nil || !strings.Contains(err.Error(), `no export data for "example.invalid/nope"`) {
		t.Fatalf("got %v, want the no-export-data error", err)
	}
}

// TestLoadMatchedPackagesOnly: Load type-checks the packages the patterns
// match, sorted by import path, and none of their dependencies; a matched
// package's imports come from export data.
func TestLoadMatchedPackagesOnly(t *testing.T) {
	pkgs, err := Load("../..", "./internal/runner", "./internal/metrics")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(pkgs) != 2 || pkgs[0].Path != "bbcast/internal/metrics" || pkgs[1].Path != "bbcast/internal/runner" {
		t.Fatalf("loaded %d packages, want metrics and runner", len(pkgs))
	}
	for _, imp := range pkgs[1].Types.Imports() {
		if imp.Path() == "bbcast/internal/core" {
			return
		}
	}
	t.Fatal("runner's import of core did not resolve")
}
