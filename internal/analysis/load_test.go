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

// TestLoadDirsFakePathShadowsRealPackage: a fixture loaded under a real
// import path must shadow the module's own package for later fixtures, and
// all packages must share one FileSet (the whole-program call graph depends
// on it).
func TestLoadDirsFakePathShadowsRealPackage(t *testing.T) {
	pkgs, err := LoadDirs(
		DirSpec{Dir: "testdata/tagged", ImportPath: "bbcast/internal/wire"},
		DirSpec{Dir: "testdata/usestagged", ImportPath: "bbcast/internal/user"},
	)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want 2", len(pkgs))
	}
	if pkgs[0].Fset != pkgs[1].Fset {
		t.Error("packages do not share a FileSet")
	}
	// The user package resolved bbcast/internal/wire to the fixture (which
	// has Live), not the real wire package (which does not).
	if pkgs[1].Types.Imports()[0].Scope().Lookup("Live") == nil {
		t.Error("fixture did not shadow the real bbcast/internal/wire")
	}
}

// TestLoadSharesPackagesAcrossImports: when one loaded package imports
// another, the importer sees the source-checked package itself, not an
// export-data copy, so the call graph follows calls across the boundary.
// Only the matched packages come back, though every dependency is checked.
func TestLoadSharesPackagesAcrossImports(t *testing.T) {
	pkgs, err := Load("../..", "./internal/runner", "./internal/metrics")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(pkgs) != 2 || pkgs[0].Path != "bbcast/internal/metrics" || pkgs[1].Path != "bbcast/internal/runner" {
		t.Fatalf("loaded %d packages, want metrics and runner", len(pkgs))
	}
	metrics, runner := pkgs[0], pkgs[1]
	for _, imp := range runner.Types.Imports() {
		if imp.Path() == metrics.Path {
			if imp != metrics.Types {
				t.Fatal("runner imports an export-data copy of metrics, not the loaded package")
			}
			return
		}
	}
	t.Fatal("runner does not import metrics")
}

// TestLoadDirsEmpty: zero directories is a usage error, not a panic.
func TestLoadDirsEmpty(t *testing.T) {
	if _, err := LoadDirs(); err == nil {
		t.Fatal("want error for empty spec list")
	}
}
