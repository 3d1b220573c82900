package determinism_test

import (
	"go/parser"
	"go/token"
	"os/exec"
	"strings"
	"testing"

	"bbcast/internal/analysis"
	"bbcast/internal/analysis/analysistest"
	"bbcast/internal/analysis/determinism"
)

// TestDeterministicPackage covers the full rule set in a package under
// internal/, all of which is held deterministic:
// the wall-clock/global-rand ban, order-dependent map iteration with the
// sorted-later and annotation escapes, and annotation-grammar validation.
func TestDeterministicPackage(t *testing.T) {
	analysistest.Run(t, "testdata/det", "bbcast/internal/sim", determinism.Run)
}

// TestWallclockFileAllowlist checks a //bbvet:wallclock file header silences
// the wall-clock checks and leaves the map-iteration rule in force.
func TestWallclockFileAllowlist(t *testing.T) {
	analysistest.Run(t, "testdata/wallclockfile", "bbcast/internal/transport", determinism.Run)
}

// TestOutsideInternal checks packages outside internal/ escape the rule while
// their //bbvet: comments are still grammar-checked.
func TestOutsideInternal(t *testing.T) {
	analysistest.Run(t, "testdata/outside", "bbcast/cmd/fixture", determinism.Run)
}

// TestSimClosureHasNoWallclockFile: a //bbvet:wallclock file header exempts a
// whole file from the wall-clock ban, which is right for the live transport
// and wrong for anything a simulation runs. No file of a package that the
// runner or the experiments import may carry one.
func TestSimClosureHasNoWallclockFile(t *testing.T) {
	cmd := exec.Command("go", "list", "-deps", "-f", `{{if not .Standard}}{{range .GoFiles}}{{$.Dir}}/{{.}}
{{end}}{{end}}`, "bbcast/internal/runner", "bbcast/internal/experiments")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	files := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(files) < 2 || !strings.HasSuffix(files[0], ".go") {
		t.Fatalf("go list -deps listed no module files: %q", out)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Fatal(err)
		}
		if analysis.ParseAnnotations(fset, f).FileExempt(analysis.AnnWallclock) {
			t.Errorf("%s: a file the simulation imports has a //bbvet:wallclock file header; mark the wall-clock lines one by one", name)
		}
	}
}
