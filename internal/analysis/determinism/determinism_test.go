package determinism_test

import (
	"testing"

	"bbcast/internal/analysis"
	"bbcast/internal/analysis/analysistest"
	"bbcast/internal/analysis/determinism"
)

// TestDeterministicPackage covers the full rule set inside a DetPackages
// member: the wall-clock/global-rand ban, order-dependent map iteration with
// the sorted-later and annotation escapes, and annotation-grammar validation.
func TestDeterministicPackage(t *testing.T) {
	analysistest.Run(t, "testdata/det", "bbcast/internal/sim", determinism.Analyzer)
}

// TestWallclockFileAllowlist checks a //bbvet:wallclock file header silences
// the wall-clock checks, and that non-DetPackages internal packages are not
// subject to the map-iteration rule.
func TestWallclockFileAllowlist(t *testing.T) {
	analysistest.Run(t, "testdata/wallclockfile", "bbcast/internal/transport", determinism.Analyzer)
}

// TestOutsideInternal checks packages outside internal/ escape the wall-clock
// ban while their //bbvet: comments are still grammar-checked.
func TestOutsideInternal(t *testing.T) {
	analysistest.Run(t, "testdata/outside", "bbcast/cmd/fixture", determinism.Analyzer)
}

// TestCallChains covers the transitive rule over a two-package fixture: a
// helper posing as bbcast/internal/obsv (outside DetPackages) and a caller
// posing as bbcast/internal/sim (a reporting frontier).
func TestCallChains(t *testing.T) {
	analysistest.RunDirs(t, []analysis.DirSpec{
		{Dir: "testdata/flowhelper", ImportPath: "bbcast/internal/obsv"},
		{Dir: "testdata/flowdet", ImportPath: "bbcast/internal/sim"},
	}, determinism.Analyzer)
}
