package ordering_test

import (
	"testing"

	"bbcast/internal/analysis"
	"bbcast/internal/analysis/analysistest"
	"bbcast/internal/analysis/ordering"
)

func deps() []analysis.DirSpec {
	return []analysis.DirSpec{
		{Dir: "testdata/sig", ImportPath: "bbcast/internal/sig"},
		{Dir: "testdata/wire", ImportPath: "bbcast/internal/wire"},
	}
}

// TestConforming covers the negative and escape cases (plus the rule-3
// second-entry-point positive, which coexists with a clean ingress path).
func TestConforming(t *testing.T) {
	analysistest.RunDirs(t, append(deps(),
		analysis.DirSpec{Dir: "testdata/core", ImportPath: "bbcast/internal/core"}), ordering.Analyzer)
}

// TestViolations proves each table rule fires: verify before admission,
// verify before store dedup, a missing dedup lookup, and a lookup hidden in a
// helper that verifies on its own.
func TestViolations(t *testing.T) {
	analysistest.RunDirs(t, append(deps(),
		analysis.DirSpec{Dir: "testdata/badcore", ImportPath: "bbcast/internal/core"}), ordering.Analyzer)
}

// TestTableDrift proves a renamed handler is reported, not silently skipped.
func TestTableDrift(t *testing.T) {
	analysistest.RunDirs(t, append(deps(),
		analysis.DirSpec{Dir: "testdata/driftcore", ImportPath: "bbcast/internal/core"}), ordering.Analyzer)
}
