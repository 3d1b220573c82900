package obsvonce_test

import (
	"testing"

	"bbcast/internal/analysis/analysistest"
	"bbcast/internal/analysis/obsvonce"
)

// TestEmissionTable covers the exactly-once rule against look-alike core
// types: designated sources (including closures inside them), stray
// emissions, Observer-implementing forwarders, and same-name methods on
// non-Observer types.
func TestEmissionTable(t *testing.T) {
	analysistest.Run(t, "testdata/core", "bbcast/internal/core", obsvonce.Analyzer)
}

// TestEmissionTableDrift checks that a table row whose function its loaded
// package no longer defines is reported, exactly once.
func TestEmissionTableDrift(t *testing.T) {
	analysistest.Run(t, "testdata/runner", "bbcast/internal/runner", obsvonce.Analyzer)
}
