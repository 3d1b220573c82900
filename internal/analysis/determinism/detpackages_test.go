package determinism

import (
	"bytes"
	"os/exec"
	"strings"
	"testing"
)

// detExemptions names every bbcast/internal package that the simulation
// closure (internal/sim + internal/runner) is allowed to import WITHOUT being
// in DetPackages, and why. A new package imported by the closure must either
// join DetPackages (so bbvet's determinism passes cover it) or be added here
// with a justification — this test fails otherwise, which is the drift audit
// PR 10 asks for.
var detExemptions = map[string]string{
	"bbcast/internal/baseline":  "reference implementations compared against the protocol; scored by the harness, not part of the replayed state machine",
	"bbcast/internal/invariant": "read-only checkers over snapshots; they observe state, they never advance it",
	"bbcast/internal/metrics":   "aggregation sinks; output ordering is normalized at render time, not consumed by the protocol",
	"bbcast/internal/obsv":      "observability taps (wall-clock stamps are its job); detflow guards the boundary back into det packages",
	"bbcast/internal/sig":       "pure crypto over explicit inputs; no clocks, no global randomness, nothing to schedule",
	"bbcast/internal/trace":     "post-hoc lineage recording; consumed by forensics tooling after the run completes",
	"bbcast/internal/viz":       "rendering only; emits artifacts for humans, never feeds results back into the run",
}

// simClosure returns the bbcast/internal/* dependency closure of the
// simulation entry packages, via the go tool.
func simClosure(t *testing.T) []string {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "bbcast/internal/sim", "bbcast/internal/runner")
	var out, stderr bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Skipf("go list -deps unavailable: %v (%s)", err, stderr.String())
	}
	var pkgs []string
	for _, line := range strings.Split(out.String(), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "bbcast/internal/") {
			pkgs = append(pkgs, line)
		}
	}
	if len(pkgs) == 0 {
		t.Fatal("go list -deps returned no bbcast/internal packages; closure query is broken")
	}
	return pkgs
}

// TestDetPackagesCoverSimClosure is the DetPackages drift audit: every
// internal package reachable from the simulation must be either covered by the
// determinism passes or explicitly excused above — never silently neither.
func TestDetPackagesCoverSimClosure(t *testing.T) {
	for _, pkg := range simClosure(t) {
		inDet := DetPackages[pkg]
		why, excused := detExemptions[pkg]
		switch {
		case inDet && excused:
			t.Errorf("%s is both in DetPackages and excused (%q); pick one", pkg, why)
		case !inDet && !excused:
			t.Errorf("%s is imported by the simulation closure but neither in DetPackages nor excused in detExemptions; add it to one with a justification", pkg)
		}
	}
}

// TestDetPackagesDurabilityCoverage pins the PR 9/PR 10 contract directly:
// the durable-state layer is replayed on crash recovery, so it must be under
// the determinism passes.
func TestDetPackagesDurabilityCoverage(t *testing.T) {
	if !DetPackages["bbcast/internal/persist"] {
		t.Error("bbcast/internal/persist must be in DetPackages: recovery replays its state, so it must be deterministic")
	}
}

// TestDetPackagesExist guards against typos and renames: every DetPackages
// entry (and every exemption) must name a package that actually builds in
// this module.
func TestDetPackagesExist(t *testing.T) {
	cmd := exec.Command("go", "list", "./...")
	cmd.Dir = "../../.."
	out, err := cmd.Output()
	if err != nil {
		t.Skipf("go list ./... unavailable: %v", err)
	}
	exists := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		exists[strings.TrimSpace(line)] = true
	}
	for pkg := range DetPackages {
		if !exists[pkg] {
			t.Errorf("DetPackages names %s, which is not a package in this module", pkg)
		}
	}
	for pkg := range detExemptions {
		if !exists[pkg] {
			t.Errorf("detExemptions names %s, which is not a package in this module", pkg)
		}
	}
}
