package main

import (
	"strings"
	"testing"
)

// bbvet runs the command in-process from the module root and returns its
// exit status and output.
func bbvet(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(append([]string{"-C", "../.."}, args...), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestRepoIsClean runs bbvet's analyzer over the entire repository, so a
// new contract violation fails `go test ./...` even where nobody runs bbvet
// or CI by hand. It is the test-suite twin of `go run ./cmd/bbvet ./...`.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository")
	}
	if code, stdout, stderr := bbvet(t, "./..."); code != 0 {
		t.Errorf("bbvet ./... exited %d:\n%s%s", code, stdout, stderr)
	}
}

// TestExitStatus pins the exit-status contract: 0 clean, 2 usage error.
func TestExitStatus(t *testing.T) {
	code, stdout, stderr := bbvet(t, "-json", "./cmd/bbvet/testdata/clean")
	if code != 0 || strings.TrimSpace(stdout) != "[]" {
		t.Errorf("clean fixture: exit %d, stdout %q, stderr %q; want 0 and []", code, stdout, stderr)
	}
	code, _, stderr = bbvet(t, "-run", "determinism", "./cmd/bbvet/testdata/clean")
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -run") {
		t.Errorf("-run determinism: exit %d, stderr %q; want 2 and an unknown-flag error", code, stderr)
	}
}

// TestSubsetFollowsChainsOutOfIt runs bbvet on one package of a fixture
// module: runner calls metrics.LeakX, an order leak in a package the run did
// not name, and sim.Keys, whose own leak is a finding inside sim. The chain
// starts in runner, so it is reported; sim's finding is reported only when
// sim is named too.
func TestSubsetFollowsChainsOutOfIt(t *testing.T) {
	const chain = "runner.go:12:13: determinism: call chain leaks map iteration order: metrics.LeakX → order-dependent map range"
	for _, tc := range []struct {
		pattern string
		want    int // findings
	}{{"./internal/runner", 1}, {"./...", 2}} {
		var stdout, stderr strings.Builder
		code := run([]string{"-C", "testdata/subset", tc.pattern}, &stdout, &stderr)
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		if code != 1 || len(lines) != tc.want || !strings.Contains(lines[0], chain) {
			t.Errorf("bbvet %s: exit %d, %d finding(s); want 1, %d, the first the runner chain:\n%s%s",
				tc.pattern, code, len(lines), tc.want, stdout.String(), stderr.String())
		}
	}
}
