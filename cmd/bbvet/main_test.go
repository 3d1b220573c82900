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

// TestRepoIsClean runs every bbvet analyzer over the entire repository, so a
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
	code, _, stderr = bbvet(t, "-run", "detflow", "./cmd/bbvet/testdata/clean")
	if code != 2 || !strings.Contains(stderr, `unknown analyzer "detflow"`) {
		t.Errorf("-run detflow: exit %d, stderr %q; want 2 and unknown analyzer", code, stderr)
	}
}
