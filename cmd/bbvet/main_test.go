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

// TestExitStatus pins the exit-status contract: 0 clean, 1 findings (one
// line each, and a count on stderr), 2 usage error.
func TestExitStatus(t *testing.T) {
	code, stdout, stderr := bbvet(t, "./cmd/bbvet/testdata/clean")
	if code != 0 || stdout != "" {
		t.Errorf("clean fixture: exit %d, stdout %q, stderr %q; want 0 and nothing", code, stdout, stderr)
	}
	code, stdout, stderr = bbvet(t, "./cmd/bbvet/testdata/clean", "./cmd/bbvet/testdata/internal/dirty")
	const finding = "dirty.go:7:33: determinism: time.Now is wall clock"
	if code != 1 || strings.Count(stdout, "\n") != 1 || !strings.Contains(stdout, finding) || stderr != "bbvet: 1 finding(s) in 2 package(s)\n" {
		t.Errorf("dirty fixture: exit %d, stdout %q, stderr %q; want 1 and the one finding %q", code, stdout, stderr, finding)
	}
	for _, flag := range []string{"-run", "-json"} {
		code, _, stderr = bbvet(t, flag, "./cmd/bbvet/testdata/clean")
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined: "+flag) {
			t.Errorf("%s: exit %d, stderr %q; want 2 and an unknown-flag error", flag, code, stderr)
		}
	}
}
