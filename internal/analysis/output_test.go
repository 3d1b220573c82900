package analysis

import (
	"go/token"
	"strings"
	"testing"
)

func diag(analyzer, file string, line, col int, msg string) Diagnostic {
	return Diagnostic{
		Analyzer: analyzer,
		Pos:      token.Position{Filename: file, Line: line, Column: col},
		Message:  msg,
	}
}

// TestDedupeSorted: diagnostics come out ordered by (file, line, column,
// message, analyzer) with exact duplicates removed — the byte-stability the
// golden tests below and CI diffs rely on.
func TestDedupeSorted(t *testing.T) {
	in := []Diagnostic{
		diag("b", "z.go", 1, 1, "m"),
		diag("a", "a.go", 2, 1, "m"),
		diag("a", "a.go", 1, 5, "n"),
		diag("a", "a.go", 1, 5, "m"),
		diag("a", "a.go", 2, 1, "m"), // exact duplicate
		diag("a", "a.go", 1, 5, "m"), // exact duplicate
		diag("b", "a.go", 1, 5, "m"), // same position+message, other analyzer: kept
	}
	got := DedupeSorted(in)
	want := []Diagnostic{
		diag("a", "a.go", 1, 5, "m"),
		diag("b", "a.go", 1, 5, "m"),
		diag("a", "a.go", 1, 5, "n"),
		diag("a", "a.go", 2, 1, "m"),
		diag("b", "z.go", 1, 1, "m"),
	}
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

const sarifGolden = `{
  "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
  "version": "2.1.0",
  "runs": [
    {
      "tool": {
        "driver": {
          "name": "bbvet",
          "rules": [
            {
              "id": "demo",
              "shortDescription": {
                "text": "demo analyzer"
              }
            }
          ]
        }
      },
      "results": [
        {
          "ruleId": "demo",
          "level": "error",
          "message": {
            "text": "something is off"
          },
          "locations": [
            {
              "physicalLocation": {
                "artifactLocation": {
                  "uri": "internal/core/x.go"
                },
                "region": {
                  "startLine": 7,
                  "startColumn": 3
                }
              }
            }
          ]
        }
      ]
    }
  ]
}
`

// TestWriteSARIF pins the exact SARIF bytes: repo-relative URIs, the rule
// table, and stable field order.
func TestWriteSARIF(t *testing.T) {
	var buf strings.Builder
	diags := []Diagnostic{diag("demo", "/repo/internal/core/x.go", 7, 3, "something is off")}
	if err := WriteSARIF(&buf, "/repo", "demo", "demo analyzer", diags); err != nil {
		t.Fatal(err)
	}
	if buf.String() != sarifGolden {
		t.Errorf("SARIF output drifted:\ngot:\n%s\nwant:\n%s", buf.String(), sarifGolden)
	}
}

// TestRelPath covers the out-of-module fallback.
func TestRelPath(t *testing.T) {
	if got := relPath("/repo", "/repo/a/b.go"); got != "a/b.go" {
		t.Errorf("relPath in-module = %q", got)
	}
	if got := relPath("/repo", "/elsewhere/c.go"); got != "/elsewhere/c.go" {
		t.Errorf("relPath out-of-module = %q", got)
	}
	if got := relPath("", "x/y.go"); got != "x/y.go" {
		t.Errorf("relPath empty module = %q", got)
	}
}
