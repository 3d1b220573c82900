// Package analysistest runs a rule over a testdata package and checks the
// diagnostics against `// want "regex"` comments in the source — a minimal,
// dependency-free stand-in for x/tools' analysistest.
//
// A want comment expects one diagnostic on its own line whose message matches
// the quoted regular expression; several quoted patterns expect several
// diagnostics on that line. Every diagnostic must be expected and every
// expectation must be met, or the test fails. The want may also be a block
// comment, /* want "regex" */, for a line whose line comment must end bare
// (an annotation missing its justification).
//
// Testdata directories are deliberately not Go packages the tool would list
// (they sit under testdata/), so they are type-checked by analysis.LoadDir
// under a caller-chosen fake import path. That lets a fixture pose as, say,
// bbcast/internal/sim, a package under internal/, without touching the real
// package.
package analysistest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"bbcast/internal/analysis"
)

// expectation is one quoted pattern of a want comment.
type expectation struct {
	file string // base name
	line int
	re   *regexp.Regexp
	met  bool
}

// wantRe matches a want comment and captures its quoted patterns (either
// double- or back-quoted; backquotes spare the regexp a double escape).
var wantRe = regexp.MustCompile(`(?://|/\*)\s*want((?:\s+(?:"(?:[^"\\]|\\.)*"|` + "`[^`]*`" + `))+)\s*(?:\*/)?$`)

// strRe matches one Go-quoted string.
var strRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"|` + "`[^`]*`")

// Run type-checks the package in dir under importPath, applies check to it,
// and diffs the diagnostics against the // want comments in dir's sources.
func Run(t *testing.T, dir, importPath string, check func([]*analysis.Package) []analysis.Diagnostic) {
	t.Helper()
	pkg, err := analysis.LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("load fixture dir: %v", err)
	}
	wants := collectWants(t, pkg)
	for _, d := range check([]*analysis.Package{pkg}) {
		if !claim(wants, baseName(d.Pos.Filename), d.Pos.Line, d.Message) {
			t.Errorf("unexpected diagnostic at %s:%d: %s: %s",
				baseName(d.Pos.Filename), d.Pos.Line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("no diagnostic at %s:%d matching %q", w.file, w.line, w.re)
		}
	}
}

// collectWants parses every want comment of the loaded package.
func collectWants(t *testing.T, pkg *analysis.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range strRe.FindAllString(m[1], -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &expectation{file: baseName(pos.Filename), line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// claim marks the first open expectation matching the diagnostic as met.
func claim(wants []*expectation, file string, line int, message string) bool {
	for _, w := range wants {
		if !w.met && w.file == file && w.line == line && w.re.MatchString(message) {
			w.met = true
			return true
		}
	}
	return false
}

func baseName(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
