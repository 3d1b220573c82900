// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects the
// type-checked packages of one load, with their static call graph, and
// reports position-anchored diagnostics.
//
// The repo intentionally has no external module dependencies, so instead of
// the x/tools driver the loader in this package shells out to `go list -deps
// -export`. It type-checks the module's packages from source in dependency
// order, and feeds the standard library's compiler export data to the gc
// importer, the mechanism `go vet`'s unitchecker uses. Analyzers get full
// syntax (with comments) plus go/types information for the packages under
// analysis.
//
// The project's one analyzer lives in the subpackage determinism; cmd/bbvet
// runs it over the tree. Other contracts need no pass: the ingress contract
// (admission and dedup before any signature check) is held at compile time by
// internal/core's admitted and looked types, the bound of every core map by a
// test in that package (TestEveryMapIsBounded), each observer event's single
// source by event-count tests (core's TestObserver*, transport's
// TestUDPMetricsSmoke), and durable-write errors by tests that fail a chosen
// device write and read the error back (persist's failwrite_test.go,
// transport's TestUDPCloseReturnsDeviceError).
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics (a short lowercase word).
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// RunProgram inspects all loaded packages at once, with the call graph
	// and the parsed annotations built; it runs once per Run() invocation.
	RunProgram func(*ProgramPass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// ProgramPass is the interface between one Analyzer run and the loaded
// program.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program

	diags *[]Diagnostic
}

// Reportf records one finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Prog.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run builds the program view of pkgs once, applies each analyzer to it, and
// returns the combined diagnostics sorted and deduplicated, less those inside
// a DepOnly package: a chain from a reported package into one is reported at
// its start. Analyzer errors (not findings) abort. Graph construction costs
// milliseconds against the seconds `go list -export` and type-checking take,
// so every analyzer gets the whole-program view.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	prog := BuildProgram(pkgs)
	for _, a := range analyzers {
		pass := &ProgramPass{Analyzer: a, Prog: prog, diags: &diags}
		if err := a.RunProgram(pass); err != nil {
			return diags, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	depOnly := map[string]bool{}
	for _, pkg := range pkgs {
		if pkg.DepOnly {
			for _, f := range pkg.Files {
				depOnly[pkg.Fset.Position(f.Pos()).Filename] = true
			}
		}
	}
	reported := diags[:0]
	for _, d := range diags {
		if !depOnly[d.Pos.Filename] {
			reported = append(reported, d)
		}
	}
	return dedupeSorted(reported), nil
}

// dedupeSorted orders diagnostics by (file, line, column, message, analyzer)
// and drops exact duplicates, so bbvet output is byte-stable across runs and
// usable as a test golden.
func dedupeSorted(diags []Diagnostic) []Diagnostic {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if diags[i].Message != diags[j].Message {
			return diags[i].Message < diags[j].Message
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}
