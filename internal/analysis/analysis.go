// Package analysis is the minimal, dependency-free machinery under cmd/bbvet:
// a loader that type-checks packages from source, the //bbvet: annotation
// grammar, position-anchored diagnostics, and a SARIF writer. The one rule
// that uses it lives in the subpackage determinism.
//
// The repo intentionally has no external module dependencies, so instead of
// the golang.org/x/tools driver the loader shells out to `go list -deps
// -export`. It type-checks the matched packages from source and resolves
// their imports from the compiler's export data through the gc importer, the
// mechanism `go vet`'s unitchecker uses. The rule gets full syntax (with
// comments) plus go/types information for each package, and looks at one
// package at a time.
//
// Other contracts need no pass: the ingress contract (admission and dedup
// before any signature check) is held at compile time by internal/core's
// admitted and looked types, the bound of every core map by a test in that
// package (TestEveryMapIsBounded), each observer event's single source by
// event-count tests (core's TestObserver*, transport's TestUDPMetricsSmoke),
// and durable-write errors by tests that fail a chosen device write and read
// the error back (persist's failwrite_test.go, transport's
// TestUDPCloseReturnsDeviceError).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// DedupeSorted orders diagnostics by (file, line, column, message, analyzer)
// and drops exact duplicates, so bbvet output is byte-stable across runs and
// usable as a test golden.
func DedupeSorted(diags []Diagnostic) []Diagnostic {
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

// CalleeOf resolves a call expression to its static callee: a package-level
// function, a concrete method, or an interface method. Calls through
// function values, builtins, and type conversions return nil.
func (p *Package) CalleeOf(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := p.TypesInfo.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := p.TypesInfo.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal {
				if fn, ok := sel.Obj().(*types.Func); ok {
					return fn
				}
			}
			return nil
		}
		// No selection entry: a package-qualified call like time.Now.
		if fn, ok := p.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
