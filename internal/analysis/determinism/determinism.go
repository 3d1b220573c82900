// Package determinism enforces the repo's simulation-determinism contract:
// simulation code must take time from the injected env.Clock and randomness
// from the node's seeded *rand.Rand, and must not let Go's randomized map
// iteration order reach anything observable (a packet, an event, a slice
// built without sorting). PR 3's bit-identical serial/parallel replay relies
// on this; the rule turns the convention into a build error.
//
// The rule is per package. In every non-test file of every package under
// internal/ it reports:
//
//   - a call to a wall-clock entry point (time.Now, time.Since, timers) or a
//     global math/rand function, unless the line carries
//     //bbvet:wallclock <why> (on or above it), or the file is wall-clock by
//     nature (the UDP transport) and says so with a //bbvet:wallclock <why>
//     file header;
//   - a map range whose loop body has order-dependent effects (appends to a
//     slice, sends on a channel, calls anything non-pure) unless every
//     appended slice is sorted later in the same function, or the range
//     carries //bbvet:unordered <why>. Map ranges have no file-level escape.
//
// Packages outside internal/ (commands, examples, the benchmark) are free to
// read the wall clock; only their //bbvet: comments are checked. Calls
// through interfaces (env.Clock.Now) or function values are not followed:
// injected interfaces are the sanctioned seam for nondeterminism.
package determinism

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"bbcast/internal/analysis"
)

// Name and Doc identify the rule in diagnostics and in SARIF.
const (
	Name = "determinism"
	Doc  = "forbid wall-clock time, global math/rand and order-leaking map iteration in every package under internal/"
)

// forbiddenTime are the wall-clock entry points of package time. Simulation
// code gets time exclusively from env.Clock.
var forbiddenTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// forbiddenRand are the top-level math/rand (and v2) functions backed by the
// process-global generator. Constructors (New, NewSource, NewZipf, NewPCG,
// NewChaCha8) stay legal: explicit sources are how determinism is done.
var forbiddenRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
	// math/rand/v2 spellings not shared with v1.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "Uint": true, "UintN": true, "Uint32N": true,
	"Uint64N": true, "N": true,
}

// sortFuncs recognize "the collected result is sorted in the same function":
// package sort / slices functions (by import path) whose first argument is
// the slice.
var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
		"Strings": true, "Ints": true, "Float64s": true,
	},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// pureBuiltins may be called inside a map range without creating an
// order-dependent effect (append is handled separately).
var pureBuiltins = map[string]bool{
	"len": true, "cap": true, "delete": true, "make": true, "new": true,
	"min": true, "max": true,
}

// Run applies the rule to pkgs and returns its findings sorted and
// deduplicated.
func Run(pkgs []*analysis.Package) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		internal := strings.Contains(pkg.Path, "internal/")
		for _, file := range pkg.Files {
			anns := analysis.ParseAnnotations(pkg.Fset, file)
			diags = append(diags, anns.Check(pkg.Fset, Name, analysis.AnnWallclock, analysis.AnnUnordered, analysis.AnnUnknown)...)
			if internal {
				c := &checker{pkg: pkg, anns: anns, diags: &diags}
				c.file(file)
			}
		}
	}
	return analysis.DedupeSorted(diags)
}

// checker applies the rule to one file of an internal package.
type checker struct {
	pkg   *analysis.Package
	anns  *analysis.FileAnnotations
	diags *[]analysis.Diagnostic
}

func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	*c.diags = append(*c.diags, analysis.Diagnostic{
		Analyzer: Name,
		Pos:      c.pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// annotated reports whether an annotation of kind governs the line of pos.
func (c *checker) annotated(kind string, pos token.Pos) bool {
	return c.anns.At(kind, c.pkg.Fset.Position(pos).Line) != nil
}

// file reports the file's wall-clock calls, anywhere (a package-level var
// initializer included), and the leaking map ranges of every function body.
func (c *checker) file(file *ast.File) {
	exempt := c.anns.FileExempt(analysis.AnnWallclock)
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if exempt {
				return true
			}
			if callee := c.pkg.CalleeOf(n); callee != nil && wallClock(callee) != "" && !c.annotated(analysis.AnnWallclock, n.Pos()) {
				c.reportf(n.Pos(), "%s (or annotate //bbvet:wallclock <why>)", wallClock(callee))
			}
		case *ast.FuncDecl:
			if n.Body != nil {
				c.ranges(n.Body)
			}
		}
		return true
	})
}

// wallClock returns the diagnostic for a call to fn when fn is on the
// forbidden wall-clock/global-rand surface, or "".
func wallClock(fn *types.Func) string {
	if fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return ""
	}
	switch path := fn.Pkg().Path(); {
	case path == "time" && forbiddenTime[fn.Name()]:
		return fn.Pkg().Name() + "." + fn.Name() + " is wall clock; deterministic code takes time from the injected env.Clock"
	case (path == "math/rand" || path == "math/rand/v2") && forbiddenRand[fn.Name()]:
		return "global " + fn.Pkg().Name() + "." + fn.Name() + " is process-shared and unseeded; use the node's injected *rand.Rand"
	}
	return ""
}

// ranges reports the map ranges in body that have an order-dependent effect
// and no //bbvet:unordered annotation. body is the scope searched for
// "sorted later"; nested function literals are scanned as their own scopes (a
// sort in the outer function cannot vouch for an append inside a closure that
// may run later).
func (c *checker) ranges(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.ranges(n.Body)
			return false
		case *ast.RangeStmt:
			if tv := c.pkg.TypesInfo.TypeOf(n.X); tv == nil {
				return true
			} else if _, isMap := tv.Underlying().(*types.Map); !isMap {
				return true
			}
			if c.annotated(analysis.AnnUnordered, n.For) {
				return true
			}
			badAppend, effect, effectPos := findRangeEffect(c.pkg, n, body)
			switch {
			case badAppend != nil:
				c.reportf(n.For, "range over map has order-dependent effects (appends to %s, never sorted in this function); sort the keys first, sort the result, or annotate //bbvet:unordered <why>", badAppend.Name())
			case effect != "":
				c.reportf(n.For, "range over map has order-dependent effects (%s at %s); iterate sorted keys or annotate //bbvet:unordered <why>",
					effect, c.pkg.Fset.Position(effectPos))
			}
		}
		return true
	})
}

// findRangeEffect runs the order-leak heuristic over n's body. It returns
// the first appended-to variable, by position, that is never sorted later in
// fnBody; else the first other effect that leaks iteration order and its
// position; else nothing.
func findRangeEffect(pkg *analysis.Package, n *ast.RangeStmt, fnBody *ast.BlockStmt) (badAppend types.Object, firstEffect string, effectPos token.Pos) {
	info := pkg.TypesInfo
	var appendTargets []types.Object // in order of first append
	appendAssigns := map[*ast.CallExpr]bool{}

	ast.Inspect(n.Body, func(b ast.Node) bool {
		if firstEffect != "" && len(appendTargets) == 0 {
			return false
		}
		switch b := b.(type) {
		case *ast.SendStmt:
			if firstEffect == "" {
				firstEffect, effectPos = "sends on a channel", b.Arrow
			}
		case *ast.AssignStmt:
			for i, rhs := range b.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltin(info, call, "append") {
					continue
				}
				appendAssigns[call] = true
				if i < len(b.Lhs) {
					if id, ok := b.Lhs[i].(*ast.Ident); ok {
						if obj := info.ObjectOf(id); obj != nil {
							if !slices.Contains(appendTargets, obj) {
								appendTargets = append(appendTargets, obj)
							}
							continue
						}
					}
				}
				if firstEffect == "" {
					firstEffect, effectPos = "appends to a non-local slice", call.Pos()
				}
			}
		case *ast.CallExpr:
			if appendAssigns[b] || isConversion(info, b) {
				return true
			}
			if name, isB := builtinName(info, b); isB {
				if pureBuiltins[name] {
					return true
				}
				if name == "append" {
					// append outside a plain assignment: result escapes
					// somewhere we cannot track.
					if firstEffect == "" {
						firstEffect, effectPos = "uses append outside a plain assignment", b.Pos()
					}
					return true
				}
			}
			if firstEffect == "" {
				firstEffect, effectPos = fmt.Sprintf("calls %s", calleeName(b)), b.Pos()
			}
		}
		return true
	})

	// Appends are fine if every target is sorted after the loop in the same
	// function scope.
	for _, obj := range appendTargets {
		if !sortedAfter(pkg, fnBody, n.End(), obj) {
			return obj, "", token.NoPos
		}
	}
	return nil, firstEffect, effectPos
}

// sortedAfter reports whether obj is passed to a sort function after pos
// inside scope.
func sortedAfter(pkg *analysis.Package, scope *ast.BlockStmt, pos token.Pos, obj types.Object) bool {
	found := false
	ast.Inspect(scope, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || len(call.Args) == 0 {
			return true
		}
		fn := pkg.CalleeOf(call)
		if fn == nil || fn.Pkg() == nil || !sortFuncs[fn.Pkg().Path()][fn.Name()] {
			return true
		}
		if id, ok := call.Args[0].(*ast.Ident); ok && pkg.TypesInfo.ObjectOf(id) == obj {
			found = true
		}
		return true
	})
	return found
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	got, ok := builtinName(info, call)
	return ok && got == name
}

func builtinName(info *types.Info, call *ast.CallExpr) (string, bool) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return "", false
	}
	if b, ok := info.ObjectOf(id).(*types.Builtin); ok {
		return b.Name(), true
	}
	return "", false
}

func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	default:
		return "a function value"
	}
}
