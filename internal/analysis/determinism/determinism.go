// Package determinism enforces the repo's simulation-determinism contract:
// simulation code must take time from the injected env.Clock and randomness
// from the node's seeded *rand.Rand, and must not let Go's randomized map
// iteration order reach anything observable (a packet, an event, a slice
// built without sorting). PR 3's bit-identical serial/parallel replay relies
// on this; the analyzer turns the convention into a build error.
//
// Scope:
//
//   - In every package under internal/, wall-clock sources (time.Now,
//     time.Since, timers) and the global math/rand functions are forbidden.
//     Files that are wall-clock by nature (the UDP transport, wall
//     benchmarks) declare it with //bbvet:wallclock <why> in the
//     file header; a single expression can be exempted with the same
//     annotation on or above its line.
//   - In the simulation-deterministic package set (DetPackages), ranging
//     over a map is additionally checked: if the loop body has
//     order-dependent effects (appends to a slice, sends on a channel, calls
//     anything non-pure), the analyzer requires either that every appended
//     slice is sorted later in the same function, or a //bbvet:unordered
//     <why> annotation on the range statement.
package determinism

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"bbcast/internal/analysis"
)

// DetPackages is the simulation-deterministic package set: every package
// whose code runs inside a discrete-event simulation and therefore must be a
// pure function of (scenario, seed). Adding a package here subjects it to
// the map-iteration checks as well as the wall-clock/global-rand ban.
var DetPackages = map[string]bool{
	"bbcast/internal/sim":         true,
	"bbcast/internal/env":         true,
	"bbcast/internal/core":        true,
	"bbcast/internal/persist":     true,
	"bbcast/internal/radio":       true,
	"bbcast/internal/mac":         true,
	"bbcast/internal/overlay":     true,
	"bbcast/internal/fd":          true,
	"bbcast/internal/geo":         true,
	"bbcast/internal/mobility":    true,
	"bbcast/internal/faultplan":   true,
	"bbcast/internal/byzantine":   true,
	"bbcast/internal/runner":      true,
	"bbcast/internal/experiments": true,
	"bbcast/internal/wire":        true,
	"bbcast/internal/loadgen":     true,
}

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
// package sort / slices functions whose first argument is the slice.
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

// Analyzer is the determinism pass.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock time, global math/rand and order-leaking map iteration in simulation-deterministic packages",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	inInternal := strings.Contains(path, "internal/")
	inDetSet := DetPackages[path]
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		ann := analysis.ParseAnnotations(pass.Fset, file)
		analysis.CheckAnnotations(pass, ann)
		if !inInternal {
			continue
		}
		wallclockFile := ann.FileExempt(analysis.AnnWallclock)
		if !wallclockFile {
			checkWallClock(pass, file, ann)
		}
		if inDetSet {
			checkMapRanges(pass, file, ann)
		}
	}
	return nil
}

// checkWallClock reports calls into the forbidden time / global-rand surface.
func checkWallClock(pass *analysis.Pass, file *ast.File, ann *analysis.FileAnnotations) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkgPath, name := calledPackageFunc(pass.TypesInfo, call)
		var bad string
		switch {
		case pkgPath == "time" && forbiddenTime[name]:
			bad = fmt.Sprintf("time.%s is wall clock; deterministic code takes time from the injected env.Clock", name)
		case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && forbiddenRand[name]:
			bad = fmt.Sprintf("global %s.%s is process-shared and unseeded; use the node's injected *rand.Rand", pathBase(pkgPath), name)
		default:
			return true
		}
		if ann.At(analysis.AnnWallclock, pass.Fset.Position(call.Pos()).Line) != nil {
			return true
		}
		pass.Reportf(call.Pos(), "%s (or annotate //bbvet:wallclock <why>)", bad)
		return true
	})
}

// WallClockFunc reports whether fn is on the forbidden wall-clock/global-rand
// surface, naming it for a diagnostic ("time.Now", "rand.IntN"). The detflow
// pass uses this to seed transitive taint from resolved callees, so the
// intraprocedural ban above and the interprocedural one can never drift apart.
func WallClockFunc(fn *types.Func) (string, bool) {
	if fn.Pkg() == nil {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "", false
	}
	path := fn.Pkg().Path()
	switch {
	case path == "time" && forbiddenTime[fn.Name()]:
		return "time." + fn.Name(), true
	case (path == "math/rand" || path == "math/rand/v2") && forbiddenRand[fn.Name()]:
		return pathBase(path) + "." + fn.Name(), true
	}
	return "", false
}

// calledPackageFunc resolves call to (package path, function name) when the
// callee is a qualified identifier like time.Now; otherwise ("", "").
func calledPackageFunc(info *types.Info, call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := info.Uses[ident].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

func pathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// checkMapRanges walks every function in file and flags map iterations whose
// body has order-dependent effects.
func checkMapRanges(pass *analysis.Pass, file *ast.File, ann *analysis.FileAnnotations) {
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		checkFuncMapRanges(pass, fd.Body, ann)
	}
}

// checkFuncMapRanges inspects one function body. fnBody is the scope searched
// for "sorted later"; nested function literals are scanned as their own
// scopes (a sort in the outer function cannot vouch for an append inside a
// closure that may run later).
func checkFuncMapRanges(pass *analysis.Pass, fnBody *ast.BlockStmt, ann *analysis.FileAnnotations) {
	ast.Inspect(fnBody, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkFuncMapRanges(pass, n.Body, ann)
			return false
		case *ast.RangeStmt:
			if _, isMap := pass.TypesInfo.TypeOf(n.X).Underlying().(*types.Map); !isMap {
				return true
			}
			if ann.At(analysis.AnnUnordered, pass.Fset.Position(n.For).Line) != nil {
				return true
			}
			reportMapRange(pass, n, fnBody)
		}
		return true
	})
}

// reportMapRange flags n if its body has an effect that leaks iteration
// order out of the loop.
func reportMapRange(pass *analysis.Pass, n *ast.RangeStmt, fnBody *ast.BlockStmt) {
	f := findRangeEffect(pass.TypesInfo, n, fnBody)
	if f == nil {
		return
	}
	if f.badAppend != nil {
		pass.Reportf(n.For, "range over map has order-dependent effects (appends to %s, never sorted in this function); sort the keys first, sort the result, or annotate //bbvet:unordered <why>", f.badAppend.Name())
		return
	}
	pass.Reportf(n.For, "range over map has order-dependent effects (%s at %s); iterate sorted keys or annotate //bbvet:unordered <why>",
		f.effect, pass.Fset.Position(f.effectPos))
}

// RangeEffect describes the order-dependent effect of the map-range statement
// n, or "" when the loop is order-insensitive by the same heuristic the
// per-package pass applies. fnBody is the enclosing function scope searched
// for an after-the-loop sort. The detflow pass uses this to treat effectful
// map ranges in packages outside DetPackages as taint sources, so a
// det-package function cannot launder iteration order through a helper
// package the direct check does not cover.
func RangeEffect(info *types.Info, n *ast.RangeStmt, fnBody *ast.BlockStmt) string {
	f := findRangeEffect(info, n, fnBody)
	switch {
	case f == nil:
		return ""
	case f.badAppend != nil:
		return fmt.Sprintf("appends to %s without sorting", f.badAppend.Name())
	default:
		return f.effect
	}
}

// rangeEffect is one order-dependent effect found inside a map-range body:
// either an append whose target is never sorted (badAppend) or a directly
// leaking statement (effect + position).
type rangeEffect struct {
	effect    string
	effectPos token.Pos
	badAppend types.Object
}

// findRangeEffect runs the order-leak heuristic over n's body and returns the
// first effect that leaks iteration order, or nil if the loop is clean.
func findRangeEffect(info *types.Info, n *ast.RangeStmt, fnBody *ast.BlockStmt) *rangeEffect {
	var firstEffect string
	var effectPos token.Pos
	appendTargets := map[types.Object]token.Pos{}
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
							appendTargets[obj] = call.Pos()
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
	for obj := range appendTargets {
		if !sortedAfter(info, fnBody, n.End(), obj) {
			return &rangeEffect{badAppend: obj}
		}
	}
	if firstEffect != "" {
		return &rangeEffect{effect: firstEffect, effectPos: effectPos}
	}
	return nil
}

// sortedAfter reports whether obj is passed to a sort function after pos
// inside scope.
func sortedAfter(info *types.Info, scope *ast.BlockStmt, pos token.Pos, obj types.Object) bool {
	found := false
	ast.Inspect(scope, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || len(call.Args) == 0 {
			return true
		}
		pkgPath, name := calledPackageFunc(info, call)
		base := pathBase(pkgPath)
		if fns, ok := sortFuncs[base]; !ok || !fns[name] {
			return true
		}
		if id, ok := call.Args[0].(*ast.Ident); ok && info.ObjectOf(id) == obj {
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
