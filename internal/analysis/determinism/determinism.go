// Package determinism enforces the repo's simulation-determinism contract:
// simulation code must take time from the injected env.Clock and randomness
// from the node's seeded *rand.Rand, and must not let Go's randomized map
// iteration order reach anything observable (a packet, an event, a slice
// built without sorting). PR 3's bit-identical serial/parallel replay relies
// on this; the analyzer turns the convention into a build error.
//
// Sources are calls to wall-clock entry points (time.Now, time.Since,
// timers) or the global math/rand functions, and map ranges whose loop body
// has order-dependent effects (appends to a slice, sends on a channel, calls
// anything non-pure) unless every appended slice is sorted later in the same
// function. A source with //bbvet:wallclock or //bbvet:unordered <why> on
// or above its line is reviewed and counts for nothing.
//
// A source in code held to its rule is a finding of chain length zero:
//
//   - a wall-clock or global-rand call anywhere in a package under
//     internal/, unless the file is wall-clock by nature (the UDP transport,
//     wall benchmarks) and says so with a //bbvet:wallclock <why> file
//     header;
//   - a leaking map range in the simulation-deterministic package set
//     (DetPackages), which has no file-level escape.
//
// Every other source — in an exempt file, outside internal/, or a map range
// in an internal package outside DetPackages — taints its function, and the
// taint climbs the call graph until it reaches a function held to the rule
// (a DetPackages function, in a non-exempt file for the wall-clock rule).
// The finding lands on that frontier call site with the chain printed
// ("obsv.Wrapped → obsv.Stamp → time.Now"), so a det-package function cannot
// launder nondeterminism through a helper; the frontier never taints its own
// callers, so each boundary crossing yields one finding. Calls through
// interfaces (env.Clock.Now) or function values do not propagate: injected
// interfaces are the sanctioned seam for nondeterminism.
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

// Analyzer is the determinism pass.
var Analyzer = &analysis.Analyzer{
	Name:       "determinism",
	Doc:        "forbid wall-clock time, global math/rand and order-leaking map iteration in simulation-deterministic packages, directly or through a call chain",
	RunProgram: run,
}

func run(pass *analysis.ProgramPass) error {
	prog := pass.Prog
	pass.CheckAnnotations(analysis.AnnWallclock, analysis.AnnUnordered, analysis.AnnUnknown)
	exempt := func(pos token.Pos) bool { return prog.Annotations(pos).FileExempt(analysis.AnnWallclock) }

	// Wall-clock sources: a file walk, because code outside any function
	// (a package-level var initializer) has no call-graph node.
	wall := map[*types.Func]*analysis.Taint{}
	for _, pkg := range prog.Packages {
		internal := strings.Contains(pkg.Path, "internal/")
		for _, file := range pkg.Files {
			if prog.TestFile(file.Pos()) {
				continue
			}
			held := internal && !exempt(file.Pos())
			for _, decl := range file.Decls {
				var fn *types.Func
				if fd, ok := decl.(*ast.FuncDecl); ok {
					fn, _ = pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					callee := pkg.CalleeOf(call)
					if callee == nil || wallClock(callee) == "" || prog.AnnotationAt(analysis.AnnWallclock, call.Pos()) != nil {
						return true
					}
					switch {
					case held:
						pass.Reportf(call.Pos(), "%s (or annotate //bbvet:wallclock <why>)", wallClock(callee))
					case fn != nil && wall[fn] == nil:
						wall[fn] = &analysis.Taint{Desc: analysis.FuncDisplayName(callee), Pos: call.Pos()}
					}
					return true
				})
			}
		}
	}

	// Map-range sources.
	unordered := map[*types.Func]*analysis.Taint{}
	prog.EachFunc(func(n *analysis.FuncNode) {
		if n.TestFile || !strings.Contains(n.Pkg.Path, "internal/") {
			return
		}
		for _, r := range leakyRanges(prog, n.Pkg, n.Decl.Body) {
			switch {
			case DetPackages[n.Pkg.Path] && r.badAppend != nil:
				pass.Reportf(r.pos, "range over map has order-dependent effects (appends to %s, never sorted in this function); sort the keys first, sort the result, or annotate //bbvet:unordered <why>", r.badAppend.Name())
			case DetPackages[n.Pkg.Path]:
				pass.Reportf(r.pos, "range over map has order-dependent effects (%s at %s); iterate sorted keys or annotate //bbvet:unordered <why>",
					r.effect, prog.Fset.Position(r.effectPos))
			case unordered[n.Fn] == nil:
				unordered[n.Fn] = &analysis.Taint{Desc: "order-dependent map range (" + r.describe() + ")", Pos: r.pos}
			}
		}
	})

	inDet := func(n *analysis.FuncNode) bool { return DetPackages[n.Pkg.Path] && !n.TestFile }
	reportChains(pass, wall, analysis.AnnWallclock, func(n *analysis.FuncNode) bool { return inDet(n) && !exempt(n.Decl.Pos()) },
		func(t *analysis.Taint, chain string) string {
			return fmt.Sprintf("call chain reaches %s: %s; deterministic code takes time from the injected env.Clock and randomness from the seeded *rand.Rand (or annotate //bbvet:wallclock <why>)", t.Desc, chain)
		})
	reportChains(pass, unordered, analysis.AnnUnordered, inDet,
		func(_ *analysis.Taint, chain string) string {
			return fmt.Sprintf("call chain leaks map iteration order: %s; sort at the source or annotate //bbvet:unordered <why>", chain)
		})
	return nil
}

// reportChains propagates direct taints up the call graph and reports every
// call from a frontier function into tainted code, unless an annotation of
// kind excuses the call site. Frontier functions never carry taint further.
func reportChains(pass *analysis.ProgramPass, direct map[*types.Func]*analysis.Taint, kind string, frontier func(*analysis.FuncNode) bool, message func(*analysis.Taint, string) string) {
	prog := pass.Prog
	taints := prog.Propagate(direct, func(n *analysis.FuncNode) bool { return !frontier(n) })
	prog.EachFunc(func(n *analysis.FuncNode) {
		if !frontier(n) {
			return
		}
		for _, cs := range n.Calls {
			if t := taints[cs.Callee]; t != nil && prog.AnnotationAt(kind, cs.Call.Pos()) == nil {
				pass.Reportf(cs.Call.Pos(), "%s", message(t, prog.Chain(&analysis.Taint{Next: cs.Callee}, taints)))
			}
		}
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
		return analysis.FuncDisplayName(fn) + " is wall clock; deterministic code takes time from the injected env.Clock"
	case (path == "math/rand" || path == "math/rand/v2") && forbiddenRand[fn.Name()]:
		return "global " + analysis.FuncDisplayName(fn) + " is process-shared and unseeded; use the node's injected *rand.Rand"
	}
	return ""
}

// leakyRanges returns, in source order, the map ranges in body that have an
// order-dependent effect and no //bbvet:unordered annotation. body is the
// scope searched for "sorted later"; nested function literals are scanned as
// their own scopes (a sort in the outer function cannot vouch for an append
// inside a closure that may run later).
func leakyRanges(prog *analysis.Program, pkg *analysis.Package, body *ast.BlockStmt) []*rangeEffect {
	var out []*rangeEffect
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			out = append(out, leakyRanges(prog, pkg, n.Body)...)
			return false
		case *ast.RangeStmt:
			if tv := pkg.TypesInfo.TypeOf(n.X); tv == nil {
				return true
			} else if _, isMap := tv.Underlying().(*types.Map); !isMap {
				return true
			}
			if prog.AnnotationAt(analysis.AnnUnordered, n.For) != nil {
				return true
			}
			if f := findRangeEffect(pkg, n, body); f != nil {
				out = append(out, f)
			}
		}
		return true
	})
	return out
}

// rangeEffect is the order-dependent effect of the map range at pos: either
// an append whose target is never sorted (badAppend) or a directly leaking
// statement (effect + position).
type rangeEffect struct {
	pos       token.Pos
	effect    string
	effectPos token.Pos
	badAppend types.Object
}

// describe names the effect for a call-chain diagnostic.
func (f *rangeEffect) describe() string {
	if f.badAppend != nil {
		return fmt.Sprintf("appends to %s without sorting", f.badAppend.Name())
	}
	return f.effect
}

// findRangeEffect runs the order-leak heuristic over n's body and returns the
// first effect that leaks iteration order, or nil if the loop is clean.
func findRangeEffect(pkg *analysis.Package, n *ast.RangeStmt, fnBody *ast.BlockStmt) *rangeEffect {
	info := pkg.TypesInfo
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
		if !sortedAfter(pkg, fnBody, n.End(), obj) {
			return &rangeEffect{pos: n.For, badAppend: obj}
		}
	}
	if firstEffect != "" {
		return &rangeEffect{pos: n.For, effect: firstEffect, effectPos: effectPos}
	}
	return nil
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
