// Package errflow turns the PR 9 "latch Store.Err" discipline into a checked
// rule: an error produced by a persist or transport write must be read,
// returned, or explicitly excused — never silently dropped or overwritten.
//
// Watched functions start from a seed set — the internal/persist device and
// store write surface (AppendLog, WriteSnapshot, ResetLog, Close, Snapshot)
// and net's WriteTo* datagram writes — and grow along the call graph: any
// function returning an error that wraps a watched call becomes watched
// itself, so `return s.dev.AppendLog(rec)` moves the obligation to the
// caller rather than discharging it.
//
// At every call site of a watched function, four shapes are flagged:
//
//   - a bare call statement (the error vanishes),
//   - an assignment that discards the error into _,
//   - go/defer of a watched call (the error is unobservable),
//   - an error assigned to a variable that is never read afterwards — the
//     stale-error bug where a later `err = ...` overwrites an unchecked one.
//
// Assigning the error to a struct field (s.err = ...) counts as handling:
// that is precisely the latch pattern the discipline prescribes. A reviewed
// drop is spelled //bbvet:errflow <why> on or above the call line.
package errflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"bbcast/internal/analysis"
)

// Analyzer is the dropped-write-error pass.
var Analyzer = &analysis.Analyzer{
	Name:       "errflow",
	Doc:        "flag dropped, discarded, or overwritten errors from persist and transport writes",
	RunProgram: run,
}

// persistMethods is the write surface of internal/persist whose errors are
// latched or surfaced, never ignored.
var persistMethods = map[string]bool{
	"AppendLog": true, "WriteSnapshot": true, "ResetLog": true,
	"Close": true, "Snapshot": true,
}

// isSeed reports whether fn is a raw watched write: a persist device/store
// method or a net datagram write, with an error as last result.
func isSeed(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !returnsError(sig) {
		return false
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch {
	case strings.HasSuffix(pkg.Path(), "internal/persist") && persistMethods[fn.Name()]:
		return true
	case pkg.Path() == "net" && strings.HasPrefix(fn.Name(), "WriteTo"):
		return true
	}
	return false
}

func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	named, ok := res.At(res.Len() - 1).Type().(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

func run(pass *analysis.ProgramPass) error {
	prog := pass.Prog
	pass.CheckAnnotations(analysis.AnnErrflow)

	// Seed taint at every resolved watched call, then grow the watched set
	// through error-returning wrappers.
	direct := map[*types.Func]*analysis.Taint{}
	prog.EachFunc(func(n *analysis.FuncNode) {
		for _, cs := range n.Calls {
			if isSeed(cs.Callee) {
				direct[cs.Callee] = &analysis.Taint{
					Desc: analysis.FuncDisplayName(cs.Callee),
					Pos:  cs.Call.Pos(),
				}
			}
		}
	})
	taints := prog.Propagate(direct, func(n *analysis.FuncNode) bool {
		sig, ok := n.Fn.Type().(*types.Signature)
		return ok && returnsError(sig)
	})

	prog.EachFunc(func(n *analysis.FuncNode) {
		if n.TestFile {
			return
		}
		checkFunc(pass, n, taints)
	})
	return nil
}

// checkFunc flags the four bad shapes around watched calls in one function.
func checkFunc(pass *analysis.ProgramPass, n *analysis.FuncNode, taints map[*types.Func]*analysis.Taint) {
	prog := pass.Prog
	info := n.Pkg.TypesInfo
	body := n.Decl.Body

	watched := func(e ast.Expr) (*types.Func, bool) {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return nil, false
		}
		callee := n.Pkg.CalleeOf(call)
		if callee == nil || taints[callee] == nil {
			return nil, false
		}
		return callee, true
	}
	excused := func(pos token.Pos) bool {
		return prog.AnnotationAt(analysis.AnnErrflow, pos) != nil
	}
	// wraps names the raw write a propagated wrapper reaches, "" for seeds.
	wraps := func(callee *types.Func) string {
		t := taints[callee]
		for t.Next != nil {
			next := taints[t.Next]
			if next == nil {
				break
			}
			t = next
		}
		if t.Desc == analysis.FuncDisplayName(callee) {
			return ""
		}
		return " (wraps " + t.Desc + ")"
	}
	// lhsTargets are idents written by any assignment: a reassignment is
	// not a read of the previous error.
	lhsTargets := map[*ast.Ident]bool{}
	ast.Inspect(body, func(nd ast.Node) bool {
		if as, ok := nd.(*ast.AssignStmt); ok {
			for _, l := range as.Lhs {
				if id, ok := ast.Unparen(l).(*ast.Ident); ok {
					lhsTargets[id] = true
				}
			}
		}
		return true
	})

	ast.Inspect(body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.ExprStmt:
			if callee, ok := watched(nd.X); ok && !excused(nd.Pos()) {
				pass.Reportf(nd.Pos(), "error from %s%s is dropped; check it, latch it, or annotate //bbvet:errflow <why>", analysis.FuncDisplayName(callee), wraps(callee))
			}
		case *ast.GoStmt:
			if callee, ok := watched(nd.Call); ok && !excused(nd.Pos()) {
				pass.Reportf(nd.Pos(), "error from %s%s is unobservable in a go statement; call it synchronously or annotate //bbvet:errflow <why>", analysis.FuncDisplayName(callee), wraps(callee))
			}
		case *ast.DeferStmt:
			if callee, ok := watched(nd.Call); ok && !excused(nd.Pos()) {
				pass.Reportf(nd.Pos(), "error from %s%s is unobservable in a deferred call; capture it or annotate //bbvet:errflow <why>", analysis.FuncDisplayName(callee), wraps(callee))
			}
		case *ast.AssignStmt:
			for i, rhs := range nd.Rhs {
				callee, ok := watched(rhs)
				if !ok || excused(rhs.Pos()) {
					continue
				}
				lhs := nd.Lhs[len(nd.Lhs)-1]
				if len(nd.Lhs) == len(nd.Rhs) {
					lhs = nd.Lhs[i]
				}
				id, isIdent := ast.Unparen(lhs).(*ast.Ident)
				if !isIdent {
					continue // s.err = ... : the latch pattern, handled
				}
				if id.Name == "_" {
					pass.Reportf(rhs.Pos(), "error from %s%s is discarded into _; check it, latch it, or annotate //bbvet:errflow <why>", analysis.FuncDisplayName(callee), wraps(callee))
					continue
				}
				obj := info.ObjectOf(id)
				if obj == nil {
					continue
				}
				if !readAfter(info, body, obj, nd, lhsTargets) {
					pass.Reportf(rhs.Pos(), "error from %s%s is assigned to %s but never read; the stale error hides the failure — check it or annotate //bbvet:errflow <why>", analysis.FuncDisplayName(callee), wraps(callee), id.Name)
				}
			}
		}
		return true
	})
}

// readAfter reports whether obj is read after the assignment — positionally
// later in the function, or anywhere inside the innermost loop enclosing the
// assignment (a check at the top of the next iteration reads this
// iteration's value).
func readAfter(info *types.Info, body *ast.BlockStmt, obj types.Object, assign *ast.AssignStmt, lhsTargets map[*ast.Ident]bool) bool {
	var loop ast.Node
	ast.Inspect(body, func(nd ast.Node) bool {
		switch nd.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if nd.Pos() <= assign.Pos() && assign.End() <= nd.End() {
				loop = nd // Inspect descends, so the last hit is innermost
			}
		}
		return true
	})
	found := false
	ast.Inspect(body, func(nd ast.Node) bool {
		if found {
			return false
		}
		id, ok := nd.(*ast.Ident)
		if !ok || lhsTargets[id] || info.Uses[id] != obj {
			return true
		}
		if id.Pos() > assign.End() || (loop != nil && loop.Pos() <= id.Pos() && id.Pos() < loop.End()) {
			found = true
		}
		return true
	})
	return found
}
