// Package ordering proves the PR 4 ingress contract of internal/core as a
// build-time fact instead of a code-review convention: every packet-ingress
// path sheds over-budget senders at the token bucket and consults the dedup
// tables before paying for a signature verification.
//
// The pass is table-driven against the call graph. Crypto sinks are the
// Verify methods declared in internal/sig (the Scheme interface method
// anchors interface dispatch); any function whose call chain reaches one is
// "crypto-reaching". Three rules then hold over internal/core:
//
//  1. Protocol.HandlePacket — the single packet-ingress root — must gate the
//     kind dispatch behind `if !p.admit(...) { return }` before its first
//     crypto-reaching call.
//  2. Every handler that verifies (handleData, handleGossip, handleRequest,
//     handleFindMissing, handleSyncResp, handleState) must consult the table
//     holding the bytes it already verified (p.store / p.missing /
//     p.neighbors) before its first crypto-reaching call: by indexing it, or
//     by calling a core lookup helper that indexes it and itself never
//     reaches crypto (knownHeaderSig).
//  3. No other exported function taking a *wire.Packet may reach crypto:
//     a second verify-bearing ingress point would bypass the admission
//     bucket.
//
// The tables themselves are drift-checked: if a named function disappears
// (renamed, split), the pass reports it rather than silently proving nothing,
// through the ProgramPass.CheckTable helper boundedstate and obsvonce share.
// A reviewed exception is spelled //bbvet:ordering <why> on the
// crypto-reaching line.
package ordering

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"bbcast/internal/analysis"
)

// Analyzer is the admission-before-crypto pass.
var Analyzer = &analysis.Analyzer{
	Name:       "ordering",
	Doc:        "prove internal/core packet ingress hits token-bucket admission and dedup before any sig verify",
	RunProgram: run,
}

// corePathSuffix scopes the pass; fixtures pose as the same path.
const corePathSuffix = "internal/core"

// sigPathSuffix anchors the crypto sinks.
const sigPathSuffix = "internal/sig"

// ingressRoot is the one function allowed to reach crypto from a packet:
// it must run the admission guard first.
const ingressRoot = "Protocol.HandlePacket"

// admissionGuard is the token-bucket method whose negated check guards the
// ingress dispatch.
const admissionGuard = "admit"

// dedupGuards names, per handler, the Protocol map fields that must be
// consulted before the handler's first crypto-reaching call.
var dedupGuards = map[string][]string{
	"Protocol.handleData":        {"store"},
	"Protocol.handleGossip":      {"store", "missing"},
	"Protocol.handleRequest":     {"store", "missing"},
	"Protocol.handleFindMissing": {"store", "missing"},
	"Protocol.handleSyncResp":    {"store"},
	"Protocol.handleState":       {"neighbors"},
}

func run(pass *analysis.ProgramPass) error {
	prog := pass.Prog
	pass.CheckAnnotations(analysis.AnnOrdering)

	// Seed crypto taint at every resolved call to a sig Verify method and
	// spread it through every caller (no frontier: "reaches crypto" is a
	// global property).
	direct := map[*types.Func]*analysis.Taint{}
	prog.EachFunc(func(n *analysis.FuncNode) {
		for _, cs := range n.Calls {
			if isCryptoVerify(cs.Callee) {
				direct[cs.Callee] = &analysis.Taint{Desc: analysis.FuncDisplayName(cs.Callee)}
			}
		}
	})
	taints := prog.Propagate(direct, nil)

	// Index the core package's functions.
	nodes := map[string]*analysis.FuncNode{}
	var corePos token.Pos
	for _, pkg := range prog.Packages {
		if corePos == token.NoPos && strings.HasSuffix(pkg.Path, corePathSuffix) && len(pkg.Files) > 0 {
			corePos = pkg.Files[0].Name.Pos()
		}
	}
	prog.EachFunc(func(n *analysis.FuncNode) {
		if strings.HasSuffix(n.Pkg.Path, corePathSuffix) && !n.TestFile {
			nodes[analysis.LocalName(n.Fn)] = n
		}
	})
	if corePos == token.NoPos {
		return nil // no core package in this load; nothing to prove
	}
	excused := func(pos token.Pos) bool { return prog.AnnotationAt(analysis.AnnOrdering, pos) != nil }

	handlers := make([]string, 0, len(dedupGuards))
	for name := range dedupGuards {
		handlers = append(handlers, name)
	}
	slices.Sort(handlers)
	pass.CheckTable(corePos, "ordering table drift: %s not found in "+corePathSuffix+"; update the analyzer tables to the renamed ingress path",
		append([]string{ingressRoot}, handlers...), func(name string) bool { return nodes[name] != nil })

	// Rule 1: admission before crypto in the ingress root.
	if root := nodes[ingressRoot]; root != nil {
		cryptoPos, chain := firstCrypto(prog, root, taints)
		if cryptoPos != token.NoPos {
			guardPos := admissionGuardPos(root)
			switch {
			case guardPos == token.NoPos:
				if !excused(cryptoPos) {
					pass.Reportf(cryptoPos, "%s reaches crypto (%s) with no `if !%s { return }` admission guard; token-bucket shedding must precede signature work", ingressRoot, chain, admissionGuard)
				}
			case cryptoPos < guardPos:
				if !excused(cryptoPos) {
					pass.Reportf(cryptoPos, "%s reaches crypto (%s) before the %s admission guard; a flooding sender must be shed before any signature work", ingressRoot, chain, admissionGuard)
				}
			}
		}
	}

	// Rule 2: dedup lookup before crypto in each table handler.
	for _, name := range handlers {
		n := nodes[name]
		if n == nil {
			continue // drift already reported
		}
		cryptoPos, chain := firstCrypto(prog, n, taints)
		if cryptoPos == token.NoPos {
			continue
		}
		for _, field := range dedupGuards[name] {
			if p := firstConsult(prog, n, field, taints); p == token.NoPos || p > cryptoPos {
				if !excused(cryptoPos) {
					pass.Reportf(cryptoPos, "%s reaches crypto (%s) before consulting the %s dedup table; a replayed frame must cost a lookup, not a verify", name, chain, field)
				}
			}
		}
	}

	// Rule 3: no second verify-bearing packet ingress.
	prog.EachFunc(func(n *analysis.FuncNode) {
		if !strings.HasSuffix(n.Pkg.Path, corePathSuffix) || n.TestFile {
			return
		}
		name := analysis.LocalName(n.Fn)
		if name == ingressRoot || !ast.IsExported(n.Fn.Name()) || !takesPacket(n.Fn) {
			return
		}
		if cryptoPos, chain := firstCrypto(prog, n, taints); cryptoPos != token.NoPos && !excused(cryptoPos) {
			pass.Reportf(cryptoPos, "exported packet entry point %s reaches crypto (%s) outside %s, bypassing the admission bucket", name, chain, ingressRoot)
		}
	})
	return nil
}

// isCryptoVerify reports whether fn is a Verify method (interface or
// concrete) declared in the sig package.
func isCryptoVerify(fn *types.Func) bool {
	if fn.Name() != "Verify" || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), sigPathSuffix) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// firstCrypto returns the earliest call site in n whose callee reaches a
// crypto sink, with the rendered chain.
func firstCrypto(prog *analysis.Program, n *analysis.FuncNode, taints map[*types.Func]*analysis.Taint) (token.Pos, string) {
	for _, cs := range n.Calls {
		if taints[cs.Callee] != nil {
			return cs.Call.Pos(), prog.Chain(&analysis.Taint{Next: cs.Callee}, taints)
		}
	}
	return token.NoPos, ""
}

// admissionGuardPos finds the `if ... admit(...) ... { ... return ... }`
// statement in root's body and returns its position.
func admissionGuardPos(root *analysis.FuncNode) token.Pos {
	pos := token.NoPos
	ast.Inspect(root.Decl.Body, func(nd ast.Node) bool {
		if pos != token.NoPos {
			return false
		}
		ifs, ok := nd.(*ast.IfStmt)
		if !ok {
			return true
		}
		callsAdmit := false
		ast.Inspect(ifs.Cond, func(c ast.Node) bool {
			if call, ok := c.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == admissionGuard {
					callsAdmit = true
				}
			}
			return true
		})
		if !callsAdmit {
			return true
		}
		for _, stmt := range ifs.Body.List {
			if _, ok := stmt.(*ast.ReturnStmt); ok {
				pos = ifs.If
				break
			}
		}
		return true
	})
	return pos
}

// firstConsult returns the earliest position in n that consults the table
// named field: an index expression in n's own body, or a call to a function
// of the same package that indexes it and reaches no crypto sink (a lookup
// helper; one that could verify on its own would prove nothing about order).
func firstConsult(prog *analysis.Program, n *analysis.FuncNode, field string, taints map[*types.Func]*analysis.Taint) token.Pos {
	pos := firstIndexOf(n.Decl.Body, field)
	for _, cs := range n.Calls {
		helper := prog.Funcs[cs.Callee]
		if helper == nil || helper.Pkg != n.Pkg || taints[cs.Callee] != nil {
			continue
		}
		if at := cs.Call.Pos(); (pos == token.NoPos || at < pos) && firstIndexOf(helper.Decl.Body, field) != token.NoPos {
			pos = at
		}
	}
	return pos
}

// firstIndexOf returns the position of the first index expression in body
// over a field or variable named field, or over a field of it (p.store[id],
// p.store.byID[id]).
func firstIndexOf(body *ast.BlockStmt, field string) token.Pos {
	pos := token.NoPos
	ast.Inspect(body, func(nd ast.Node) bool {
		if pos != token.NoPos {
			return false
		}
		idx, ok := nd.(*ast.IndexExpr)
		if !ok {
			return true
		}
		for x := ast.Unparen(idx.X); x != nil && pos == token.NoPos; {
			name := ""
			switch e := x.(type) {
			case *ast.SelectorExpr:
				name, x = e.Sel.Name, ast.Unparen(e.X)
			case *ast.Ident:
				name, x = e.Name, nil
			default:
				x = nil
			}
			if name == field {
				pos = idx.Pos()
			}
		}
		return true
	})
	return pos
}

// takesPacket reports whether fn has a parameter of a type named Packet
// (the wire ingress shape).
func takesPacket(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Name() == "Packet" {
			return true
		}
	}
	return false
}
