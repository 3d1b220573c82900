package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural layer: a project-wide static call graph
// over every loaded package, plus a deterministic taint-propagation engine on
// top of it. Every analyzer sees all packages at once through ProgramPass and
// can follow a fact across call boundaries — a time.Now() one helper away, a
// dropped write error returned through three frames.
//
// Resolution is static and best-effort: direct calls to package functions
// and methods resolve exactly; calls through an interface resolve to the
// interface method itself (a useful sink anchor — e.g. persist.Device.AppendLog
// — but not a path into its implementations); calls through function values
// do not resolve. Function literals are attributed to their enclosing named
// function.

// Program is the whole-program view handed to analyzers: every loaded
// package, every function body, the static call graph between them, and
// each file's //bbvet: annotations. All packages must share one
// token.FileSet (Load and LoadDirs guarantee this).
type Program struct {
	Packages []*Package
	Fset     *token.FileSet
	// Funcs indexes every function (and method) with a body in the loaded
	// packages by its types object.
	Funcs map[*types.Func]*FuncNode
	// nodes holds the same functions in deterministic source order
	// (file name, then position), the iteration order of EachFunc.
	nodes []*FuncNode
	anns  map[*token.File]*FileAnnotations
}

// FuncNode is one analyzed function with its resolved outgoing calls.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls lists the statically resolved call sites in source order,
	// closures included (attributed to this function).
	Calls []CallSite
	// TestFile marks functions defined in _test.go files; contract
	// analyzers usually skip them.
	TestFile bool
}

// CallSite is one resolved static call inside a FuncNode.
type CallSite struct {
	// Callee is the called function: a FuncNode key when its body was
	// loaded, or an external/interface method (a graph leaf) otherwise.
	Callee *types.Func
	Call   *ast.CallExpr
}

// BuildProgram constructs the call graph over pkgs and parses each file's
// annotations. It is pure analysis — no diagnostics — so every analyzer
// shares one build.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{Packages: pkgs, Funcs: map[*types.Func]*FuncNode{}, anns: map[*token.File]*FileAnnotations{}}
	if len(pkgs) > 0 {
		prog.Fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			prog.anns[prog.Fset.File(file.Pos())] = parseAnnotations(prog.Fset, file)
			testFile := prog.TestFile(file.Pos())
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Fn: fn, Decl: fd, Pkg: pkg, TestFile: testFile}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := pkg.CalleeOf(call); callee != nil {
						node.Calls = append(node.Calls, CallSite{Callee: callee, Call: call})
					}
					return true
				})
				prog.Funcs[fn] = node
				prog.nodes = append(prog.nodes, node)
			}
		}
	}
	sort.Slice(prog.nodes, func(i, j int) bool {
		a := prog.Fset.Position(prog.nodes[i].Decl.Pos())
		b := prog.Fset.Position(prog.nodes[j].Decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return prog
}

// EachFunc visits every function node in deterministic source order.
func (prog *Program) EachFunc(fn func(*FuncNode)) {
	for _, n := range prog.nodes {
		fn(n)
	}
}

// TestFile reports whether pos lies in a _test.go file.
func (prog *Program) TestFile(pos token.Pos) bool {
	return strings.HasSuffix(prog.Fset.File(pos).Name(), "_test.go")
}

// Annotations returns the //bbvet: comments of the loaded file holding pos.
func (prog *Program) Annotations(pos token.Pos) *FileAnnotations {
	return prog.anns[prog.Fset.File(pos)]
}

// AnnotationAt returns the annotation of the given kind that governs the
// line of pos (see FileAnnotations.At), or nil.
func (prog *Program) AnnotationAt(kind string, pos token.Pos) *Annotation {
	return prog.Annotations(pos).At(kind, prog.Fset.Position(pos).Line)
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

// Taint is one function's path to a sink. Pos is the expression inside the
// function that takes the next step: the sink expression itself when Next is
// nil, or the call into Next otherwise.
type Taint struct {
	Desc string // sink description, e.g. "time.Now" or "unordered map range"
	Pos  token.Pos
	Next *types.Func
}

// Propagate spreads direct taints up the call graph to a fixpoint: a
// function that calls a tainted function becomes tainted through that call.
// through gates which functions may carry taint upward: returning false
// makes a node a reporting frontier that never taints its own callers.
// Chains are shortest-first and deterministic: propagation runs in rounds,
// visiting functions in source order and picking each function's earliest
// call site into the previous round.
func (prog *Program) Propagate(direct map[*types.Func]*Taint, through func(*FuncNode) bool) map[*types.Func]*Taint {
	taints := make(map[*types.Func]*Taint, len(direct))
	for fn, t := range direct {
		taints[fn] = t
	}
	for {
		added := false
		round := map[*types.Func]*Taint{}
		for _, node := range prog.nodes {
			if taints[node.Fn] != nil || round[node.Fn] != nil {
				continue
			}
			if !through(node) {
				continue
			}
			for _, cs := range node.Calls {
				t := taints[cs.Callee]
				if t == nil {
					continue
				}
				round[node.Fn] = &Taint{
					Desc: t.Desc,
					Pos:  cs.Call.Pos(),
					Next: cs.Callee,
				}
				added = true
				break
			}
		}
		if !added {
			return taints
		}
		for fn, t := range round {
			taints[fn] = t
		}
	}
}

// Chain renders the call chain from t to its sink for a diagnostic, e.g.
// "runner.stamp → obsv.flush → time.Now". The first element is the callee
// at the reported call site; the chain ends with the sink description.
func (prog *Program) Chain(t *Taint, taints map[*types.Func]*Taint) string {
	var parts []string
	for t.Next != nil {
		parts = append(parts, FuncDisplayName(t.Next))
		next := taints[t.Next]
		if next == nil {
			break // external sink function: its name is the last hop
		}
		t = next
		if len(parts) > 32 {
			parts = append(parts, "…")
			break
		}
	}
	parts = append(parts, t.Desc)
	return strings.Join(parts, " → ")
}

// FuncDisplayName renders fn compactly for diagnostics: "pkg.Func" or
// "pkg.Recv.Method" with pointer stars stripped.
func FuncDisplayName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return LocalName(fn)
	}
	return pathTail(fn.Pkg().Path()) + "." + LocalName(fn)
}

// LocalName renders fn without its package: "Func" or "Recv.Method", with
// pointer stars and type arguments stripped.
func LocalName(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		rt := recv.Type()
		if ptr, ok := rt.(*types.Pointer); ok {
			rt = ptr.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	return name
}

func pathTail(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
