package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// proofMakers lists, for each ingress proof type, the only functions that
// may make one (see admission.go).
var proofMakers = map[string][]string{
	"admitted": {"admit"},
	"looked":   {"lookupMsg", "lookupNeighbor", "knownHeaderSig"},
}

// TestIngressProofsHaveOneMaker holds the ingress proof types to their
// makers. Outside a maker, the package's non-test sources may name admitted
// and looked only in the types' own declarations and in function signatures,
// so no handler can make its own proof with a literal, a conversion or a
// zero-valued variable. Each listed maker must still make its proof with a
// literal, so renaming or splitting one fails here instead of leaving the
// list stale.
func TestIngressProofsHaveOneMaker(t *testing.T) {
	fset, files := coreSources(t, 0)
	made := map[string]bool{} // "type maker" pairs whose maker made a literal
	for _, f := range files {
		for _, decl := range f.Decls {
			var body ast.Node = decl
			fn := "" // a package-level declaration is no maker
			if d, ok := decl.(*ast.FuncDecl); ok {
				body, fn = d.Body, d.Name.Name // signatures may name the types
			}
			selected := map[*ast.Ident]bool{}
			ast.Inspect(body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					_, proof := proofMakers[n.Name.Name]
					return !proof // the proof types' own declarations
				case *ast.SelectorExpr:
					selected[n.Sel] = true // a field or method, such as neighborState.admitted
				case *ast.CompositeLit:
					if id, ok := n.Type.(*ast.Ident); ok && slices.Contains(proofMakers[id.Name], fn) {
						made[id.Name+" "+fn] = true
					}
				case *ast.Ident:
					if makers, proof := proofMakers[n.Name]; proof && !selected[n] && !slices.Contains(makers, fn) {
						t.Errorf("%s: %s named outside its makers %v", fset.Position(n.Pos()), n.Name, makers)
					}
				}
				return true
			})
		}
	}
	for typ, makers := range proofMakers {
		for _, fn := range makers {
			if !made[typ+" "+fn] {
				t.Errorf("%s no longer makes a %s literal; update proofMakers", fn, typ)
			}
		}
	}
}

// coreSources parses the package's non-test files.
func coreSources(t *testing.T, mode parser.Mode) (*token.FileSet, []*ast.File) {
	t.Helper()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, mode)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return fset, files
}
