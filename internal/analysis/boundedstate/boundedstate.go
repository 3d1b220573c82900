// Package boundedstate enforces PR 4's bounded-protocol-state contract in
// internal/core: every map-typed field of a core struct is attacker-growable
// state, so it must either be one of the registered protocol tables (whose
// size caps live in Config: MaxNeighbors, MaxStore, MaxMissing, MaxReqSeen)
// or carry a //bbvet:bounded-by <cap> annotation naming the Config field or
// package constant that bounds it. A new map field without either is exactly
// how the pre-PR-4 unbounded reqSeen table slipped in, and is reported.
package boundedstate

import (
	"go/ast"
	"go/types"
	"strings"

	"bbcast/internal/analysis"
)

// corePathSuffix scopes the analyzer to the protocol-state package.
const corePathSuffix = "internal/core"

// RegisteredCaps is PR 4's caps table: the protocol tables whose bounds are
// enforced at runtime (LRU eviction, rejection, TTL expiry) and sampled by
// the invariant checker's state-bounds probe. Each entry ties a struct field
// to the Config field capping it; the analyzer verifies the cap still exists.
var RegisteredCaps = []struct{ Struct, Field, Cap string }{
	{"msgStore", "byID", "MaxStore"},
	{"Protocol", "missing", "MaxMissing"},
	{"Protocol", "neighbors", "MaxNeighbors"},
	{"Protocol", "reqSeen", "MaxReqSeen"},
	// linkQual entries are created only for senders present in the neighbour
	// table and deleted alongside neighbour expiry/eviction, so MaxNeighbors
	// bounds both tables.
	{"Protocol", "linkQual", "MaxNeighbors"},
}

// Analyzer is the bounded-state pass.
var Analyzer = &analysis.Analyzer{
	Name:       "boundedstate",
	Doc:        "require every map-typed field of an internal/core struct to be capped (caps table or //bbvet:bounded-by)",
	RunProgram: run,
}

func run(pass *analysis.ProgramPass) error {
	pass.CheckAnnotations(analysis.AnnBoundedBy)
	for _, pkg := range pass.Prog.Packages {
		if strings.HasSuffix(pkg.Path, corePathSuffix) {
			checkPackage(pass, pkg)
		}
	}
	return nil
}

func checkPackage(pass *analysis.ProgramPass, pkg *analysis.Package) {
	registered := map[string]string{} // "Struct.field" -> cap
	var rows []string                 // "Struct.field (cap Cap)"
	for _, rc := range RegisteredCaps {
		registered[rc.Struct+"."+rc.Field] = rc.Cap
		rows = append(rows, rc.Struct+"."+rc.Field+" (cap "+rc.Cap+")")
	}
	seen := map[string]bool{} // registered keys found in source
	for _, file := range pkg.Files {
		if pass.Prog.TestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				checkStruct(pass, pkg.Types, ts.Name.Name, st, registered, seen)
			}
		}
	}
	// Only rows whose struct the package declares are checked, so a fixture
	// posing as core may declare a subset of the tables.
	pass.CheckTable(pkg.Files[0].Package, "caps table is stale: registered field %s no longer exists; update boundedstate.RegisteredCaps", rows, func(row string) bool {
		key, _, _ := strings.Cut(row, " ")
		structName, _, _ := strings.Cut(key, ".")
		return seen[key] || pkg.Types.Scope().Lookup(structName) == nil
	})
}

func checkStruct(pass *analysis.ProgramPass, pkg *types.Package, structName string, st *ast.StructType, registered map[string]string, seen map[string]bool) {
	for _, field := range st.Fields.List {
		if !containsMap(field.Type) {
			continue
		}
		names := field.Names
		if len(names) == 0 {
			continue // embedded field: the map lives in the named type's own package
		}
		for _, name := range names {
			key := structName + "." + name.Name
			if cap, ok := registered[key]; ok {
				seen[key] = true
				if !configHasField(pkg, cap) {
					pass.Reportf(name.Pos(), "map field %s is registered against Config.%s, but that cap field does not exist", key, cap)
				}
				continue
			}
			a := fieldAnnotation(pass.Prog, field)
			if a == nil {
				pass.Reportf(name.Pos(), "map field %s is unbounded state: register it in the caps table (MaxNeighbors/MaxStore/MaxMissing/MaxReqSeen) or annotate //bbvet:bounded-by <cap>", key)
				continue
			}
			capName, _, _ := strings.Cut(a.Arg, " ")
			if capName == "" {
				continue // CheckAnnotations reports the bare annotation
			}
			if !configHasField(pkg, capName) && pkg.Scope().Lookup(capName) == nil {
				pass.Reportf(a.Pos, "//bbvet:bounded-by %s: no such Config field or package-level constant", capName)
			}
		}
	}
}

// fieldAnnotation finds a bounded-by annotation in the field's doc comment,
// line comment, or on/above the field's line.
func fieldAnnotation(prog *analysis.Program, field *ast.Field) *analysis.Annotation {
	if a := prog.AnnotationAt(analysis.AnnBoundedBy, field.Pos()); a != nil {
		return a
	}
	if field.Comment != nil { // trailing comment may sit on the same line already covered above
		return prog.AnnotationAt(analysis.AnnBoundedBy, field.Comment.Pos())
	}
	return nil
}

// containsMap reports whether a map type occurs anywhere in the field type.
func containsMap(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if _, ok := n.(*ast.MapType); ok {
			found = true
		}
		return !found
	})
	return found
}

// configHasField reports whether the package's Config struct has the field.
func configHasField(pkg *types.Package, name string) bool {
	obj, ok := pkg.Scope().Lookup("Config").(*types.TypeName)
	if !ok {
		return false
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return true
		}
	}
	return false
}
