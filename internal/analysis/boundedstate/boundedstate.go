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
	Name: "boundedstate",
	Doc:  "require every map-typed field of an internal/core struct to be capped (caps table or //bbvet:bounded-by)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !strings.HasSuffix(pass.Pkg.Path(), corePathSuffix) {
		return nil
	}
	registered := map[string]string{} // "Struct.field" -> cap
	for _, rc := range RegisteredCaps {
		registered[rc.Struct+"."+rc.Field] = rc.Cap
	}
	seen := map[string]bool{} // registered keys found in source
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		ann := analysis.ParseAnnotations(pass.Fset, file)
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
				checkStruct(pass, ann, ts.Name.Name, st, registered, seen)
			}
		}
	}
	for key, cap := range registered {
		structName := key[:strings.IndexByte(key, '.')]
		if !seen[key] && pass.Pkg.Scope().Lookup(structName) != nil {
			pass.Reportf(pass.Files[0].Package, "caps table is stale: registered field %s (cap %s) no longer exists; update boundedstate.RegisteredCaps", key, cap)
		}
	}
	return nil
}

func checkStruct(pass *analysis.Pass, ann *analysis.FileAnnotations, structName string, st *ast.StructType, registered map[string]string, seen map[string]bool) {
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
				if !configHasField(pass.Pkg, cap) {
					pass.Reportf(name.Pos(), "map field %s is registered against Config.%s, but that cap field does not exist", key, cap)
				}
				continue
			}
			a := fieldAnnotation(pass, ann, field)
			if a == nil {
				pass.Reportf(name.Pos(), "map field %s is unbounded state: register it in the caps table (MaxNeighbors/MaxStore/MaxMissing/MaxReqSeen) or annotate //bbvet:bounded-by <cap>", key)
				continue
			}
			capName, _, _ := strings.Cut(a.Arg, " ")
			if capName == "" {
				continue // CheckAnnotations (determinism pass) reports the bare annotation
			}
			if !configHasField(pass.Pkg, capName) && pass.Pkg.Scope().Lookup(capName) == nil {
				pass.Reportf(a.Pos, "//bbvet:bounded-by %s: no such Config field or package-level constant", capName)
			}
		}
	}
}

// fieldAnnotation finds a bounded-by annotation in the field's doc comment,
// line comment, or on/above the field's line.
func fieldAnnotation(pass *analysis.Pass, ann *analysis.FileAnnotations, field *ast.Field) *analysis.Annotation {
	line := pass.Fset.Position(field.Pos()).Line
	if a := ann.At(analysis.AnnBoundedBy, line); a != nil {
		return a
	}
	if field.Comment != nil { // trailing comment may sit on the same line already covered above
		if a := ann.At(analysis.AnnBoundedBy, pass.Fset.Position(field.Comment.Pos()).Line); a != nil {
			return a
		}
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
