package core

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"bbcast/internal/obsv"
)

// stateTables is the caps table: the field holding each capped queue's table.
var stateTables = map[obsv.Queue]string{
	obsv.QueueStore:     "msgStore.byID",
	obsv.QueueMissing:   "Protocol.missing",
	obsv.QueueNeighbors: "Protocol.neighbors",
	obsv.QueueLinkQual:  "Protocol.neighbors", // each entry's link estimate
	obsv.QueueReqSeen:   "Protocol.reqSeen",
}

// TestEveryMapIsBounded holds the package's map fields to the caps table.
// CapsAndAnnotations: a struct field whose type contains a map is a row of
// stateTables or has //bbvet:bounded-by <cap> <why> on or above its line, and
// every such annotation names a Config field or a package-level constant.
// StaleCapsTable: stateTables has a row for exactly the queues
// Config.StateBounds caps, and each row's field exists.
func TestEveryMapIsBounded(t *testing.T) {
	const ann = "//bbvet:bounded-by"
	rows := map[string]bool{}
	for _, field := range stateTables {
		rows[field] = true
	}
	fset, files := coreSources(t, parser.ParseComments)
	caps, fields, typeName := map[string]bool{}, map[string]bool{}, ""
	var anns []*ast.Comment
	var unbounded []string // map fields that are no row and carry no annotation
	for _, f := range files {
		covered := map[int]bool{} // the lines an annotation governs
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, ann) {
					anns = append(anns, c)
					l := fset.Position(c.Pos()).Line
					covered[l], covered[l+1] = true, true
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				return false // package-level declarations only
			case *ast.GenDecl:
				return n.Tok != token.VAR // so every ValueSpec below is a constant
			case *ast.ValueSpec:
				caps[n.Names[0].Name] = true
			case *ast.TypeSpec:
				typeName = n.Name.Name
			case *ast.StructType:
				for _, field := range n.Fields.List {
					for _, name := range field.Names {
						key := typeName + "." + name.Name
						caps[name.Name] = caps[name.Name] || typeName == "Config"
						fields[key] = true
						if !rows[key] && strings.Contains(types.ExprString(field.Type), "map[") && !covered[fset.Position(field.Pos()).Line] {
							unbounded = append(unbounded, fmt.Sprintf("%s: map field %s", fset.Position(name.Pos()), key))
						}
					}
				}
				return false // a nested struct is part of its field's type
			}
			return true
		})
	}
	t.Run("CapsAndAnnotations", func(t *testing.T) {
		for _, u := range unbounded {
			t.Errorf("%s is no row of stateTables and has no %s", u, ann)
		}
		for _, c := range anns {
			if cap, _, _ := strings.Cut(strings.TrimSpace(strings.TrimPrefix(c.Text, ann)), " "); !caps[cap] {
				t.Errorf("%s: %s %q names no Config field or package-level constant", fset.Position(c.Pos()), ann, cap)
			}
		}
	})
	t.Run("StaleCapsTable", func(t *testing.T) {
		cfg := DefaultConfig()
		bounds := cfg.StateBounds()
		if len(bounds) != len(stateTables) {
			t.Errorf("StateBounds caps %d queues (%v), stateTables has %d rows", len(bounds), bounds, len(stateTables))
		}
		for q, field := range stateTables {
			if bounds[q] <= 0 {
				t.Errorf("row %s: StateBounds has no cap for queue %s", field, q)
			}
			if !fields[field] {
				t.Errorf("stateTables row %s names no struct field", field)
			}
		}
	})
}
