package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// parseSrc builds a one-file program from src (which must declare no
// functions: the fixture is not type-checked).
func parseSrc(t *testing.T, src string) (*FileAnnotations, *ProgramPass, *[]Diagnostic) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	prog := BuildProgram([]*Package{{Path: "p", Fset: fset, Files: []*ast.File{file}, TypesInfo: &types.Info{}}})
	var diags []Diagnostic
	pass := &ProgramPass{Analyzer: &Analyzer{Name: "test"}, Prog: prog, diags: &diags}
	return prog.Annotations(file.Pos()), pass, &diags
}

func TestHeaderVersusLineAnnotations(t *testing.T) {
	fa, _, _ := parseSrc(t, `//bbvet:wallclock whole file measures real time

package p

func f() {
	//bbvet:unordered commutative fold
	_ = 1
	_ = 2 //bbvet:wallclock inline
}
`)
	if !fa.FileExempt(AnnWallclock) {
		t.Error("header wallclock annotation not recognized as file exemption")
	}
	if fa.FileExempt(AnnUnordered) {
		t.Error("body annotation wrongly treated as file exemption")
	}
	if fa.At(AnnUnordered, 7) == nil { // annotation on line 6 governs line 7
		t.Error("annotation on the preceding line not found")
	}
	if fa.At(AnnUnordered, 8) != nil {
		t.Error("annotation leaked two lines down")
	}
	if a := fa.At(AnnWallclock, 8); a == nil || a.Arg != "inline" {
		t.Errorf("same-line annotation not found or arg mangled: %+v", a)
	}
}

// TestCheckAnnotations covers the grammar errors: bare escapes without a
// justification and unknown kinds, each reported only to an analyzer that
// asks for its kind. A bare bounded-by is a known kind no analyzer reads.
// (The analysistest fixtures can express a bare annotation only after a
// block-comment want, so this is checked white-box too.)
func TestCheckAnnotations(t *testing.T) {
	src := `package p

//bbvet:wallclock
//bbvet:unordered
//bbvet:bounded-by
//bbvet:errflow
//bbvet:wallclock justified because reasons
//bbvet:errflow latched in Store.Err
//bbvet:nonsense some justification
`
	for _, tc := range []struct {
		kinds []string
		want  []string
	}{
		{[]string{AnnWallclock, AnnUnordered, AnnErrflow, AnnUnknown}, []string{
			"//bbvet:wallclock needs a justification",
			"//bbvet:unordered needs a justification",
			"//bbvet:errflow needs a justification",
			"unknown annotation //bbvet:nonsense (want wallclock, unordered, bounded-by or errflow)",
		}},
		{[]string{AnnErrflow}, []string{"//bbvet:errflow needs a justification"}},
		{[]string{AnnUnknown}, []string{"unknown annotation //bbvet:nonsense"}},
	} {
		_, pass, diags := parseSrc(t, src)
		pass.CheckAnnotations(tc.kinds...)
		if len(*diags) != len(tc.want) {
			t.Fatalf("kinds %v: got %d diagnostics, want %d: %v", tc.kinds, len(*diags), len(tc.want), *diags)
		}
		for i, w := range tc.want {
			if !strings.Contains((*diags)[i].Message, w) {
				t.Errorf("kinds %v: diagnostic %d = %q, want substring %q", tc.kinds, i, (*diags)[i].Message, w)
			}
		}
	}
}
