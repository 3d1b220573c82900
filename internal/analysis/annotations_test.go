package analysis

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseSrc parses a one-file fixture (not type-checked) and its annotations.
func parseSrc(t *testing.T, src string) (*token.FileSet, *FileAnnotations) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, ParseAnnotations(fset, file)
}

func TestHeaderVersusLineAnnotations(t *testing.T) {
	_, fa := parseSrc(t, `//bbvet:wallclock whole file measures real time

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
// justification and unknown kinds, each reported only when its kind is
// asked for. A bare bounded-by is a known kind no analyzer reads.
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
		fset, fa := parseSrc(t, src)
		diags := fa.Check(fset, "test", tc.kinds...)
		if len(diags) != len(tc.want) {
			t.Fatalf("kinds %v: got %d diagnostics, want %d: %v", tc.kinds, len(diags), len(tc.want), diags)
		}
		for i, w := range tc.want {
			if !strings.Contains(diags[i].Message, w) {
				t.Errorf("kinds %v: diagnostic %d = %q, want substring %q", tc.kinds, i, diags[i].Message, w)
			}
		}
	}
}
