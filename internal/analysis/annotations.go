package analysis

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// The //bbvet: annotation grammar. An annotation is a line comment of the
// form
//
//	//bbvet:<kind> <argument and/or justification>
//
// with no space between "//" and "bbvet:". Four kinds exist:
//
//	//bbvet:wallclock <why>        file header: exempts the file from the
//	                               determinism wall-clock/global-rand checks;
//	                               on or above a line: exempts that line only.
//	//bbvet:unordered <why>        on or above a `for range` over a map:
//	                               asserts iteration order cannot leak into
//	                               observable output.
//	//bbvet:bounded-by <cap> <why> on or above a struct field in
//	                               internal/core: names the Config field or
//	                               package constant that bounds it. No pass
//	                               reads it: core's TestEveryMapIsBounded
//	                               checks its cap.
//	//bbvet:errflow <why>          on or above a write whose error is
//	                               deliberately dropped. No pass reads it:
//	                               it stays known only because
//	                               benchmark/iso.go still carries one, and
//	                               ROADMAP item 8 removes both.
//
// Every annotation must carry a non-empty justification: determinism rejects
// bare escapes of the kinds it reads (core's test rejects a bounded-by
// without a cap), and also rejects unknown kinds.
const (
	annotationPrefix = "//bbvet:"

	// AnnWallclock exempts wall-clock code from determinism checks.
	AnnWallclock = "wallclock"
	// AnnUnordered justifies an order-insensitive map iteration.
	AnnUnordered = "unordered"
	// AnnBoundedBy names the cap bounding a struct field of internal/core.
	AnnBoundedBy = "bounded-by"
	// AnnErrflow justifies a deliberately dropped write error. No pass reads
	// it; it stays known for benchmark/iso.go's one annotation, and ROADMAP
	// item 8 removes both.
	AnnErrflow = "errflow"
	// AnnUnknown selects, in CheckAnnotations, every comment whose kind is
	// none of the above.
	AnnUnknown = "unknown"
)

// knownKinds is the grammar's vocabulary.
var knownKinds = []string{AnnWallclock, AnnUnordered, AnnBoundedBy, AnnErrflow}

// Annotation is one parsed //bbvet: comment.
type Annotation struct {
	Kind string // "wallclock", "unordered", "bounded-by", or unrecognized text
	Arg  string // everything after the kind, trimmed
	Line int
	Pos  token.Pos
}

// FileAnnotations indexes the //bbvet: comments of one file.
type FileAnnotations struct {
	// Header holds annotations placed before the package clause; a
	// wallclock annotation there exempts the whole file.
	Header []Annotation
	byLine map[int][]Annotation
	all    []Annotation
}

// parseAnnotations extracts every //bbvet: comment of file.
func parseAnnotations(fset *token.FileSet, file *ast.File) *FileAnnotations {
	fa := &FileAnnotations{byLine: map[int][]Annotation{}}
	pkgLine := fset.Position(file.Package).Line
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, annotationPrefix)
			if !ok {
				continue
			}
			kind, arg, _ := strings.Cut(text, " ")
			ann := Annotation{
				Kind: kind,
				Arg:  strings.TrimSpace(arg),
				Line: fset.Position(c.Pos()).Line,
				Pos:  c.Pos(),
			}
			fa.all = append(fa.all, ann)
			if ann.Line < pkgLine {
				fa.Header = append(fa.Header, ann)
			}
			fa.byLine[ann.Line] = append(fa.byLine[ann.Line], ann)
		}
	}
	return fa
}

// FileExempt reports whether the file header carries the given annotation
// kind (e.g. a //bbvet:wallclock file allowlist).
func (fa *FileAnnotations) FileExempt(kind string) bool {
	for _, a := range fa.Header {
		if a.Kind == kind {
			return true
		}
	}
	return false
}

// At returns the annotation of the given kind that governs line: one written
// on the line itself or on the line directly above it.
func (fa *FileAnnotations) At(kind string, line int) *Annotation {
	for _, l := range [2]int{line, line - 1} {
		for i := range fa.byLine[l] {
			if fa.byLine[l][i].Kind == kind {
				return &fa.byLine[l][i]
			}
		}
	}
	return nil
}

// CheckAnnotations reports the malformed //bbvet: comments of the given
// kinds in the program's non-test files: one without its justification, or,
// under AnnUnknown, one of no known kind. An analyzer checks the kinds it
// reads.
func (p *ProgramPass) CheckAnnotations(kinds ...string) {
	for _, pkg := range p.Prog.Packages {
		for _, file := range pkg.Files {
			if p.Prog.TestFile(file.Pos()) {
				continue
			}
			for _, a := range p.Prog.Annotations(file.Pos()).all {
				kind := a.Kind
				if !slices.Contains(knownKinds, kind) {
					kind = AnnUnknown
				}
				switch {
				case !slices.Contains(kinds, kind):
				case kind == AnnUnknown:
					p.Reportf(a.Pos, "unknown annotation //bbvet:%s (want wallclock, unordered, bounded-by or errflow)", a.Kind)
				case a.Arg != "":
				default:
					p.Reportf(a.Pos, "//bbvet:%s needs a justification: //bbvet:%s <why>", a.Kind, a.Kind)
				}
			}
		}
	}
}
