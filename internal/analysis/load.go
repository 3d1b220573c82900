package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path      string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

func goList(moduleDir string, args ...string) ([]listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly,Error"}, args...)...)
	cmd.Dir = moduleDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %w\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decode: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportCache accumulates import-path → compiler-export-data-file mappings per
// module root, so repeated LoadDir calls (several analysistest suites in one
// test binary) invoke the go tool once per distinct import set.
var exportCache = struct {
	sync.Mutex
	byRoot map[string]map[string]string
}{byRoot: map[string]map[string]string{}}

// exportFiles ensures export data exists for the import paths (and all their
// deps) and returns the accumulated path→file map for the module root.
func exportFiles(moduleDir string, paths []string) (map[string]string, error) {
	exportCache.Lock()
	defer exportCache.Unlock()
	cached := exportCache.byRoot[moduleDir]
	if cached == nil {
		cached = map[string]string{}
		exportCache.byRoot[moduleDir] = cached
	}
	var missing []string
	for _, p := range paths {
		if cached[p] == "" {
			missing = append(missing, p)
		}
	}
	if len(missing) > 0 {
		listed, err := goList(moduleDir, append([]string{"-deps", "-export"}, missing...)...)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				cached[p.ImportPath] = p.Export
			}
		}
	}
	return cached, nil
}

// Load lists patterns (e.g. "./...") in the module rooted at moduleDir and
// type-checks every non-standard package they match from its non-test
// source files, sorted by import path. Imports resolve through compiler
// export data, which the same `go list -deps -export` builds or takes from
// the build cache.
func Load(moduleDir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(moduleDir, append([]string{"-deps", "-export"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, t := range listed {
		if t.Export != "" {
			exports[t.ImportPath] = t.Export
		}
	}
	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports)
	var pkgs []*Package
	for _, t := range listed {
		if t.DepOnly || t.Standard || len(t.GoFiles) == 0 {
			continue
		}
		if t.Error != nil {
			return nil, fmt.Errorf("load %s: %s", t.ImportPath, t.Error.Err)
		}
		files := make([]string, len(t.GoFiles))
		for i, f := range t.GoFiles {
			files[i] = filepath.Join(t.Dir, f)
		}
		parsed, err := parseFiles(fset, files)
		if err != nil {
			return nil, err
		}
		pkg, err := checkPackage(fset, imp, t.ImportPath, parsed)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadDir parses and type-checks the single package in dir (a directory the
// go tool does not list, e.g. an analyzer testdata tree) under the given
// import path. Imports are resolved through export data built in the
// enclosing module, so testdata may import both the standard library and this
// repo's packages. Files excluded by build constraints are skipped, matching
// the go tool's own file selection.
func LoadDir(dir, importPath string) (*Package, error) {
	moduleDir, err := moduleRoot(dir)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	buildCtx := build.Default
	var files []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		// MatchFile applies //go:build constraints and GOOS/GOARCH suffixes
		// the way `go list` does, so a fixture with tag-excluded files
		// type-checks the same file set the compiler would.
		if ok, matchErr := buildCtx.MatchFile(dir, e.Name()); matchErr != nil || !ok {
			continue
		}
		files = append(files, filepath.Join(dir, e.Name()))
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("loaddir %s: no Go files (after build-constraint filtering)", dir)
	}
	sort.Strings(files)
	fset := token.NewFileSet()
	parsed, err := parseFiles(fset, files)
	if err != nil {
		return nil, err
	}
	var imports []string
	seen := map[string]bool{}
	for _, f := range parsed {
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			if path != "" && !seen[path] {
				seen[path] = true
				imports = append(imports, path)
			}
		}
	}
	exports := map[string]string{}
	if len(imports) > 0 {
		sort.Strings(imports)
		exports, err = exportFiles(moduleDir, imports)
		if err != nil {
			return nil, err
		}
	}
	return checkPackage(fset, newExportImporter(fset, exports), importPath, parsed)
}

// moduleRoot walks up from dir to the directory containing go.mod.
func moduleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod above %s", abs)
		}
		d = parent
	}
}

func parseFiles(fset *token.FileSet, paths []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// newExportImporter returns a gc-export-data importer backed by the given
// path→file map. This is the unitchecker technique: the go tool compiles (or
// reuses from the build cache) every dependency, and the stdlib gc importer
// reads the resulting export data, giving exact types without a full
// from-source type-check of the import graph.
func newExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			// Without this wrapper the gc importer surfaces an opaque
			// "can't find import" — name the real causes: the path is not a
			// package the go tool can see (a typo, or a fixture's fake
			// path), or `go list -export` did not compile it (a package
			// with build errors exports nothing).
			return nil, fmt.Errorf("no export data for %q (not a listable package, or it failed to compile under 'go list -export')", path)
		}
		return os.Open(file)
	})
}

func checkPackage(fset *token.FileSet, imp types.Importer, path string, parsed []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var firstErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(path, fset, parsed, info)
	if firstErr != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, firstErr)
	}
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &Package{
		Path:      path,
		Fset:      fset,
		Files:     parsed,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
