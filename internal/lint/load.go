package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// Package is one type-checked analysis unit. In-package test files are
// folded into their package's unit; external _test packages (package foo_test)
// form a unit of their own, checked against that unit as go test builds them
// (so names an export_test.go declares resolve), so `grblint ./...` sees every
// file `go test` would compile.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir          string
	ImportPath   string
	Name         string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Deps         []string
}

// goList enumerates the packages matching patterns.
func goList(patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-json=Dir,ImportPath,Name,GoFiles,TestGoFiles,XTestGoFiles,Deps"}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []listedPackage
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Load enumerates, parses and type-checks the packages matching the go
// package patterns (e.g. "./..."), including their test files.
func Load(patterns []string) ([]*Package, error) {
	listed, err := goList(patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	// The source importer type-checks dependencies (stdlib and module-local
	// packages alike) from source; one shared instance caches them across
	// units.
	imp := importer.ForCompiler(fset, "source", nil)

	byPath := make(map[string]listedPackage, len(listed))
	for _, lp := range listed {
		byPath[lp.ImportPath] = lp
	}
	var units []*Package
	for _, lp := range listed {
		inPkg := append(append([]string{}, lp.GoFiles...), lp.TestGoFiles...)
		in, err := checkUnit(fset, imp, lp.Dir, lp.ImportPath, inPkg)
		if err != nil {
			return nil, err
		}
		ximp := &testImporter{fset: fset, imp: imp, listed: byPath, under: lp.ImportPath,
			checked: map[string]*types.Package{}}
		if in != nil {
			units = append(units, in)
			ximp.checked[lp.ImportPath] = in.Types
		}
		if u, err := checkUnit(fset, ximp, lp.Dir, lp.ImportPath+"_test", lp.XTestGoFiles); err != nil {
			return nil, err
		} else if u != nil {
			units = append(units, u)
		}
	}
	return units, nil
}

// testImporter resolves an external test package's imports as go test builds
// them: the package under test is its unit with the in-package test files,
// every listed package that depends on it is re-checked against that unit,
// and everything else comes from imp.
type testImporter struct {
	fset    *token.FileSet
	imp     types.Importer
	listed  map[string]listedPackage
	under   string
	checked map[string]*types.Package
}

func (t *testImporter) Import(path string) (*types.Package, error) {
	if p, ok := t.checked[path]; ok {
		return p, nil
	}
	lp, ok := t.listed[path]
	if !ok || !slices.Contains(lp.Deps, t.under) {
		return t.imp.Import(path)
	}
	u, err := checkUnit(t.fset, t, lp.Dir, path, lp.GoFiles)
	if err != nil {
		return nil, err
	}
	t.checked[path] = u.Types
	return u.Types, nil
}

// checkUnit parses and type-checks one set of files as a single package.
func checkUnit(fset *token.FileSet, imp types.Importer, dir, path string, files []string) (*Package, error) {
	if len(files) == 0 {
		return nil, nil
	}
	var syntax []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, f)
	}
	info := NewTypesInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return &Package{PkgPath: path, Fset: fset, Syntax: syntax, Types: tpkg, TypesInfo: info}, nil
}

// NewTypesInfo allocates a types.Info with every map the analyzers consult.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}
