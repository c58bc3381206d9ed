// Package linttest is the analysistest stand-in for internal/lint: it runs
// one analyzer over a small corpus package under testdata/src/<pkg> and
// checks the produced diagnostics against `// want "regexp"` comments in the
// corpus sources, exactly like golang.org/x/tools/go/analysis/analysistest
// (which the offline build cannot vendor).
//
// Corpus layout mirrors analysistest: testdata/src is treated as a source
// root, so a corpus file may `import "grb"` and the harness resolves it to
// testdata/src/grb. Standard-library imports fall through to the compiler's
// source importer.
//
// Expectations are trailing comments on the offending line:
//
//	_ = m.Wait(grb.Complete) // want `error result .* is discarded`
//
// Multiple expectations on one line are allowed (`// want "a" "b"`), and an
// expectation may follow other text in the same comment (`//grblint:ignore x
// // want "..."`), which is how a diagnostic about a directive is expected. A
// line carrying a well-formed //grblint:ignore directive must produce no
// diagnostic at all — that is the harness's suppressed-case check.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"github.com/grblas/grb/internal/lint"
)

// TB is the slice of *testing.T the harness needs. Taking an interface
// instead of the concrete type lets linttest's own tests substitute a
// recording fake and assert what the harness reports (see linttest_test.go).
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Fatal(args ...any)
	Fatalf(format string, args ...any)
}

// Run analyzes testdata/src/<pkg> with the analyzer and reports every
// mismatch between produced diagnostics and // want expectations as a test
// error.
func Run(t TB, testdata string, a *lint.Analyzer, pkg string) {
	t.Helper()
	fset := token.NewFileSet()
	imp := &corpusImporter{
		root:     filepath.Join(testdata, "src"),
		fset:     fset,
		packages: map[string]*types.Package{},
		fallback: importer.ForCompiler(fset, "source", nil),
	}
	syntax, err := imp.parseDir(pkg)
	if err != nil {
		t.Fatal(err)
	}
	info := lint.NewTypesInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkg, fset, syntax, info)
	if err != nil {
		t.Fatalf("type-checking corpus %s: %v", pkg, err)
	}
	unit := &lint.Package{PkgPath: pkg, Fset: fset, Syntax: syntax, Types: tpkg, TypesInfo: info}
	diags, err := lint.Run(unit, []*lint.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	wants, err := collectWants(fset, syntax)
	if err != nil {
		t.Fatal(err)
	}
	matched := map[*want]bool{}
	for _, d := range diags {
		w := wants.match(d)
		if w == nil {
			t.Errorf("unexpected diagnostic:\n  %s", d)
			continue
		}
		matched[w] = true
	}
	for _, w := range wants {
		if !matched[w] {
			t.Errorf("%s:%d: no diagnostic matched `// want %q`", filepath.Base(w.file), w.line, w.re.String())
		}
	}
}

// want is one expectation parsed from a corpus comment.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

type wantList []*want

func (ws wantList) match(d lint.Diagnostic) *want {
	for _, w := range ws {
		if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			return w
		}
	}
	return nil
}

// wantArg extracts the quoted or backquoted expectation strings from a
// `// want` comment body.
var wantArg = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// collectWants parses `// want "re"...` from the corpus comments: a comment
// is an expectation from its first "// want " on.
func collectWants(fset *token.FileSet, files []*ast.File) (wantList, error) {
	var out wantList
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				_, text, ok := strings.Cut(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				args := wantArg.FindAllString(text, -1)
				if len(args) == 0 {
					return nil, fmt.Errorf("%s: malformed want comment: %s", pos, c.Text)
				}
				for _, q := range args {
					body := q[1 : len(q)-1]
					if q[0] == '"' {
						body = strings.ReplaceAll(body, `\"`, `"`)
						body = strings.ReplaceAll(body, `\\`, `\`)
					}
					re, err := regexp.Compile(body)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want pattern %q: %v", pos, body, err)
					}
					out = append(out, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out, nil
}

// corpusImporter resolves imports against testdata/src first (corpus stub
// packages such as "grb" or "sparse"), then falls back to the compiler's
// source importer for the standard library.
type corpusImporter struct {
	root     string
	fset     *token.FileSet
	packages map[string]*types.Package
	fallback types.Importer
}

func (ci *corpusImporter) Import(path string) (*types.Package, error) {
	if p, ok := ci.packages[path]; ok {
		return p, nil
	}
	dir := filepath.Join(ci.root, path)
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		return ci.fallback.Import(path)
	}
	syntax, err := ci.parseDir(path)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: ci}
	p, err := conf.Check(path, ci.fset, syntax, nil)
	if err != nil {
		return nil, fmt.Errorf("type-checking corpus dependency %s: %v", path, err)
	}
	ci.packages[path] = p
	return p, nil
}

// parseDir parses every .go file under testdata/src/<path>.
func (ci *corpusImporter) parseDir(path string) ([]*ast.File, error) {
	dir := filepath.Join(ci.root, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("corpus package %s: %v", path, err)
	}
	var syntax []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ci.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, f)
	}
	if len(syntax) == 0 {
		return nil, fmt.Errorf("corpus package %s: no .go files in %s", path, dir)
	}
	return syntax, nil
}
