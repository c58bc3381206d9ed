// Package lint is a minimal, dependency-free reimplementation of the slice
// of golang.org/x/tools/go/analysis that grblint needs: an Analyzer runs
// over one type-checked package at a time and reports position-anchored
// diagnostics. The repo builds offline (no module proxy), so the x/tools
// framework cannot be vendored; this package keeps the same shape — an
// Analyzer value with a Run(*Pass) hook — so the grblint analyzers could
// migrate to the real framework without rewrites.
//
// Suppression convention (documented in DESIGN.md): a comment of the form
//
//	//grblint:ignore name1,name2 -- reason
//
// silences the named analyzers on its own source line (trailing comment)
// or, when it stands alone on a line, on the next line. The runner applies
// suppression after Run, so analyzers never need to know about it, and it
// holds the directives to their own rule: one without a reason, naming an
// analyzer that was not run, or silencing nothing is itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //grblint:ignore comments.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run performs the check on one package and reports findings through
	// pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through an Analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ignoreDirective is the comment prefix that suppresses diagnostics.
const ignoreDirective = "//grblint:ignore"

// IgnoreName is the Analyzer field of a diagnostic about a directive
// itself; no analyzer may take it.
const IgnoreName = "ignore"

// directive is one parsed //grblint:ignore comment.
type directive struct {
	pos    token.Position
	names  []string // the analyzers it silences
	reason string
	used   map[string]bool // those of them that had a diagnostic to silence
}

// srcLine addresses one source line.
type srcLine struct {
	file string
	n    int
}

// parseDirectives finds every ignore directive in the files and indexes it
// under the lines it covers: its own (trailing form) and the following one
// (standalone form). The names are the comma-separated first word; the
// reason is what follows "--".
func parseDirectives(fset *token.FileSet, files []*ast.File) (all []*directive, byLine map[srcLine][]*directive) {
	byLine = map[srcLine][]*directive{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, ignoreDirective)
				if !ok {
					continue
				}
				rest, reason, _ := strings.Cut(rest, "--")
				d := &directive{pos: fset.Position(c.Pos()), reason: strings.TrimSpace(reason), used: map[string]bool{}}
				if words := strings.Fields(rest); len(words) > 0 {
					d.names = strings.Split(words[0], ",")
				}
				all = append(all, d)
				for _, n := range []int{d.pos.Line, d.pos.Line + 1} {
					at := srcLine{d.pos.Filename, n}
					byLine[at] = append(byLine[at], d)
				}
			}
		}
	}
	return all, byLine
}

// Run applies the analyzers to one loaded package and returns the
// diagnostics that survive suppression, plus one for every directive that
// breaks the suppression rules, sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	directives, byLine := parseDirectives(pkg.Fset, pkg.Syntax)
	ran := map[string]bool{}
	var out []Diagnostic
	for _, a := range analyzers {
		ran[a.Name] = true
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
		}
		for _, d := range pass.diags {
			silenced := false
			for _, dir := range byLine[srcLine{d.Pos.Filename, d.Pos.Line}] {
				if slices.Contains(dir.names, a.Name) {
					dir.used[a.Name], silenced = true, true
				}
			}
			if !silenced {
				out = append(out, d)
			}
		}
	}
	for _, dir := range directives {
		report := func(format string, args ...any) {
			out = append(out, Diagnostic{Pos: dir.pos, Analyzer: IgnoreName, Message: fmt.Sprintf(format, args...)})
		}
		if len(dir.names) == 0 {
			report("suppression names no analyzer")
		}
		if dir.reason == "" {
			report("suppression gives no reason; write it after \"--\"")
		}
		for _, name := range dir.names {
			if !ran[name] {
				report("suppression names %q, which is not an analyzer", name)
			} else if !dir.used[name] {
				report("suppression silences no %s diagnostic on this line or the next", name)
			}
		}
	}
	sortDiagnostics(out)
	return out, nil
}

// sortDiagnostics orders diagnostics by file, line, column, analyzer.
func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// ---- shared type-matching helpers used by the analyzers ----

// NamedFrom unwraps pointers and aliases down to a *types.Named, or nil.
func NamedFrom(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// IsNamed reports whether t (possibly behind pointers) is the named type
// pkgName.typeName. Matching is by package *name* rather than import path so
// the analyzers work identically against the real repo and against the small
// stub packages in each analyzer's testdata corpus.
func IsNamed(t types.Type, pkgName string, typeNames ...string) bool {
	n := NamedFrom(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	if n.Obj().Pkg().Name() != pkgName {
		return false
	}
	// Generic instantiations report the origin's object name.
	name := n.Origin().Obj().Name()
	for _, want := range typeNames {
		if name == want {
			return true
		}
	}
	return false
}

// IsErrorType reports whether t is the built-in error interface.
func IsErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// CalleeFunc resolves the *types.Func a call expression invokes (method or
// package-level function), or nil for builtins, conversions, and calls of
// function-typed values.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	// Strip explicit generic instantiation: f[T](...) / f[T1, T2](...).
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(idx.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}
	switch f := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[f].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Qualified identifier pkg.Fn.
		if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// ResultTuple returns the result tuple of the function a call invokes, or
// nil when the call is a conversion or resolves to no function signature.
func ResultTuple(info *types.Info, call *ast.CallExpr) *types.Tuple {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return nil
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	return sig.Results()
}
