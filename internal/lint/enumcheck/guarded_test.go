package enumcheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestGuardedEnumsAreDeclared parses the root package's non-test files and
// fails on a guarded name that is not a type declared there: a guard left
// behind by a deleted enumeration matches nothing and checks nothing.
func TestGuardedEnumsAreDeclared(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "..", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name.Name != "grb" {
			t.Fatalf("%s is package %s, want the root package grb", name, f.Name.Name)
		}
		for _, d := range f.Decls {
			if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.TYPE {
				for _, spec := range g.Specs {
					declared[spec.(*ast.TypeSpec).Name.Name] = true
				}
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("no type declarations found in the root package")
	}
	for name := range guardedEnums {
		if !declared[name] {
			t.Errorf("guarded enumeration %s is not a type the root package declares", name)
		}
	}
}
