// Package seedcheck keeps test draws repeatable: in a _test.go file no time
// value may reach rand.NewSource, rand.New or rand.Seed — directly, or
// through what the seed expression reads: a local's values and a called
// function's results, to any depth.
package seedcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/grblas/grb/internal/lint"
)

// Analyzer is the seedcheck entry point.
var Analyzer = &lint.Analyzer{Name: "seedcheck", Doc: "in tests, no time-package value may seed math/rand", Run: run}

func run(pass *lint.Pass) error {
	info, seeds := pass.TypesInfo, []ast.Expr{}
	assigned := map[types.Object][]ast.Expr{} // a local's values, and a function's results
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				ast.Inspect(n.Body, func(m ast.Node) bool { // its own returns, not a literal's
					if r, ok := m.(*ast.ReturnStmt); ok {
						assigned[info.Defs[n.Name]] = append(assigned[info.Defs[n.Name]], r.Results...)
					}
					_, lit := m.(*ast.FuncLit)
					return !lit
				})
			case *ast.AssignStmt:
				for i, l := range n.Lhs {
					if id, ok := l.(*ast.Ident); ok && len(n.Lhs) == len(n.Rhs) {
						assigned[info.ObjectOf(id)] = append(assigned[info.ObjectOf(id)], n.Rhs[i])
					}
				}
			case *ast.CallExpr:
				c := lint.CalleeFunc(info, n)
				if c != nil && c.Pkg() != nil && c.Pkg().Path() == "math/rand" && strings.Contains(" NewSource New Seed ", " "+c.Name()+" ") &&
					strings.HasSuffix(pass.Fset.File(n.Pos()).Name(), "_test.go") {
					seeds = append(seeds, n.Args...)
				}
			}
			return true
		})
	}
	seen := map[any]bool{} // the objects followed, and the time functions reported, over every seed
	for work := seeds; len(work) > 0; work = work[1:] {
		ast.Inspect(work[0], func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if fn, _ := info.Uses[id].(*types.Func); ok && fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "time" &&
				fn.Type().(*types.Signature).Recv() == nil { // a time function, such as time.Now
				if !seen[id.Pos()] {
					seen[id.Pos()] = true
					pass.Reportf(id.Pos(), "a time value seeds math/rand, so the run cannot be repeated: take the seed from a fixed, logged default")
				}
			} else if obj := info.Uses[id]; ok && obj != nil && !seen[obj] {
				seen[obj], work = true, append(work, assigned[obj]...)
			}
			return true
		})
	}
	return nil
}
