// Package atomiccheck bans the package-level sync/atomic functions
// (atomic.AddInt64(&x, 1), atomic.LoadPointer(&p), ...). Memory reached
// through them can also be read or written plainly, and a plain access
// racing an atomic one is undefined behavior that `go test -race` only
// catches when the schedule cooperates. The typed wrappers (atomic.Int64,
// atomic.Pointer[T], ...) have no other access path than their method set,
// so with the functions gone nothing can be accessed both ways.
package atomiccheck

import (
	"go/ast"
	"go/types"

	"github.com/grblas/grb/internal/lint"
)

// Analyzer is the atomiccheck entry point.
var Analyzer = &lint.Analyzer{
	Name: "atomiccheck",
	Doc:  "no calls to package-level sync/atomic functions; use the atomic.IntN/Pointer types",
	Run:  run,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := lint.CalleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			if fn.Type().(*types.Signature).Recv() == nil {
				pass.Reportf(call.Pos(), "atomic.%s leaves its operand open to plain access; use the atomic.IntN/Pointer types", fn.Name())
			}
			return true
		})
	}
	return nil
}
