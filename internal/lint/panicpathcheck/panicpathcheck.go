// Package panicpathcheck enforces the panic-isolation invariants
// (DESIGN.md "Execution hardening"): no injected fault or user-operator
// panic may kill the process, so every goroutine launch and every
// error-returning kernel that fans out work must sit behind a recover
// guard.
//
// Two rules:
//
//   - Every `go` statement (outside package main and _test.go files) must
//     launch a function literal whose top-level statements defer a panic
//     guard: pb.capture() (the worker pool's panicBox), recoverExec, or a
//     closure that calls recover(). Launching a named function is flagged
//     too — the guard must be visible at the launch site, the way
//     internal/parallel wraps every worker.
//
//   - In package sparse, a function with an error result that directly
//     calls parallel.For/Run — or rowwise, the scaffold through which the
//     element-wise kernels reach the pool — must defer a panic guard
//     (normally `defer recoverExec(&err)`): the pool ferries worker panics
//     to the joining goroutine as WorkerPanic and rethrows, so a fan-out
//     kernel without a guard re-crashes the caller instead of parking the
//     panic as an error.
package panicpathcheck

import (
	"go/ast"
	"go/types"

	"github.com/grblas/grb/internal/lint"
)

// Analyzer is the panicpathcheck entry point.
var Analyzer = &lint.Analyzer{
	Name: "panicpathcheck",
	Doc:  "goroutine launches and error-returning fan-out kernels must be guarded by recoverExec/panicBox",
	Run:  run,
}

// poolEntryPoints are the calls that fan work out to the worker pool, by
// package name: internal/parallel's own, and sparse's row-parallel scaffold,
// behind which a kernel's parallel.Run is no longer a direct call.
var poolEntryPoints = map[string]map[string]bool{
	"parallel": {"For": true, "Run": true},
	"sparse":   {"rowwise": true},
}

func run(pass *lint.Pass) error {
	if pass.Pkg.Name() == "main" {
		// Commands run at process scope; a panic there is the process's own
		// business.
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGoStmts(pass, fd)
			checkFanOutKernel(pass, fd)
		}
	}
	return nil
}

// checkGoStmts flags unguarded goroutine launches anywhere in the function.
func checkGoStmts(pass *lint.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
		if !ok {
			pass.Reportf(g.Pos(), "go statement must launch a guarded function literal (defer pb.capture() / recover guard visible at the launch site)")
			return true
		}
		if !hasDeferredGuard(pass, lit.Body) {
			pass.Reportf(g.Pos(), "go statement launches an unguarded function literal; defer pb.capture() or a recover guard so a panic cannot kill the process")
		}
		return true
	})
}

// checkFanOutKernel flags sparse kernels with an error result that fan out
// through the worker pool without a deferred panic guard.
func checkFanOutKernel(pass *lint.Pass, fd *ast.FuncDecl) {
	if pass.Pkg.Name() != "sparse" || !hasErrorResult(pass, fd) {
		return
	}
	var fanOut string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			// A pool call inside a nested literal belongs to that closure's
			// own dynamic scope; rule on direct calls only.
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := lint.CalleeFunc(pass.TypesInfo, call)
		if fn != nil && fn.Pkg() != nil && poolEntryPoints[fn.Pkg().Name()][fn.Name()] {
			fanOut = fn.Pkg().Name() + "." + fn.Name()
		}
		return true
	})
	if fanOut == "" {
		return
	}
	if !hasDeferredGuard(pass, fd.Body) {
		pass.Reportf(fd.Name.Pos(), "kernel %s fans out via %s but has no deferred panic guard (defer recoverExec(&err))", fd.Name.Name, fanOut)
	}
}

// hasErrorResult reports whether the function declares an error result to
// park a recovered panic in.
func hasErrorResult(pass *lint.Pass, fd *ast.FuncDecl) bool {
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	results := fn.Type().(*types.Signature).Results()
	for i := 0; i < results.Len(); i++ {
		if lint.IsErrorType(results.At(i).Type()) {
			return true
		}
	}
	return false
}

// hasDeferredGuard reports whether the function body (not descending into
// nested literals, whose defers run on the wrong goroutine/frame) defers a
// panic guard: recoverExec, a *.capture() method, or a closure calling
// recover().
func hasDeferredGuard(pass *lint.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if isGuardCall(pass, n.Call) {
				found = true
			}
			return false
		}
		return true
	})
	return found
}

// isGuardCall classifies a deferred call as a panic guard.
func isGuardCall(pass *lint.Pass, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name == "recoverExec" {
			return true
		}
	case *ast.SelectorExpr:
		if fun.Sel.Name == "capture" || fun.Sel.Name == "recoverExec" {
			return true
		}
	case *ast.FuncLit:
		return callsRecover(pass, fun.Body)
	}
	return false
}

// callsRecover reports whether the block calls the recover builtin.
func callsRecover(pass *lint.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if _, builtin := pass.TypesInfo.Uses[id].(*types.Builtin); builtin && id.Name == "recover" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isTestFile reports whether the file is a _test.go file (test goroutines
// fail their test, not the production process).
func isTestFile(pass *lint.Pass, f *ast.File) bool {
	name := pass.Fset.Position(f.Pos()).Filename
	return len(name) >= 8 && name[len(name)-8:] == "_test.go"
}
