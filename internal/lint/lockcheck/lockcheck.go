// Package lockcheck implements the grblint analyzer that guards the grb
// layer's locking protocol. Every GraphBLAS object (Matrix, Vector, Scalar,
// Context) carries an internal mutex, and the context registry has a global
// one. The protocol, stated in DESIGN.md:
//
//  1. While holding an object's mutex, never call a grb entry point that
//     acquires a lock itself (Wait, snapshot, submit/push, the read methods,
//     the public mutators): sync.Mutex is not reentrant, so a self-call
//     deadlocks, and a cross-object call while locked risks lock-order
//     inversion with a concurrent caller locking in the opposite order.
//  2. Lock ordering between object locks and the context registry: resolve
//     contexts (initializedContext / resolveCtx / sameContext / isFreed)
//     BEFORE taking an object lock, never while holding one.
//
// Only *Locked helpers (materializeLocked, parkLocked, ...) — which document
// that the caller already holds the lock — and lock-free accessors (Mode,
// Parent, Threads) may run under a held mutex. The sparse kernels may
// too: sequence steps execute under the owning object's lock by design.
//
// The analysis is intraprocedural and path-insensitive: it scans each
// function's statements in order, tracking which mutexes are held (a
// deferred Unlock keeps the mutex held to the end of the function, which is
// exactly the repo's idiom).
package lockcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/grblas/grb/internal/lint"
)

// Analyzer is the lockcheck analyzer.
var Analyzer = &lint.Analyzer{
	Name: "lockcheck",
	Doc: "report calls to lock-acquiring grb entry points (Wait, snapshot, reads, mutators, context " +
		"registry resolution) made while an object or registry mutex is held, and double-locking",
	Run: run,
}

// forbiddenMethods are grb methods that acquire an object's mutex (or the
// registry's) themselves and therefore must not run under a held lock.
var forbiddenMethods = map[string]bool{
	"Wait": true, "Free": true, "Clear": true, "Dup": true, "Resize": true,
	"Build": true, "SetElement": true, "SetElementScalar": true, "RemoveElement": true,
	"ExtractElement": true, "ExtractElementScalar": true, "ExtractTuples": true,
	"Nvals": true, "Nrows": true, "Ncols": true, "Size": true,
	"SwitchContext": true, "Context": true, "ErrorString": true,
	"snapshot": true, "lend": true, "isFreed": true, "context": true,
	// The sequence core's entry points (sequence.go), which Matrix and
	// Vector reach by promotion.
	"submit": true, "push": true, "update": true, "dims": true, "wait": true,
	"switchContext": true, "errorString": true,
}

// forbiddenFuncs are package-level grb functions that take the context
// registry lock (or an object lock) — calling them under an object mutex
// inverts the registry-before-object lock order.
var forbiddenFuncs = map[string]bool{
	"Init": true, "Finalize": true, "initializedContext": true, "resolveCtx": true,
	"sameContext": true, "GlobalContext": true, "NewContext": true,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// checkFunc walks the function's statements in source order with the set of
// held mutexes (keyed by the printed receiver expression, e.g. "m.mu").
func checkFunc(pass *lint.Pass, fd *ast.FuncDecl) {
	held := map[string]bool{}
	walkStmts(pass, fd.Body.List, held)
}

func walkStmts(pass *lint.Pass, stmts []ast.Stmt, held map[string]bool) {
	for _, s := range stmts {
		walkStmt(pass, s, held)
	}
}

// walkStmt updates held for lock/unlock statements and inspects everything
// else for forbidden calls. Compound statements analyze their bodies with a
// copy of the held set: acquisitions inside a branch do not leak out (a
// conservative approximation that matches the repo's lock-then-defer idiom).
func walkStmt(pass *lint.Pass, s ast.Stmt, held map[string]bool) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if key, locks, ok := mutexOp(pass.TypesInfo, st.X); ok {
			if locks {
				if held[key] {
					pass.Reportf(st.Pos(), "%s.Lock() while %s is already held: sync.Mutex is not reentrant", key, key)
				}
				held[key] = true
			} else {
				delete(held, key)
			}
			return
		}
		inspectForbidden(pass, st.X, held)
	case *ast.DeferStmt:
		if _, locks, ok := mutexOp(pass.TypesInfo, st.Call); ok && !locks {
			// defer mu.Unlock(): the mutex stays held for the rest of the
			// function; leave it in the set.
			return
		}
		inspectForbidden(pass, st.Call, held)
	case *ast.IfStmt:
		if st.Init != nil {
			walkStmt(pass, st.Init, held)
		}
		inspectForbidden(pass, st.Cond, held)
		walkStmts(pass, st.Body.List, copyHeld(held))
		if st.Else != nil {
			walkStmt(pass, st.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if st.Init != nil {
			walkStmt(pass, st.Init, held)
		}
		if st.Cond != nil {
			inspectForbidden(pass, st.Cond, held)
		}
		inner := copyHeld(held)
		walkStmts(pass, st.Body.List, inner)
		if st.Post != nil {
			walkStmt(pass, st.Post, inner)
		}
	case *ast.RangeStmt:
		inspectForbidden(pass, st.X, held)
		walkStmts(pass, st.Body.List, copyHeld(held))
	case *ast.BlockStmt:
		walkStmts(pass, st.List, held)
	case *ast.SwitchStmt:
		if st.Init != nil {
			walkStmt(pass, st.Init, held)
		}
		if st.Tag != nil {
			inspectForbidden(pass, st.Tag, held)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkStmts(pass, cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkStmts(pass, cc.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				walkStmts(pass, cc.Body, copyHeld(held))
			}
		}
	case *ast.LabeledStmt:
		walkStmt(pass, st.Stmt, held)
	case *ast.GoStmt:
		// A spawned goroutine does not inherit the caller's locks.
		inspectForbidden(pass, st.Call, map[string]bool{})
	default:
		inspectForbidden(pass, s, held)
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// inspectForbidden reports forbidden grb calls inside n while locks are held.
func inspectForbidden(pass *lint.Pass, n ast.Node, held map[string]bool) {
	if n == nil || len(held) == 0 {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		if fl, ok := node.(*ast.FuncLit); ok {
			// Closures run later (sequence steps execute under the lock by
			// design); analyzing their bodies against the current held set
			// would flag the deferred-execution pipeline itself.
			_ = fl
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := lint.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "grb" {
			return true
		}
		name := fn.Name()
		if strings.HasSuffix(name, "Locked") {
			return true // documented caller-holds-the-lock helpers
		}
		sig := fn.Type().(*types.Signature)
		forbidden := (sig.Recv() != nil && forbiddenMethods[name]) ||
			(sig.Recv() == nil && forbiddenFuncs[name])
		if forbidden {
			pass.Reportf(call.Pos(), "call to %s while holding %s: grb entry points acquire locks "+
				"themselves (deadlock / lock-order inversion risk); release the mutex or use a *Locked helper",
				name, heldList(held))
		}
		return true
	})
}

func heldList(held map[string]bool) string {
	var keys []string
	for k := range held {
		keys = append(keys, k)
	}
	if len(keys) == 1 {
		return keys[0]
	}
	// Deterministic order for diagnostics.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j-1] > keys[j]; j-- {
			keys[j-1], keys[j] = keys[j], keys[j-1]
		}
	}
	return strings.Join(keys, ", ")
}

// mutexOp recognizes X.Lock()/X.Unlock()/X.RLock()/X.RUnlock() on a
// sync.Mutex or sync.RWMutex and returns the printed receiver expression
// plus whether it acquires.
func mutexOp(info *types.Info, e ast.Expr) (key string, locks, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		locks = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	tv, found := info.Types[sel.X]
	if !found || !isMutexType(tv.Type) {
		return "", false, false
	}
	return types.ExprString(sel.X), locks, true
}

func isMutexType(t types.Type) bool {
	return lint.IsNamed(t, "sync", "Mutex", "RWMutex")
}
