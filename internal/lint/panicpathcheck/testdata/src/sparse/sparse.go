// Package sparse is the panicpathcheck corpus: fan-out kernels with and
// without panic guards, and goroutine launches in every guard shape.
package sparse

import "parallel"

func recoverExec(err *error) {}

// GoodKernelEx guards with the canonical recoverExec defer.
func GoodKernelEx(parts []int) (err error) {
	defer recoverExec(&err)
	parallel.Run(parts, 2, func(part, lo, hi int) {})
	return nil
}

// GoodInlineGuard guards with an inline recover closure.
func GoodInlineGuard(parts []int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = nil
		}
	}()
	parallel.Run(parts, 2, func(part, lo, hi int) {})
	return err
}

// BadKernelEx fans out with an error result and no guard.
func BadKernelEx(parts []int) error { // want `no deferred panic guard`
	parallel.Run(parts, 2, func(part, lo, hi int) {})
	return nil
}

// BadFor covers the For entry point.
func BadFor(n int) error { // want `no deferred panic guard`
	parallel.For(n, 2, func(lo, hi int) {})
	return nil
}

// rowwise is the corpus twin of the row-parallel scaffold: it has no error
// result of its own, and its callers reach the pool only through it.
func rowwise(rows int, emit func(i int)) {
	parallel.Run([]int{0, rows}, 2, func(part, lo, hi int) {})
}

// GoodRowwise fans out through the scaffold behind a guard.
func GoodRowwise(rows int) (err error) {
	defer recoverExec(&err)
	rowwise(rows, func(i int) {})
	return nil
}

// BadRowwise is ExtractM with its guard dropped: no direct pool call, yet a
// worker panic would cross it.
func BadRowwise(rows int) error { // want `fans out via sparse.rowwise but has no deferred panic guard`
	rowwise(rows, func(i int) {})
	return nil
}

// NoErrorNoGuard has no error result: the pool itself ferries panics, and
// there is no error to park them in — out of rule scope.
func NoErrorNoGuard(parts []int) {
	parallel.Run(parts, 2, func(part, lo, hi int) {})
}

// NestedPoolCall only fans out inside a nested literal; the rule is on
// direct calls.
func NestedPoolCall(parts []int) error {
	f := func() {
		parallel.Run(parts, 2, func(part, lo, hi int) {})
	}
	f()
	return nil
}

type box struct{}

func (b *box) capture() {}

// GoodGoCapture launches a literal guarded by the panicBox capture defer.
func GoodGoCapture() {
	b := &box{}
	go func() {
		defer b.capture()
	}()
}

// GoodGoRecover launches a literal guarded by an inline recover closure.
func GoodGoRecover(ch chan int) {
	go func() {
		defer func() { recover() }()
		ch <- 1
	}()
}

// BadGo launches an unguarded literal.
func BadGo(ch chan int) {
	go func() { // want `unguarded function literal`
		ch <- 1
	}()
}

func named() {}

// BadGoNamed launches a named function: the guard is not visible at the
// launch site.
func BadGoNamed() {
	go named() // want `guarded function literal`
}

// IgnoredGo documents a deliberate suppression.
func IgnoredGo(ch chan int) {
	go func() { //grblint:ignore panicpathcheck -- corpus: deliberate suppressed case
		ch <- 1
	}()
}
