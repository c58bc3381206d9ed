// Package parallel provides the work-partitioning and bounded fork/join
// primitives used by the sparse kernels. The degree of parallelism is always
// supplied by the caller (ultimately from a grb.Context chain, §IV of the
// GraphBLAS 2.0 paper); this package never consults runtime.NumCPU itself so
// that context thread budgets are honored exactly.
package parallel

import (
	"runtime/debug"
	"sync"
)

// WorkerPanic wraps a panic recovered on a worker goroutine so For/Run can
// re-raise it on the joining goroutine instead of crashing the process — the
// execution-hardening contract: a panic inside any parallel kernel range must
// surface to the kernel's caller, where the grb layer converts it into a
// parked GrB_PANIC execution error (§V). Value is the original panic payload
// (preserved so typed sentinels like the sparse budget abort survive the
// goroutine hop); Stack is the worker's stack at recovery time, since the
// re-raise happens on a different goroutine and would otherwise lose it.
type WorkerPanic struct {
	Value any
	Stack []byte
}

// Error formats the wrapped panic; WorkerPanic intentionally satisfies the
// error interface so recovery layers can log it directly.
func (w WorkerPanic) Error() string {
	return "parallel: worker panic: " + formatPanic(w.Value)
}

func formatPanic(v any) string {
	switch t := v.(type) {
	case error:
		return t.Error()
	case string:
		return t
	}
	return "non-string panic value"
}

// panicBox captures the first panic among a group of workers.
type panicBox struct {
	mu  sync.Mutex
	val *WorkerPanic
}

// capture records the current recover() value, keeping only the first.
// Call only from a deferred context.
func (b *panicBox) capture() {
	if r := recover(); r != nil {
		wp := WorkerPanic{Value: r, Stack: debug.Stack()}
		b.mu.Lock()
		if b.val == nil {
			b.val = &wp
		}
		b.mu.Unlock()
	}
}

// rethrow re-raises the captured panic, if any, on the calling goroutine.
func (b *panicBox) rethrow() {
	if b.val != nil {
		panic(*b.val)
	}
}

// For runs body(lo, hi) over a partition of [0, n) using at most threads
// concurrent goroutines. With threads <= 1 or n small it runs inline.
// Partitions are contiguous and cover [0, n) exactly once. A panic on any
// worker is re-raised on the calling goroutine as a WorkerPanic after all
// workers join (inline execution panics directly, without the wrapper).
func For(n, threads int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if threads > n {
		threads = n
	}
	if threads <= 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	var pb panicBox
	wg.Add(threads)
	for t := 0; t < threads; t++ {
		lo := t * n / threads
		hi := (t + 1) * n / threads
		go func(lo, hi int) {
			defer wg.Done()
			defer pb.capture()
			if lo < hi {
				body(lo, hi)
			}
		}(lo, hi)
	}
	wg.Wait()
	pb.rethrow()
}

// Ranges splits [0, n) into at most k contiguous ranges of near-equal size.
// It returns the boundary slice b with len(b) = r+1 for r ranges, so range i
// is [b[i], b[i+1]). Used when per-range scratch state must be preallocated.
func Ranges(n, k int) []int {
	if n < 0 {
		n = 0
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	if k == 0 {
		k = 1
	}
	b := make([]int, k+1)
	for i := 0; i <= k; i++ {
		b[i] = i * n / k
	}
	return b
}

// BalancedRanges splits rows [0, rows) into at most k contiguous ranges such
// that each range holds approximately equal total weight, where weight of row
// i is ptr[i+1]-ptr[i] (its nnz). ptr must have length rows+1 and be
// nondecreasing. Returns boundaries as in Ranges. This is the standard
// nnz-balanced row partition used for CSR traversals whose per-row cost is
// proportional to the row's population.
func BalancedRanges(rows, k int, ptr []int) []int {
	if k < 1 {
		k = 1
	}
	if rows <= 0 {
		return []int{0, 0}
	}
	if k > rows {
		k = rows
	}
	total := ptr[rows] - ptr[0]
	if total == 0 || k == 1 {
		return Ranges(rows, k)
	}
	b := make([]int, k+1)
	b[0] = 0
	row := 0
	for i := 1; i < k; i++ {
		target := ptr[0] + total*i/k
		// advance to the first row boundary whose cumulative nnz reaches target
		for row < rows && ptr[row+1] < target {
			row++
		}
		if row < rows {
			row++
		}
		b[i] = row
	}
	b[k] = rows
	// enforce monotonicity (degenerate weight distributions)
	for i := 1; i <= k; i++ {
		if b[i] < b[i-1] {
			b[i] = b[i-1]
		}
	}
	return b
}

// Run executes fn(i) for i in [0, r) on at most threads goroutines, where r
// is the number of ranges encoded by boundaries b (len(b)-1). It is a helper
// for the BalancedRanges/Ranges output shape. A panic on any worker is
// re-raised on the calling goroutine as a WorkerPanic after all workers join
// (serial execution panics directly, without the wrapper); remaining ranges
// still run — cooperative cancellation, not hard abort, keeps the semantics
// identical to the panic-free path for every range that does execute.
func Run(b []int, threads int, fn func(part, lo, hi int)) {
	r := len(b) - 1
	if r <= 0 {
		return
	}
	if threads > r {
		threads = r
	}
	if threads <= 1 {
		for i := 0; i < r; i++ {
			if b[i] < b[i+1] {
				fn(i, b[i], b[i+1])
			}
		}
		return
	}
	var wg sync.WaitGroup
	var pb panicBox
	wg.Add(r)
	sem := make(chan struct{}, threads)
	for i := 0; i < r; i++ {
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			defer pb.capture()
			if b[i] < b[i+1] {
				fn(i, b[i], b[i+1])
			}
		}(i)
	}
	wg.Wait()
	pb.rethrow()
}
