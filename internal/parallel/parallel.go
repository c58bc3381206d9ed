// Package parallel provides the work-partitioning and bounded fork/join
// primitives used by the sparse kernels. The degree of parallelism is always
// supplied by the caller (ultimately from a grb.Context chain, §IV of the
// GraphBLAS 2.0 paper); this package never consults runtime.NumCPU itself so
// that context thread budgets are honored exactly.
package parallel

import (
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// WorkerPanic wraps a panic recovered in a parallel section so For/Run can
// re-raise it on the calling goroutine instead of crashing the process — the
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

// run executes one task under the box: a panic in it is captured, not raised,
// so the worker that ran it goes on to claim the next.
func (b *panicBox) run(task func(int), i int) {
	defer b.capture()
	task(i)
}

// fork runs task(0), ..., task(n-1) on workers goroutines, the caller one of
// them: workers-1 helpers are spawned, every task is claimed from one counter,
// and the caller claims too before it joins. So a helper the host schedules
// late finds nothing left to claim and the section ends without it, where a
// caller parked behind the join would wait for the wake-up. Tasks are claimed
// last first: the caller is the one worker running now, and of row ranges
// balanced by entries the last holds the most rows of a hub-first graph and
// runs longest (rmat-16 PageRank at two threads: 29.5 ms against 32). A panic
// in any task — the caller's included — is re-raised as a WorkerPanic once
// every helper has returned: a helper still running would write into scratch
// the caller is about to release.
func fork(n, workers int, task func(int)) {
	var next atomic.Int64
	var pb panicBox
	claim := func() {
		for i := n - int(next.Add(1)); i >= 0; i = n - int(next.Add(1)) {
			pb.run(task, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for h := 1; h < workers; h++ {
		go func() {
			defer wg.Done()
			defer pb.capture()
			claim()
		}()
	}
	claim()
	wg.Wait()
	pb.rethrow()
}

// For runs body(lo, hi) over a partition of [0, n) into min(threads, n)
// contiguous parts that cover it exactly once, on as many goroutines (fork).
// With one part it is a plain call: no goroutine, no allocation, and a panic
// reaches the caller unwrapped.
func For(n, threads int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	threads = min(threads, n)
	if threads <= 1 {
		body(0, n)
		return
	}
	fork(threads, threads, func(t int) { body(t*n/threads, (t+1)*n/threads) })
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

// Run executes fn(i, b[i], b[i+1]) for each non-empty range i of the
// boundaries b (the BalancedRanges/Ranges output shape) on at most threads
// goroutines (fork). With one goroutine or one range it is a plain loop: no
// goroutine, no allocation, and a panic reaches the caller unwrapped.
// Otherwise a panic in any range is re-raised as a WorkerPanic after the
// join, and the remaining ranges still run — cooperative cancellation, not
// hard abort, keeps the semantics identical to the panic-free path for every
// range that does execute.
func Run(b []int, threads int, fn func(part, lo, hi int)) {
	r := len(b) - 1
	if min(threads, r) <= 1 {
		for i := 0; i < r; i++ {
			if b[i] < b[i+1] {
				fn(i, b[i], b[i+1])
			}
		}
		return
	}
	fork(r, min(threads, r), func(i int) {
		if b[i] < b[i+1] {
			fn(i, b[i], b[i+1])
		}
	})
}
