package sparse

import (
	"errors"
	"fmt"
	"sync/atomic"
	"unsafe"

	"github.com/grblas/grb/internal/faults"
	"github.com/grblas/grb/internal/obsv"
	"github.com/grblas/grb/internal/parallel"
)

// This file is the execution-hardening layer of the substrate: the budgeted
// allocator (Budget/BudgetTx), the per-invocation execution environment
// (Exec) that the *Ex kernel variants thread through their allocation and
// range checkpoints, and the panic/abort plumbing that turns any failure —
// budget exhaustion, cancellation, injected fault, or a genuine kernel bug —
// into an ordinary error return the grb layer parks as a §V execution error.
//
// Inside a kernel, failures travel as panics (abortPanic for controlled
// aborts, anything else for real crashes) because allocation sites sit deep
// in parallel worker loops where error returns would contort every kernel.
// parallel.For/Run ferry worker panics to the joining goroutine as
// parallel.WorkerPanic, and recoverExec at each Ex kernel's entry converts
// the whole taxonomy back into errors:
//
//	abortPanic{err}            → err            (ErrBudget, ErrCanceled, faults.ErrInjected)
//	any other panic            → *KernelPanic   (wraps ErrKernelPanic)
//
// The grb layer maps the errors onto Info codes.

// Errors surfaced by the hardening layer. The grb layer maps ErrBudget (and
// faults.ErrInjected) onto GrB_OUT_OF_MEMORY, ErrCanceled onto the Canceled
// execution error, and ErrKernelPanic onto GrB_PANIC.
var (
	// ErrBudget reports that an allocation would exceed the context's memory
	// limit after every graceful degradation was tried.
	ErrBudget = errors.New("sparse: memory budget exhausted")
	// ErrCanceled reports that the operation was aborted by context
	// cancellation or an expired deadline at a range checkpoint.
	ErrCanceled = errors.New("sparse: execution canceled")
	// ErrKernelPanic is the sentinel wrapped by KernelPanic; errors.Is against
	// it identifies a recovered kernel crash.
	ErrKernelPanic = errors.New("sparse: kernel panic")
)

// KernelPanic is a kernel crash recovered into an error: Value is the
// original panic payload, Stack the worker's stack when the panic crossed a
// goroutine (nil for a same-goroutine recovery).
type KernelPanic struct {
	Value any
	Stack []byte
}

// Error formats the recovered payload.
func (k *KernelPanic) Error() string { return fmt.Sprintf("sparse: kernel panic: %v", k.Value) }

// Unwrap ties the concrete panic record to the ErrKernelPanic sentinel.
func (k *KernelPanic) Unwrap() error { return ErrKernelPanic }

// Budget is a shared memory allowance, in bytes, for kernel scratch and
// results: the enforcement half of the grb layer's WithMemoryLimit context
// option. Reservations are tracked with one atomic counter; concurrent
// operations against the same context share the pool.
//
// A budget may additionally mirror into a parent budget: every reservation
// and release is echoed up the parent chain, so an ancestor's Used() is a
// live aggregate of its own and all descendants' reservations. Parents only
// observe — the nearest budget still enforces its own limit — which is what
// lets a serving process read one atomic on a root "governor" budget to see
// total in-flight memory without walking its children. Detach unhooks a
// budget at teardown, subtracting any residual (persistent) reservations
// from the ancestors so a finished request cannot leak into the aggregate.
type Budget struct {
	limit  int64
	used   atomic.Int64
	peak   atomic.Int64
	parent atomic.Pointer[Budget]
}

// NewBudget creates a budget of limit bytes; limit <= 0 returns nil (an
// unlimited budget is represented by the absence of one).
func NewBudget(limit int64) *Budget {
	if limit <= 0 {
		return nil
	}
	return &Budget{limit: limit}
}

// Limit returns the budget's byte limit (0 for a nil budget).
func (b *Budget) Limit() int64 {
	if b == nil {
		return 0
	}
	return b.limit
}

// Used returns the bytes currently reserved, including every attached
// descendant budget's reservations (the rollup aggregate).
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// Peak returns the high-water mark of Used over the budget's lifetime — the
// signal the serving layer's admission estimator feeds on.
func (b *Budget) Peak() int64 {
	if b == nil {
		return 0
	}
	return b.peak.Load()
}

// SetParent attaches a rollup parent: from now on reservations and releases
// mirror into p (and p's own ancestors). The parent never enforces its limit
// against this budget's reservations; it only observes. Call before the
// budget sees traffic — typically right after construction.
func (b *Budget) SetParent(p *Budget) {
	if b == nil || p == nil || p == b {
		return
	}
	b.parent.Store(p)
}

// Detach unhooks the budget from its parent chain, subtracting its current
// reservation from every ancestor so residual (persistent) charges of a
// finished context leave the aggregate. Idempotent; safe once the budget's
// operations have completed.
func (b *Budget) Detach() {
	if b == nil {
		return
	}
	p := b.parent.Swap(nil)
	if p == nil {
		return
	}
	if n := b.used.Load(); n != 0 {
		for ; p != nil; p = p.parent.Load() {
			p.used.Add(-n)
		}
	}
}

// notePeak folds a new Used observation into the high-water mark.
func (b *Budget) notePeak(u int64) {
	for {
		p := b.peak.Load()
		if u <= p || b.peak.CompareAndSwap(p, u) {
			return
		}
	}
}

// reserve attempts to claim n bytes, rolling back on failure. A successful
// claim mirrors into the parent chain (observation only — no ancestor limit
// check, the nearest budget governs).
func (b *Budget) reserve(n int64) bool {
	u := b.used.Add(n)
	if u > b.limit {
		b.used.Add(-n)
		return false
	}
	b.notePeak(u)
	for p := b.parent.Load(); p != nil; p = p.parent.Load() {
		p.notePeak(p.used.Add(n))
	}
	return true
}

// release returns n bytes to the pool and to the parent chain's aggregates.
func (b *Budget) release(n int64) {
	b.used.Add(-n)
	for p := b.parent.Load(); p != nil; p = p.parent.Load() {
		p.used.Add(-n)
	}
}

// Tx opens a per-operation transaction against the budget: reservations made
// through the transaction are released together by Close, so one drained
// operation's scratch cannot leak into the pool when the op ends (normally or
// by abort). A nil Budget yields a nil (unlimited) transaction.
func (b *Budget) Tx() *BudgetTx { return b.TxIn(new(BudgetTx)) }

// TxIn is Tx in storage the caller keeps — one per object, whose steps run
// one at a time — so that opening a transaction allocates nothing. tx must
// be closed (or new).
func (b *Budget) TxIn(tx *BudgetTx) *BudgetTx {
	if b == nil {
		return nil
	}
	tx.b = b
	return tx
}

// BudgetTx tracks one operation's transient reservations. All methods are
// nil-safe: a nil transaction is the unlimited allocator.
type BudgetTx struct {
	b    *Budget
	held atomic.Int64
}

// Reserve claims n transient bytes, reporting whether they fit.
func (tx *BudgetTx) Reserve(n int64) bool {
	if tx == nil || n <= 0 {
		return true
	}
	if !tx.b.reserve(n) {
		return false
	}
	tx.held.Add(n)
	return true
}

// ReservePersistent claims n bytes that outlive the transaction (e.g. a
// cached transpose): they are charged to the budget but not released by
// Close.
func (tx *BudgetTx) ReservePersistent(n int64) bool {
	if tx == nil || n <= 0 {
		return true
	}
	return tx.b.reserve(n)
}

// Fits reports whether n more transient bytes would currently fit — the
// degradation probe used to pick a cheaper route before committing to an
// allocation.
func (tx *BudgetTx) Fits(n int64) bool {
	if tx == nil {
		return true
	}
	return tx.b.used.Load()+n <= tx.b.limit
}

// Close releases every transient reservation back to the budget.
func (tx *BudgetTx) Close() {
	if tx == nil {
		return
	}
	if n := tx.held.Swap(0); n > 0 {
		tx.b.release(n)
	}
}

// DefaultGrain is the work — stored entries read, products formed — each
// worker of a parallel section must have for the section to fork. It is where
// a second worker has stopped losing on the two-core hosts this repo is
// measured on, which take some 100 µs to get a helper onto the other core
// (BenchmarkForkGrainPair: two workers run at 0.5–0.75 of one worker's speed
// on a pull of 53 k entries, at 0.81–0.94 on a push of 51 k products and at
// 1.2–1.4 on a pull of 955 k). SuiteSparse:GraphBLAS ships half of it, which
// the column-owned push may now afford; re-measure before moving it.
const DefaultGrain = 1 << 17

// Canceler is the cancellation probe: a grb Context, which costs no allocation.
type Canceler interface{ Canceled() bool }

// Exec is the execution environment for one kernel invocation: the thread
// cap and the grain that size its parallel sections (workers), the
// operation's budget transaction (nil = unlimited), and the cancellation
// probe (nil = never canceled; the kernel aborts with ErrCanceled). The
// zero Exec runs serially, unbudgeted, uncancellable — exactly the
// pre-hardening behaviour.
type Exec struct {
	Threads int
	// Grain is the minimum work per worker; zero means DefaultGrain, so an
	// Exec built from a thread count alone forks where the library does.
	Grain  int
	Tx     *BudgetTx
	Cancel Canceler
	// Route, when non-nil, receives the route the kernel planned and ran.
	// The grb layer sets it where it has an op event to label.
	Route *Route
	// Spare is the *Vec the kernel's output supersedes when the step grants
	// its value array — nothing else can read it any more — and nil
	// otherwise. Only reuseVal reads it.
	Spare any
}

// note publishes the kernel's route to an observing caller, beside the
// worker count its sections have reported.
func (e Exec) note(rt Route) {
	if e.Route != nil {
		rt.Workers = e.Route.Workers
		*e.Route = rt
	}
}

// workers sizes a parallel section: clamp(work/grain, 1, threads), where work
// is what the section's kernel counts — the stored entries it reads or the
// products it forms. This is the one place (work, grain, threads) becomes a
// worker count; the section splits into that many ranges and parallel.Run
// gives each a goroutine, the caller's among them. An observing caller reads
// the kernel's widest section from Route.Workers.
func (e Exec) workers(work int) int {
	grain := e.Grain
	if grain < 1 {
		grain = DefaultGrain
	}
	w := max(1, min(work/grain, e.Threads))
	if e.Route != nil && w > e.Route.Workers {
		e.Route.Workers = w
	}
	return w
}

// Close releases the budget transaction; call it when the operation that
// built the Exec completes. Nil-safe.
func (e Exec) Close() { e.Tx.Close() }

// abortPanic carries a controlled kernel abort (budget, cancellation,
// injected alloc failure) out of worker loops; recoverExec unwraps it back
// into its error.
type abortPanic struct{ err error }

// abort raises err as a controlled kernel abort.
func abort(err error) { panic(abortPanic{err: err}) }

// charge consults the fault-injection site and then reserves bytes against
// the budget, returning the failure (if any) as an error.
func (e Exec) charge(s *faults.Site, bytes int64) error {
	if err := s.Check(); err != nil {
		return err
	}
	if !e.Tx.Reserve(bytes) {
		return ErrBudget
	}
	return nil
}

// mustCharge is charge for call sites inside kernels: failure aborts the
// kernel via panic, recovered by recoverExec at the kernel entry.
func (e Exec) mustCharge(s *faults.Site, bytes int64) {
	if err := e.charge(s, bytes); err != nil {
		abort(err)
	}
}

// checkpoint is the per-range abort probe: it consults the generic range
// fault site (panic/delay injection lands here) and the cancellation hook.
// Kernels call it at range granularity — once per worker range — which is the
// abort latency the API documents.
func (e Exec) checkpoint() {
	if err := siteRange.Check(); err != nil {
		abort(err)
	}
	e.poll()
}

// pollFlops is how much work SpGEMM does between two polls of the
// cancellation hook inside one range: a one-thread product is a single
// range, and a deadline must not wait for all of it.
const pollFlops = 1 << 16

// poll aborts the kernel if the cancellation hook reports an error. Unlike
// checkpoint it touches no fault site, so polling inside a range leaves the
// chaos sweep's hit counts where they were.
func (e Exec) poll() {
	if e.Cancel != nil && e.Cancel.Canceled() {
		abort(ErrCanceled)
	}
}

// recoverExec is deferred at every Ex kernel entry: it converts the panic
// taxonomy (controlled aborts, ferried worker panics, genuine crashes) into
// the kernel's error result. Real panics — anything that is not a controlled
// abort — increment the recovered-panic counter.
func recoverExec(err *error) {
	r := recover()
	if r == nil {
		return
	}
	*err = panicToError(r)
}

// panicToError maps one recovered panic value onto the hardening error
// taxonomy.
func panicToError(r any) error {
	switch t := r.(type) {
	case abortPanic:
		return t.err
	case parallel.WorkerPanic:
		if ab, ok := t.Value.(abortPanic); ok {
			return ab.err
		}
		obsv.PanicsRecovered.Add(1)
		return &KernelPanic{Value: t.Value, Stack: t.Stack}
	}
	obsv.PanicsRecovered.Add(1)
	return &KernelPanic{Value: r}
}

// Fault-injection sites, one per hardened allocation point plus the generic
// per-range checkpoint. Registered at init so the chaos sweep can enumerate
// them through faults.Sites().
var (
	siteSpGEMMDense = faults.Register("sparse.spgemm.spa")
	siteSpGEMMHash  = faults.Register("sparse.spgemm.hash")
	siteSpMVGather  = faults.Register("sparse.spmv.gather")
	siteSpMVHash    = faults.Register("sparse.spmv.hash")
	siteVxMSpa      = faults.Register("sparse.vxm.spa")
	siteTranspose   = faults.Register("sparse.transpose.build")
	siteMerge       = faults.Register("sparse.merge.tuples")
	siteRange       = faults.Register("sparse.kernel.range")
	// Family-loop sites: the per-range entry of a scaffold running a
	// monomorphized loop and its SPA allocation, plus the sparse→block view
	// materialization of the pull gather.
	siteMonoLoop      = faults.Register("sparse.mono.loop")
	siteMonoSpa       = faults.Register("sparse.mono.spa")
	siteFormatConvert = faults.Register("sparse.format.convert")
)

// MergeSite exposes the tuple-merge fault site so the grb layer's deferred
// setElement merge participates in the chaos sweep.
func MergeSite() *faults.Site { return siteMerge }

// slotBytes is the per-slot scratch cost of an accumulator over value type T:
// one index word plus one value.
func slotBytes[T any]() int64 {
	var z T
	return int64(unsafe.Sizeof(0) + unsafe.Sizeof(z))
}

// hashCapacity returns the power-of-two table size hashAccum/hashLookup
// allocate for n live keys — the number charge must use so the budget sees
// the real allocation, not the request.
func hashCapacity(n int) int {
	c := 16
	for c < 2*n {
		c <<= 1
	}
	return c
}
