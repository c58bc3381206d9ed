package grb

import (
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/grblas/grb/internal/faults"
	"github.com/grblas/grb/internal/obsv"
	"github.com/grblas/grb/internal/sparse"
)

// Mode selects the execution mode of a context (GrB_Mode). In Blocking mode
// every method call completes before returning. In NonBlocking mode method
// calls on an object may be deferred and executed lazily as a sequence
// (§III of the paper); completion is forced by Wait, or implicitly by any
// method that reads the object.
type Mode int

const (
	// NonBlocking allows deferred execution of sequences (GrB_NONBLOCKING).
	NonBlocking Mode = 0
	// Blocking forces every call to complete before returning (GrB_BLOCKING).
	Blocking Mode = 1
)

// String returns the spec name of the mode.
func (m Mode) String() string {
	switch m {
	case NonBlocking:
		return "GrB_NONBLOCKING"
	case Blocking:
		return "GrB_BLOCKING"
	}
	return "GrB_Mode(?)"
}

// Context is the GraphBLAS 2.0 execution context (GrB_Context, §IV of the
// paper). A context carries an execution mode and resource information —
// here, a thread budget — and contexts nest hierarchically: the effective
// parallelism of an operation is bounded by every ancestor's budget. Every
// Matrix and Vector belongs to a context (the top-level context by default),
// and all objects participating in one operation must share a context, which
// lets the implementation manage placement without exposing low-level
// details.
//
// The C API passes implementation-defined execution information through a
// void* argument; the Go binding uses functional options (WithThreads,
// WithMemoryLimit, ...) instead.
type Context struct {
	mode    Mode
	parent  *Context
	threads int // 0 = inherit from parent chain
	chunk   int // minimum work per thread before parallelizing; 0 inherits, set only by tests
	freed   bool
	mu      sync.Mutex

	// Execution-hardening resource controls (§IV resource information, §V
	// execution errors). budget and deadline are immutable after NewContext;
	// canceled/cancelable use atomics only, so the abort probe the kernels
	// poll never takes a lock (and never violates the lock-ordering rule that
	// nothing lock-acquiring runs under an object mutex).
	budget     *sparse.Budget
	cancelable bool
	canceled   atomic.Bool
	deadline   time.Time
}

// ContextOption configures a new context (the implementation-defined
// `void *exec` argument of GrB_Context_new).
type ContextOption func(*Context)

// WithThreads bounds the number of threads operations in this context may
// use. Zero means inherit the parent's budget.
func WithThreads(n int) ContextOption {
	return func(c *Context) { c.threads = n }
}

// WithMemoryLimit bounds the kernel scratch and result memory, in bytes,
// that operations in this context may hold live at once. Exceeding the
// budget degrades gracefully first — a hash accumulator or gather instead of
// a dense one, a hash mask predicate instead of the bitmap, pull instead of
// push — and only when the cheapest route still does not fit does the
// operation park GrB_OUT_OF_MEMORY (§V). A transpose an operation reads
// stays charged until the context is freed (Descriptor.Transpose0). Zero or
// negative means unlimited. The limit is the context's own; it is not
// combined with ancestors' limits — the nearest limited context up the chain
// governs an operation. Usage, however, rolls up: a budgeted descendant's
// reservations are mirrored into the nearest budgeted ancestor's MemoryUsed
// aggregate (observation only, never enforcement) until the descendant is
// freed.
func WithMemoryLimit(bytes int64) ContextOption {
	return func(c *Context) { c.budget = sparse.NewBudget(bytes) }
}

// WithCancel makes the context cancelable: Context.Cancel aborts in-flight
// and future operations in it, parking the Canceled execution error at the
// next range-granularity checkpoint inside the kernels.
func WithCancel() ContextOption {
	return func(c *Context) { c.cancelable = true }
}

// WithDeadline aborts operations in this context that are still running
// after t, parking the Canceled execution error. The deadline is checked at
// range granularity inside the kernels; it is immutable after NewContext.
func WithDeadline(t time.Time) ContextOption {
	return func(c *Context) { c.deadline = t }
}

// global holds the top-level context created by Init (GrB_init).
var global struct {
	mu          sync.Mutex
	ctx         *Context
	initialized bool
}

// Init initializes the GraphBLAS library and creates the top-level context
// with the given mode (GrB_init). Calling Init twice without an intervening
// Finalize is an API error.
func Init(mode Mode) error {
	if mode != Blocking && mode != NonBlocking {
		return errf(InvalidValue, "Init: invalid mode %d", int(mode))
	}
	global.mu.Lock()
	defer global.mu.Unlock()
	if global.initialized {
		return errf(InvalidValue, "Init: already initialized")
	}
	// The top-level context carries no explicit budget (0): children may
	// set any budget, and the GOMAXPROCS fallback applies only when no
	// context in the chain declares one.
	global.ctx = &Context{mode: mode}
	global.initialized = true
	// GRB_TRACE=path starts a persistent trace session on first Init; the
	// session spans Init/Finalize cycles (Finalize flushes, never ends it),
	// so a test binary cycling the library still produces one cumulative
	// Chrome-trace file.
	if path := os.Getenv("GRB_TRACE"); path != "" && !obsv.Tracing() {
		if err := obsv.TraceToFile(path); err != nil {
			global.ctx = nil
			global.initialized = false
			return errf(InvalidValue, "Init: GRB_TRACE=%s: %v", path, err)
		}
	}
	// GRB_FAULTS arms the deterministic fault-injection plan (chaos testing
	// without recompilation); see internal/faults.ParseRules for the grammar.
	if spec := os.Getenv("GRB_FAULTS"); spec != "" {
		if err := faults.ArmFromSpec(spec); err != nil {
			global.ctx = nil
			global.initialized = false
			return errf(InvalidValue, "Init: GRB_FAULTS=%s: %v", spec, err)
		}
	}
	return nil
}

// Finalize shuts the library down and frees all Context objects
// (GrB_finalize). GraphBLAS objects must not be used afterwards.
func Finalize() error {
	global.mu.Lock()
	defer global.mu.Unlock()
	if !global.initialized {
		return errf(UninitializedObject, "Finalize: not initialized")
	}
	global.ctx = nil
	global.initialized = false
	// Keep a GRB_TRACE file valid at every shutdown: rewrite it with the
	// cumulative buffer. Writer sessions (TraceTo) are unaffected.
	if err := obsv.FlushTrace(); err != nil && err != obsv.ErrNotTracing {
		return errf(InvalidValue, "Finalize: trace flush: %v", err)
	}
	return nil
}

// initialized reports library state; used by every public method.
func initializedContext() (*Context, error) {
	global.mu.Lock()
	defer global.mu.Unlock()
	if !global.initialized {
		return nil, errf(UninitializedObject, "GraphBLAS not initialized: call grb.Init first")
	}
	return global.ctx, nil
}

// GlobalContext returns the top-level context created by Init.
func GlobalContext() (*Context, error) {
	return initializedContext()
}

// NewContext creates a context nested within parent (GrB_Context_new). A
// nil parent nests within the top-level context (the C API's GrB_NULL).
func NewContext(mode Mode, parent *Context, opts ...ContextOption) (*Context, error) {
	top, err := initializedContext()
	if err != nil {
		return nil, err
	}
	if mode != Blocking && mode != NonBlocking {
		return nil, errf(InvalidValue, "NewContext: invalid mode %d", int(mode))
	}
	if parent == nil {
		parent = top
	}
	if parent.isFreed() {
		return nil, errf(UninitializedObject, "NewContext: parent context has been freed")
	}
	c := &Context{mode: mode, parent: parent}
	for _, o := range opts {
		o(c)
	}
	if c.threads < 0 {
		return nil, errf(InvalidValue, "NewContext: negative thread budget")
	}
	// Rollup wiring: a budgeted child mirrors its reservations into the
	// nearest budgeted ancestor, so MemoryUsed on an interior context is a
	// live aggregate over its subtree — the serving governor's admission
	// signal. Enforcement is unchanged: the nearest limit still governs.
	if c.budget != nil && parent != nil {
		c.budget.SetParent(parent.memBudget())
	}
	return c, nil
}

// Free releases the context's resources (GrB_free). After Free the context
// behaves as an uninitialized object.
func (c *Context) Free() error {
	if c == nil {
		return errf(NullPointer, "Context.Free: nil context")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.freed {
		return errf(UninitializedObject, "Context.Free: already freed")
	}
	c.freed = true
	// Leave the ancestors' aggregates: any residual (persistent) reservations
	// this context still holds are subtracted from the rollup, so a finished
	// request's cached artifacts cannot inflate a long-lived governor context.
	c.budget.Detach()
	return nil
}

func (c *Context) isFreed() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.freed
}

// Cancel aborts operations running in this context (and its descendants):
// kernels observe the flag at their next range-granularity checkpoint and
// park the Canceled execution error on the output object (§V deferred
// reporting — Wait(Materialize) or the next method call surfaces it). The
// context must have been created with WithCancel. Cancel is idempotent and
// safe to call from any goroutine, including while a drain is in flight.
func (c *Context) Cancel() error {
	if c == nil {
		return errf(NullPointer, "Context.Cancel: nil context")
	}
	if !c.cancelable {
		return errf(InvalidValue, "Context.Cancel: context not created with WithCancel")
	}
	c.canceled.Store(true)
	return nil
}

// Canceled reports whether Cancel has been called on this context or any
// ancestor, or a deadline along the chain has expired. It is the kernels'
// cancellation probe (sparse.Canceler): atomics and immutable fields only —
// it runs inside kernels, under object locks, at range granularity.
func (c *Context) Canceled() bool {
	for p := c; p != nil; p = p.parent {
		if p.canceled.Load() || !p.deadline.IsZero() && time.Now().After(p.deadline) {
			return true
		}
	}
	return false
}

// memBudget returns the nearest memory budget up the context chain (nil when
// no context declares one).
func (c *Context) memBudget() *sparse.Budget {
	for p := c; p != nil; p = p.parent {
		if p.budget != nil {
			return p.budget
		}
	}
	return nil
}

// MemoryLimit returns the effective memory limit in bytes (the nearest
// WithMemoryLimit up the chain), or 0 when unlimited.
func (c *Context) MemoryLimit() int64 { return c.memBudget().Limit() }

// MemoryUsed returns the bytes currently reserved against the effective
// memory budget (0 when unlimited). Because budgeted descendants mirror
// their reservations into the nearest budgeted ancestor, this is a live
// aggregate over the context's subtree: a server that parents every request
// context under one budgeted "governor" context reads total in-flight
// memory here with a single atomic load.
func (c *Context) MemoryUsed() int64 { return c.memBudget().Used() }

// MemoryPeak returns the high-water mark of MemoryUsed over the effective
// budget's lifetime (0 when unlimited) — the per-request signal the serving
// layer's admission estimator learns from.
func (c *Context) MemoryPeak() int64 { return c.memBudget().Peak() }

// needsAbortProbe reports whether any context in the chain can cancel.
func (c *Context) needsAbortProbe() bool {
	for p := c; p != nil; p = p.parent {
		if p.cancelable || !p.deadline.IsZero() {
			return true
		}
	}
	return false
}

// fork is what sizes an operation's parallel sections: the thread budget and
// the chunk, the nearest one set up the chain or else sparse.DefaultGrain.
// The kernel, which counts the work, does the sizing.
func (c *Context) fork() sparse.Exec {
	e := sparse.Exec{Threads: c.Threads(), Grain: sparse.DefaultGrain}
	for p := c; p != nil; p = p.parent {
		if p.chunk > 0 {
			e.Grain = p.chunk
			break
		}
	}
	return e
}

// exec builds the hardened execution environment for one drained operation:
// fork, a budget transaction in tx (closed by the caller via Exec.Close when
// the operation completes), and the cancellation probe. Called at drain time,
// inside the sequence step, so budget state and cancellation reflect
// execution order rather than enqueue order. A nil context — an object
// method's node — runs serially, unbudgeted and uncancelled.
func (c *Context) exec(tx *sparse.BudgetTx) sparse.Exec {
	if c == nil {
		return sparse.Exec{}
	}
	e := c.fork()
	e.Tx = c.memBudget().TxIn(tx)
	if c.needsAbortProbe() {
		e.Cancel = c
	}
	return e
}

// Mode returns the context's execution mode.
func (c *Context) Mode() Mode {
	if c == nil {
		return NonBlocking
	}
	return c.mode
}

// Parent returns the enclosing context (nil for the top-level context).
func (c *Context) Parent() *Context { return c.parent }

// Threads returns the effective thread budget: the minimum declared budget
// along the chain from this context to the root (contexts with budget 0
// inherit). This is how hierarchical nesting bounds parallelism, §IV.
func (c *Context) Threads() int {
	eff := 0
	for p := c; p != nil; p = p.parent {
		if p.threads > 0 && (eff == 0 || p.threads < eff) {
			eff = p.threads
		}
	}
	if eff == 0 {
		eff = runtime.GOMAXPROCS(0)
	}
	return eff
}

// resolveCtx maps an object's context pointer (possibly nil) to the
// effective context, requiring the library to be initialized.
func resolveCtx(c *Context) (*Context, error) {
	top, err := initializedContext()
	if err != nil {
		return nil, err
	}
	if c == nil {
		return top, nil
	}
	if c.isFreed() {
		return nil, errf(UninitializedObject, "operation on freed context")
	}
	return c, nil
}

// sameContext verifies that the operands' contexts are compatible and
// returns the context the operation executes in. §IV requires that "all the
// GraphBLAS matrices and vectors in a GraphBLAS method share a context";
// this implementation reads the rule through the paper's own hierarchical
// nesting model: operands may additionally belong to *nested* contexts —
// every pair related by ancestry in the context tree — and the operation
// executes in the deepest one. A per-query context derived from the shared
// top-level context can therefore operate on library-owned objects (shared
// graph snapshots) while its own deadline, cancellation flag, and memory
// budget govern the kernels — the multi-tenant serving shape. Contexts on
// different branches of the tree remain an InvalidValue error, exactly as
// before.
func sameContext(ctxs ...*Context) (*Context, error) {
	top, err := initializedContext()
	if err != nil {
		return nil, err
	}
	eff := top
	seen := false
	for _, c := range ctxs {
		if c == nil {
			c = top
		}
		if c.isFreed() {
			return nil, errf(UninitializedObject, "operand belongs to a freed context")
		}
		switch {
		case !seen:
			eff = c
			seen = true
		case c == eff || isAncestor(c, eff):
			// eff already governs: c is eff itself or one of its ancestors.
		case isAncestor(eff, c):
			eff = c // c nests inside eff: the deeper context governs
		default:
			return nil, errf(InvalidValue, "operands belong to different execution contexts")
		}
	}
	return eff, nil
}

// isAncestor reports whether a is a proper ancestor of b in the context
// tree. Contexts created with a nil parent nest under the top-level context,
// so every live chain terminates there.
func isAncestor(a, b *Context) bool {
	for p := b.parent; p != nil; p = p.parent {
		if p == a {
			return true
		}
	}
	return false
}
