package grb

import (
	"math"
	"sync"

	"github.com/grblas/grb/internal/obsv"
	"github.com/grblas/grb/internal/sparse"
)

// Matrix is the opaque GraphBLAS matrix object (GrB_Matrix), a
// two-dimensional sparse array over domain T. A Matrix belongs to an
// execution context (§IV) and, in nonblocking mode, is defined at any point
// in the program by its sequence of method calls (§III): operations may be
// deferred, and reads or Wait force completion.
//
// A Matrix is safe for the paper's thread-safety contract: independent
// method calls from multiple goroutines are race-free. Sharing one matrix
// across goroutines requires the completion + happens-before protocol of
// §III (see Wait and the examples/multithread program).
type Matrix[T any] struct {
	mu      sync.Mutex
	init    bool
	ctx     *Context
	csr     *sparse.CSR[T]
	pending []func(*Matrix[T]) // deferred sequence steps, run with mu held
	tuples  []sparse.Tuple[T]  // deferred setElement/removeElement updates
	derr    *Error             // parked (deferred) execution error, §V
	errmsg  string             // implementation-defined GrB_error string
	seq     obsv.SeqID         // open sequence span during a drain, else 0
}

// objConfig carries constructor options shared by all object types.
type objConfig struct{ ctx *Context }

// ObjOption configures object constructors.
type ObjOption func(*objConfig)

// InContext places the new object in the given execution context — the new
// optional constructor argument GraphBLAS 2.0 adds (§IV, Fig. 2). Objects
// constructed without it belong to the top-level context.
func InContext(ctx *Context) ObjOption {
	return func(c *objConfig) { c.ctx = ctx }
}

// NewMatrix creates an empty nrows × ncols matrix over domain T
// (GrB_Matrix_new). Both dimensions must be positive.
func NewMatrix[T any](nrows, ncols Index, opts ...ObjOption) (*Matrix[T], error) {
	var cfg objConfig
	for _, o := range opts {
		o(&cfg)
	}
	ctx, err := resolveCtx(cfg.ctx)
	if err != nil {
		return nil, err
	}
	if nrows <= 0 || ncols <= 0 {
		return nil, errf(InvalidValue, "NewMatrix: dimensions must be positive (got %d x %d)", nrows, ncols)
	}
	return &Matrix[T]{init: true, ctx: ctx, csr: sparse.NewCSR[T](nrows, ncols)}, nil
}

// check verifies the object was constructed.
func (m *Matrix[T]) check() error {
	if m == nil {
		return errf(NullPointer, "nil Matrix")
	}
	if !m.init {
		return errf(UninitializedObject, "Matrix not initialized (use NewMatrix)")
	}
	return nil
}

// context resolves the matrix's execution context.
func (m *Matrix[T]) context() (*Context, error) { return resolveCtx(m.ctx) }

// Context returns the execution context the matrix belongs to.
func (m *Matrix[T]) Context() (*Context, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	return m.context()
}

// SwitchContext moves the matrix into a different execution context
// (GrB_Context_switch, Fig. 2 of the paper). The matrix is completed first
// so no deferred work crosses contexts.
func (m *Matrix[T]) SwitchContext(ctx *Context) error {
	if err := m.check(); err != nil {
		return err
	}
	if ctx == nil {
		return errf(NullPointer, "SwitchContext: nil context")
	}
	if ctx.isFreed() {
		return errf(UninitializedObject, "SwitchContext: freed context")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.materializeLocked(); err != nil {
		return err
	}
	m.ctx = ctx
	return nil
}

// ViewInContext returns a new Matrix handle over this matrix's completed
// snapshot, owned by ctx. The receiver is completed first (§III), then the
// view aliases the immutable CSR snapshot — O(1), no copy. Because every
// mutation installs a fresh snapshot, later writes through either handle
// leave the other untouched (copy-on-write by construction), and derived
// views memoized on the snapshot (cached transpose, bitmap/dense view) are shared.
// Combined with hierarchical context resolution this is the multi-tenant
// serving primitive: one shared graph snapshot, one cheap view per query
// context, so a per-query deadline and memory budget govern the kernels
// without duplicating the graph or blocking other readers.
func (m *Matrix[T]) ViewInContext(ctx *Context) (*Matrix[T], error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	if ctx == nil {
		return nil, errf(NullPointer, "ViewInContext: nil context")
	}
	if ctx.isFreed() {
		return nil, errf(UninitializedObject, "ViewInContext: freed context")
	}
	if _, err := m.context(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.materializeLocked(); err != nil {
		return nil, err
	}
	return &Matrix[T]{init: true, ctx: ctx, csr: m.csr}, nil
}

// materializeLocked runs the deferred sequence (pending operations, then
// pending element updates) and returns the parked execution error, if any.
// Callers hold m.mu. When a sink is observing and there is work to drain,
// the drain runs under a sequence span whose id (m.seq) the step wrappers
// read, attributing each kernel event to this drain.
func (m *Matrix[T]) materializeLocked() error {
	var span obsv.Span
	if len(m.pending) > 0 || len(m.tuples) > 0 {
		span = obsv.SeqBegin("matrix")
		m.seq = span.ID()
		defer func() { m.seq = 0 }()
	}
	steps := 0
	for len(m.pending) > 0 {
		op := m.pending[0]
		m.pending = m.pending[1:]
		op(m)
		steps++
	}
	if len(m.tuples) > 0 {
		var ev *obsv.Event
		if obsv.Active() {
			ev = &obsv.Event{Op: "Matrix.setElement(merge)", Kind: "merge"}
			ev.A(m.csr.Rows, m.csr.Cols, m.csr.NNZ()).B(len(m.tuples), 1, len(m.tuples))
		}
		x := obsv.Begin(ev, m.seq)
		nc, err := runStep("setElement", func() (*sparse.CSR[T], error) {
			if err := sparse.MergeSite().Check(); err != nil {
				return nil, err
			}
			return sparse.MergeTuples(m.csr, m.tuples)
		})
		m.tuples = nil
		steps++
		if err != nil {
			x.End(0, err)
			m.parkLocked(err)
		} else {
			x.End(nc.NNZ(), nil)
			m.csr = nc
		}
	}
	span.End(steps)
	if m.derr != nil {
		return m.derr
	}
	return nil
}

// parkLocked records a deferred execution error on the object (§V): the
// first error of a sequence sticks and is reported by subsequent method
// calls or a materializing wait.
func (m *Matrix[T]) parkLocked(err error) {
	if m.derr == nil {
		if e, ok := err.(*Error); ok {
			m.derr = e
		} else {
			m.derr = errf(Panic, "%v", err)
		}
		m.errmsg = m.derr.Error()
	}
}

// snapshot completes the matrix and returns its immutable storage for use
// as an operation input. The returned CSR is never mutated: every deferred
// step and Wait installs a fresh storage object, so per-CSR caches (the
// memoized transpose, sparse.TransposeCached) stay coherent across
// mutate→Wait boundaries without any explicit invalidation — a stale cache
// can only live on a superseded snapshot, which readers that obtained it
// earlier may still use safely.
func (m *Matrix[T]) snapshot() (*sparse.CSR[T], error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.materializeLocked(); err != nil {
		return nil, err
	}
	return m.csr, nil
}

// enqueue appends a sequence step that computes a full replacement storage
// for the matrix. In blocking mode the step (and any previously deferred
// work) executes before returning; in nonblocking mode it is deferred. ev is
// the call-time half of the step's kernel event (nil when observation was
// off at call time); Begin/End bracket the compute so the event measures the
// kernel's actual execution inside the drain, not the enqueue.
func (m *Matrix[T]) enqueue(ctx *Context, ev *obsv.Event, compute func() (*sparse.CSR[T], error)) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.derr != nil {
		return m.derr
	}
	m.pending = append(m.pending, func(mm *Matrix[T]) {
		x := obsv.Begin(ev, mm.seq)
		// runStep isolates the kernel: a panic anywhere inside the step —
		// worker goroutines included — parks an execution error instead of
		// crashing the process (§V), leaving the object valid on its previous
		// storage.
		res, err := runStep("sequence step", compute)
		if err != nil {
			x.End(0, err)
			mm.parkLocked(err)
			return
		}
		x.End(res.NNZ(), nil)
		sparse.DebugCheckCSR(res, "Matrix sequence step")
		mm.csr = res
	})
	if ctx.Mode() == Blocking {
		return m.materializeLocked()
	}
	return nil
}

// WaitMode selects the strength of a Wait (GrB_WaitMode, §III & §V).
type WaitMode int

const (
	// Complete forces the object's sequence to finish computing and its
	// internal state to be safely shareable across goroutines
	// (GrB_COMPLETE). Execution errors from the sequence may still be
	// reported by later method calls rather than by this Wait.
	Complete WaitMode = 0
	// Materialize additionally guarantees that all execution errors from
	// the sequence have been reported: a successful materializing wait
	// means no more errors (or time) can come from prior methods
	// (GrB_MATERIALIZE).
	Materialize WaitMode = 1
)

// Wait forces the sequence that defines the matrix into the requested
// state (GrB_Matrix_wait). See WaitMode for the Complete/Materialize
// distinction the paper introduces.
func (m *Matrix[T]) Wait(mode WaitMode) error {
	if err := m.check(); err != nil {
		return err
	}
	if mode != Complete && mode != Materialize {
		return errf(InvalidValue, "Wait: invalid mode %d", int(mode))
	}
	if _, err := m.context(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	err := m.materializeLocked()
	if mode == Materialize {
		return err
	}
	return nil
}

// ErrorString returns the implementation-defined diagnostic string for the
// last error on this matrix (GrB_error, §V). It is safe to call from
// multiple goroutines under the §III conditions. An empty string means no
// further information is available.
func (m *Matrix[T]) ErrorString() string {
	if m == nil || !m.init {
		return ""
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.errmsg
}

// Free releases the matrix (GrB_free). The object behaves as uninitialized
// afterwards.
func (m *Matrix[T]) Free() error {
	if err := m.check(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.init = false
	m.csr = nil
	m.pending = nil
	m.tuples = nil
	m.derr = nil
	return nil
}

// Nrows returns the number of rows (GrB_Matrix_nrows).
func (m *Matrix[T]) Nrows() (Index, error) {
	if err := m.check(); err != nil {
		return 0, err
	}
	if _, err := m.context(); err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// A pending sequence may include a Resize; settle it so dimensions
	// reflect program order.
	if len(m.pending) > 0 {
		if err := m.materializeLocked(); err != nil {
			return 0, err
		}
	}
	return m.csr.Rows, nil
}

// Ncols returns the number of columns (GrB_Matrix_ncols).
func (m *Matrix[T]) Ncols() (Index, error) {
	if err := m.check(); err != nil {
		return 0, err
	}
	if _, err := m.context(); err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.pending) > 0 {
		if err := m.materializeLocked(); err != nil {
			return 0, err
		}
	}
	return m.csr.Cols, nil
}

// Nvals returns the number of stored entries (GrB_Matrix_nvals). This is a
// read: it completes the matrix first.
func (m *Matrix[T]) Nvals() (Index, error) {
	if err := m.check(); err != nil {
		return 0, err
	}
	if _, err := m.context(); err != nil {
		return 0, err
	}
	c, err := m.snapshot()
	if err != nil {
		return 0, err
	}
	return c.NNZ(), nil
}

// Clear removes all stored entries, resolving any parked error and
// abandoning the deferred sequence (GrB_Matrix_clear).
func (m *Matrix[T]) Clear() error {
	if err := m.check(); err != nil {
		return err
	}
	if _, err := m.context(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pending = nil
	m.tuples = nil
	m.derr = nil
	m.errmsg = ""
	m.csr = sparse.NewCSR[T](m.csr.Rows, m.csr.Cols)
	return nil
}

// Dup returns a deep copy of the matrix (GrB_Matrix_dup), in the same
// context.
func (m *Matrix[T]) Dup() (*Matrix[T], error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	ctx, err := m.context()
	if err != nil {
		return nil, err
	}
	c, err := m.snapshot()
	if err != nil {
		return nil, err
	}
	// Defensive shape guard: every public constructor validates its shape,
	// but Dup is where an object built through an internal path would first
	// hand an unrepresentable dense extent to a caller.
	if _, ok := sparse.CheckedMul(c.Rows, c.Cols); !ok {
		return nil, errf(OutOfMemory, "Dup: shape %dx%d overflows the index range", c.Rows, c.Cols)
	}
	return &Matrix[T]{init: true, ctx: ctx, csr: c}, nil // csr is immutable; share
}

// Resize changes the matrix dimensions (GrB_Matrix_resize). Entries outside
// the new shape are dropped.
func (m *Matrix[T]) Resize(nrows, ncols Index) error {
	if err := m.check(); err != nil {
		return err
	}
	ctx, err := m.context()
	if err != nil {
		return err
	}
	if nrows <= 0 || ncols <= 0 {
		return errf(InvalidValue, "Resize: dimensions must be positive")
	}
	// Reject shapes whose dense extent (or Ptr length, nrows+1) overflows
	// before the kernel allocates anything (ErrTooLarge semantics; the same
	// taxonomy maps it onto GrB_OUT_OF_MEMORY).
	if _, ok := sparse.CheckedMul(nrows, ncols); !ok || nrows > math.MaxInt-1 {
		return errf(OutOfMemory, "Resize: shape %dx%d overflows the index range", nrows, ncols)
	}
	old, err := m.snapshot()
	if err != nil {
		return err
	}
	var ev *obsv.Event
	if obsv.Active() {
		ev = (&obsv.Event{Op: "Matrix.Resize", Kind: "kernel"}).
			A(old.Rows, old.Cols, old.NNZ())
	}
	return m.enqueue(ctx, ev, func() (*sparse.CSR[T], error) {
		return old.Resize(nrows, ncols), nil
	})
}

// Build populates an empty matrix from coordinate lists (GrB_Matrix_build):
// entry (I[k], J[k]) receives X[k]. Duplicate coordinates are combined with
// dup; per GraphBLAS 2.0 §IX dup may be nil, in which case duplicates are
// reported as an execution error (InvalidValue in the C spec; here
// surfaced with code InvalidValue and deferred like any execution error in
// nonblocking mode).
func (m *Matrix[T]) Build(I, J []Index, X []T, dup BinaryOp[T, T, T]) error {
	if err := m.check(); err != nil {
		return err
	}
	ctx, err := m.context()
	if err != nil {
		return err
	}
	if len(I) != len(J) || len(I) != len(X) {
		return errf(InvalidValue, "Build: index and value slices must have equal length")
	}
	cur, err := m.snapshot()
	if err != nil {
		return err
	}
	if cur.NNZ() != 0 {
		return errf(OutputNotEmpty, "Build: matrix already contains entries")
	}
	rows, cols := cur.Rows, cur.Cols
	for k := range I {
		if I[k] < 0 || I[k] >= rows || J[k] < 0 || J[k] >= cols {
			return errf(InvalidIndex, "Build: coordinate (%d,%d) outside %dx%d", I[k], J[k], rows, cols)
		}
	}
	// The O(n) bucket pass runs now and is the defensive copy: it reads the
	// caller's slices for the last time, so the sequence may execute after
	// they change. The per-row sort and fold — where dup runs and a duplicate
	// becomes an execution error — is the deferred step.
	b, err := sparse.Bucket(rows, cols, I, J, X)
	if err != nil {
		return mapSparseErr(err, "Build")
	}
	var ev *obsv.Event
	if obsv.Active() {
		ev = (&obsv.Event{Op: "Matrix.Build", Kind: "kernel"}).
			A(rows, cols, len(I))
	}
	return m.enqueue(ctx, ev, func() (*sparse.CSR[T], error) {
		nc, err := b.Fold(dup)
		if err != nil {
			return nil, mapSparseErr(err, "Build")
		}
		return nc, nil
	})
}

// SetElement stores value v at (i, j), replacing any existing entry
// (GrB_Matrix_setElement). In nonblocking mode updates batch lazily.
func (m *Matrix[T]) SetElement(v T, i, j Index) error {
	if err := m.check(); err != nil {
		return err
	}
	ctx, err := m.context()
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.derr != nil {
		return m.derr
	}
	if len(m.pending) > 0 { // settle a possible pending Resize
		if err := m.materializeLocked(); err != nil {
			return err
		}
	}
	if i < 0 || i >= m.csr.Rows || j < 0 || j >= m.csr.Cols {
		return errf(InvalidIndex, "SetElement: (%d,%d) outside %dx%d", i, j, m.csr.Rows, m.csr.Cols)
	}
	m.tuples = append(m.tuples, sparse.Tuple[T]{Row: i, Col: j, Val: v})
	if ctx.Mode() == Blocking {
		return m.materializeLocked()
	}
	return nil
}

// SetElementScalar stores the value held by a GrB_Scalar at (i, j) — the
// Table II variant GrB_Matrix_setElement(GrB_Matrix, GrB_Scalar, ...). An
// empty scalar removes the element, mirroring SuiteSparse semantics for
// the Scalar variant.
func (m *Matrix[T]) SetElementScalar(s *Scalar[T], i, j Index) error {
	if err := m.check(); err != nil {
		return err
	}
	if s == nil {
		return errf(NullPointer, "SetElementScalar: nil scalar")
	}
	v, ok, err := s.ExtractElement()
	if err != nil {
		return err
	}
	if !ok {
		return m.RemoveElement(i, j)
	}
	return m.SetElement(v, i, j)
}

// RemoveElement deletes the entry at (i, j) if present
// (GrB_Matrix_removeElement).
func (m *Matrix[T]) RemoveElement(i, j Index) error {
	if err := m.check(); err != nil {
		return err
	}
	ctx, err := m.context()
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.derr != nil {
		return m.derr
	}
	if len(m.pending) > 0 {
		if err := m.materializeLocked(); err != nil {
			return err
		}
	}
	if i < 0 || i >= m.csr.Rows || j < 0 || j >= m.csr.Cols {
		return errf(InvalidIndex, "RemoveElement: (%d,%d) outside %dx%d", i, j, m.csr.Rows, m.csr.Cols)
	}
	m.tuples = append(m.tuples, sparse.Tuple[T]{Row: i, Col: j, Del: true})
	if ctx.Mode() == Blocking {
		return m.materializeLocked()
	}
	return nil
}

// ExtractElement reads the entry at (i, j) (GrB_Matrix_extractElement).
// ok is false when no entry is stored there — the GrB_NO_VALUE case; the
// paper's §VI explains why the Scalar variant (ExtractElementScalar) makes
// this more uniform.
func (m *Matrix[T]) ExtractElement(i, j Index) (val T, ok bool, err error) {
	var zero T
	if err := m.check(); err != nil {
		return zero, false, err
	}
	if _, err := m.context(); err != nil {
		return zero, false, err
	}
	c, err := m.snapshot()
	if err != nil {
		return zero, false, err
	}
	if i < 0 || i >= c.Rows || j < 0 || j >= c.Cols {
		return zero, false, errf(InvalidIndex, "ExtractElement: (%d,%d) outside %dx%d", i, j, c.Rows, c.Cols)
	}
	v, ok := c.Get(i, j)
	return v, ok, nil
}

// ExtractElementScalar extracts the (possibly missing) entry at (i, j) into
// a GrB_Scalar — the Table II variant. A missing entry yields an empty
// scalar rather than an error code, which is the uniformity §VI motivates.
func (m *Matrix[T]) ExtractElementScalar(s *Scalar[T], i, j Index) error {
	if s == nil {
		return errf(NullPointer, "ExtractElementScalar: nil scalar")
	}
	if err := s.check(); err != nil {
		return err
	}
	v, ok, err := m.ExtractElement(i, j)
	if err != nil {
		return err
	}
	if !ok {
		return s.Clear()
	}
	return s.SetElement(v)
}

// ExtractTuples returns the coordinates and values of all stored entries in
// row-major order (GrB_Matrix_extractTuples).
func (m *Matrix[T]) ExtractTuples() (I, J []Index, X []T, err error) {
	if err := m.check(); err != nil {
		return nil, nil, nil, err
	}
	if _, err := m.context(); err != nil {
		return nil, nil, nil, err
	}
	c, err := m.snapshot()
	if err != nil {
		return nil, nil, nil, err
	}
	I, J, X = c.Tuples(nil, nil, nil)
	return I, J, X, nil
}

// mapSparseErr translates substrate errors into GraphBLAS execution errors.
// It is the historical name for mapExecErr (harden.go), which now also
// covers the hardening sentinels (budget, cancellation, recovered panics).
func mapSparseErr(err error, op string) *Error { return mapExecErr(err, op) }
