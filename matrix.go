package grb

import (
	"math"

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
// §III (see Wait and Example_figure1).
type Matrix[T any] struct {
	sequence[T, *sparse.CSR[T], sparse.Tuple[T], matrixKind[T]]
}

// newMatrix wraps completed storage in a live handle owned by ctx (nil = the
// top-level context).
func newMatrix[T any](ctx *Context, csr *sparse.CSR[T]) *Matrix[T] {
	m := &Matrix[T]{}
	m.init, m.ctx, m.cur = true, ctx, csr
	return m
}

// matrixKind is the matrix side of the sequence's kind interface.
type matrixKind[T any] struct{}

func (matrixKind[T]) spanName() string { return "matrix" }
func (matrixKind[T]) mergeOp() string  { return "Matrix.setElement(merge)" }

func (matrixKind[T]) shape(c *sparse.CSR[T]) (rows, cols int) { return c.Rows, c.Cols }

func (matrixKind[T]) inBounds(op string, c *sparse.CSR[T], t sparse.Tuple[T]) error {
	if t.Row < 0 || t.Row >= c.Rows || t.Col < 0 || t.Col >= c.Cols {
		return errf(InvalidIndex, "%s: (%d,%d) outside %dx%d", op, t.Row, t.Col, c.Rows, c.Cols)
	}
	return nil
}

func (k matrixKind[T]) mergeTuples(c *sparse.CSR[T], tuples []sparse.Tuple[T]) (*sparse.CSR[T], error) {
	return sparse.MergeTuples(k.settle(c), tuples)
}

func (matrixKind[T]) debugCheck(c *sparse.CSR[T]) { sparse.DebugCheckCSR(c, "Matrix sequence step") }

func (matrixKind[T]) maskFits(mk maskSnap, c *sparse.CSR[T]) error {
	if mk.M != nil && (mk.M.Rows != c.Rows || mk.M.Cols != c.Cols) {
		return errf(DimensionMismatch, "mask is %dx%d but output is %dx%d", mk.M.Rows, mk.M.Cols, c.Rows, c.Cols)
	}
	return nil
}

func (k matrixKind[T]) accumMerge(old, t *sparse.CSR[T], accum func(T, T) T, e sparse.Exec) *sparse.CSR[T] {
	if accum == nil {
		return t
	}
	return sparse.AccumMergeM(k.settle(old), t, accum, e)
}

func (k matrixKind[T]) maskApply(old, z *sparse.CSR[T], mk maskSnap, replace bool, e sparse.Exec) *sparse.CSR[T] {
	if (mk.M != nil || mk.Complement) && !replace { // it keeps what the mask rejects
		old = k.settle(old)
	}
	return sparse.MaskApplyM(old, z, mk.matrix(), replace, e)
}

// settle builds the rows of the empty matrix NewMatrix leaves unbuilt —
// Ptr nil, which no other CSR has — for a reader that indexes them. An
// output that is only written never builds them.
func (matrixKind[T]) settle(c *sparse.CSR[T]) *sparse.CSR[T] {
	if c != nil && c.Ptr == nil {
		return sparse.NewCSR[T](c.Rows, c.Cols)
	}
	return c
}

// A matrix never lends: its kernels always allocate their output.
func (matrixKind[T]) holds(*sparse.CSR[T]) *sparse.Holds { return nil }
func (matrixKind[T]) superseded(old, res *sparse.CSR[T]) {}

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
	return newMatrix(ctx, &sparse.CSR[T]{Rows: nrows, Cols: ncols}), nil // rows unbuilt until read (settle)
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
	return m.switchContext(ctx)
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
	return newMatrix(ctx, m.cur), nil
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
	return m.wait(mode)
}

// ErrorString returns the implementation-defined diagnostic string for the
// last error on this matrix (GrB_error, §V). It is safe to call from
// multiple goroutines under the §III conditions. An empty string means no
// further information is available.
func (m *Matrix[T]) ErrorString() string {
	if m == nil || !m.init {
		return ""
	}
	return m.errorString()
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
	m.resetLocked(nil)
	return nil
}

// Nrows returns the number of rows (GrB_Matrix_nrows).
func (m *Matrix[T]) Nrows() (Index, error) {
	if err := m.check(); err != nil {
		return 0, err
	}
	rows, _, err := m.dims()
	return rows, err
}

// Ncols returns the number of columns (GrB_Matrix_ncols).
func (m *Matrix[T]) Ncols() (Index, error) {
	if err := m.check(); err != nil {
		return 0, err
	}
	_, cols, err := m.dims()
	return cols, err
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
	m.resetLocked(&sparse.CSR[T]{Rows: m.cur.Rows, Cols: m.cur.Cols}) // unbuilt, as NewMatrix leaves it
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
	return newMatrix(ctx, c), nil // storage is immutable; share
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
	return m.push(ctx.Mode(), opNode[T, *sparse.CSR[T]]{op: "Matrix.Resize", yields: yieldsC,
		ev: evKernel("Matrix.Resize").A(old.Rows, old.Cols, old.NNZ()),
		kernel: func(sparse.Exec) (*sparse.CSR[T], error) {
			return old.Resize(nrows, ncols), nil
		}})
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
	cur, _, err := m.lendOld() // its shape and count; a matrix holds no count
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
		return mapExecErr(err, "Build")
	}
	return m.push(ctx.Mode(), opNode[T, *sparse.CSR[T]]{op: "Matrix.Build", yields: yieldsC,
		ev: evKernel("Matrix.Build").A(rows, cols, len(I)),
		kernel: func(sparse.Exec) (*sparse.CSR[T], error) {
			return b.Fold(dup)
		}})
}

// SetElement stores value v at (i, j), replacing any existing entry
// (GrB_Matrix_setElement). In nonblocking mode updates batch lazily.
func (m *Matrix[T]) SetElement(v T, i, j Index) error {
	if err := m.check(); err != nil {
		return err
	}
	return m.update("SetElement", sparse.Tuple[T]{Row: i, Col: j, Val: v})
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
	return m.update("RemoveElement", sparse.Tuple[T]{Row: i, Col: j, Del: true})
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
