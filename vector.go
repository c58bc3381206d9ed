package grb

import "github.com/grblas/grb/internal/sparse"

// Vector is the opaque GraphBLAS vector object (GrB_Vector), a
// one-dimensional sparse array over domain T. Like Matrix it belongs to an
// execution context and obeys the sequence/completion model of §III in
// nonblocking mode.
type Vector[T any] struct {
	sequence[T, *sparse.Vec[T], sparse.VTuple[T], vectorKind[T]]
}

// newVector wraps completed storage in a live handle owned by ctx.
func newVector[T any](ctx *Context, vec *sparse.Vec[T]) *Vector[T] {
	v := &Vector[T]{}
	v.init, v.ctx, v.cur = true, ctx, vec
	return v
}

// vectorKind is the vector side of the sequence's kind interface; a vector
// is n×1 wherever a shape is asked for.
type vectorKind[T any] struct{}

func (vectorKind[T]) spanName() string { return "vector" }
func (vectorKind[T]) mergeOp() string  { return "Vector.setElement(merge)" }

func (vectorKind[T]) shape(v *sparse.Vec[T]) (rows, cols int) { return v.N, 1 }

func (vectorKind[T]) inBounds(op string, v *sparse.Vec[T], t sparse.VTuple[T]) error {
	if t.Idx < 0 || t.Idx >= v.N {
		return errf(InvalidIndex, "%s: index %d outside size %d", op, t.Idx, v.N)
	}
	return nil
}

func (vectorKind[T]) mergeTuples(v *sparse.Vec[T], tuples []sparse.VTuple[T]) (*sparse.Vec[T], error) {
	return sparse.MergeVTuples(v, tuples)
}

func (vectorKind[T]) debugCheck(v *sparse.Vec[T]) { sparse.DebugCheckVec(v, "Vector sequence step") }

func (vectorKind[T]) maskFits(mk maskSnap, v *sparse.Vec[T]) error {
	return checkMaskDimsV(mk.V, v.N)
}

func (vectorKind[T]) accumMerge(old, t *sparse.Vec[T], accum func(T, T) T, _ sparse.Exec) *sparse.Vec[T] {
	return sparse.AccumMergeV(old, t, accum)
}

func (vectorKind[T]) maskApply(old, z *sparse.Vec[T], mk maskSnap, replace bool, _ sparse.Exec) *sparse.Vec[T] {
	return sparse.MaskApplyV(old, z, mk.vector(), replace)
}

func (vectorKind[T]) holds(v *sparse.Vec[T]) *sparse.Holds {
	if v == nil {
		return nil
	}
	return &v.Holds
}

func (vectorKind[T]) superseded(old, res *sparse.Vec[T])     { sparse.Superseded(old, res) }
func (vectorKind[T]) settle(v *sparse.Vec[T]) *sparse.Vec[T] { return v }

// NewVector creates an empty vector of the given size over domain T
// (GrB_Vector_new).
func NewVector[T any](size Index, opts ...ObjOption) (*Vector[T], error) {
	var cfg objConfig
	for _, o := range opts {
		o(&cfg)
	}
	ctx, err := resolveCtx(cfg.ctx)
	if err != nil {
		return nil, err
	}
	if size <= 0 {
		return nil, errf(InvalidValue, "NewVector: size must be positive (got %d)", size)
	}
	return newVector(ctx, sparse.NewVec[T](size)), nil
}

func (v *Vector[T]) check() error {
	if v == nil {
		return errf(NullPointer, "nil Vector")
	}
	if !v.init {
		return errf(UninitializedObject, "Vector not initialized (use NewVector)")
	}
	return nil
}

// Context returns the execution context the vector belongs to.
func (v *Vector[T]) Context() (*Context, error) {
	if err := v.check(); err != nil {
		return nil, err
	}
	return v.context()
}

// SwitchContext moves the vector into a different execution context
// (GrB_Context_switch).
func (v *Vector[T]) SwitchContext(ctx *Context) error {
	if err := v.check(); err != nil {
		return err
	}
	return v.switchContext(ctx)
}

// Wait forces the sequence that defines the vector into the requested state
// (GrB_Vector_wait); see WaitMode.
func (v *Vector[T]) Wait(mode WaitMode) error {
	if err := v.check(); err != nil {
		return err
	}
	return v.wait(mode)
}

// ErrorString returns the diagnostic string for the last error (GrB_error).
func (v *Vector[T]) ErrorString() string {
	if v == nil || !v.init {
		return ""
	}
	return v.errorString()
}

// Free releases the vector (GrB_free).
func (v *Vector[T]) Free() error {
	if err := v.check(); err != nil {
		return err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.init = false
	v.resetLocked(nil)
	return nil
}

// Size returns the vector's dimension (GrB_Vector_size).
func (v *Vector[T]) Size() (Index, error) {
	if err := v.check(); err != nil {
		return 0, err
	}
	n, _, err := v.dims()
	return n, err
}

// Nvals returns the number of stored entries (GrB_Vector_nvals).
func (v *Vector[T]) Nvals() (Index, error) {
	if err := v.check(); err != nil {
		return 0, err
	}
	if _, err := v.context(); err != nil {
		return 0, err
	}
	s, h, err := v.lend()
	if err != nil {
		return 0, err
	}
	defer h.Release()
	return s.NNZ(), nil
}

// Clear removes all stored entries, abandoning any deferred sequence and
// parked error (GrB_Vector_clear).
func (v *Vector[T]) Clear() error {
	if err := v.check(); err != nil {
		return err
	}
	if _, err := v.context(); err != nil {
		return err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.resetLocked(sparse.NewVec[T](v.cur.N))
	return nil
}

// Dup returns a deep copy (GrB_Vector_dup).
func (v *Vector[T]) Dup() (*Vector[T], error) {
	if err := v.check(); err != nil {
		return nil, err
	}
	ctx, err := v.context()
	if err != nil {
		return nil, err
	}
	s, err := v.snapshot()
	if err != nil {
		return nil, err
	}
	return newVector(ctx, s), nil
}

// Resize changes the vector's size (GrB_Vector_resize).
func (v *Vector[T]) Resize(size Index) error {
	if err := v.check(); err != nil {
		return err
	}
	ctx, err := v.context()
	if err != nil {
		return err
	}
	if size <= 0 {
		return errf(InvalidValue, "Resize: size must be positive")
	}
	old, err := v.snapshot()
	if err != nil {
		return err
	}
	return v.push(ctx.Mode(), opNode[T, *sparse.Vec[T]]{op: "Vector.Resize", yields: yieldsC,
		ev: evKernel("Vector.Resize").A(old.N, 1, old.NNZ()),
		kernel: func(sparse.Exec) (*sparse.Vec[T], error) {
			return old.Resize(size), nil
		}})
}

// Build populates an empty vector from coordinate lists (GrB_Vector_build).
// A nil dup makes duplicate indices an execution error (§IX).
func (v *Vector[T]) Build(I []Index, X []T, dup BinaryOp[T, T, T]) error {
	if err := v.check(); err != nil {
		return err
	}
	ctx, err := v.context()
	if err != nil {
		return err
	}
	if len(I) != len(X) {
		return errf(InvalidValue, "Build: index and value slices must have equal length")
	}
	cur, err := v.snapshot()
	if err != nil {
		return err
	}
	if cur.NNZ() != 0 {
		return errf(OutputNotEmpty, "Build: vector already contains entries")
	}
	n := cur.N
	for _, i := range I {
		if i < 0 || i >= n {
			return errf(InvalidIndex, "Build: index %d outside size %d", i, n)
		}
	}
	ci := append([]Index(nil), I...)
	cx := append([]T(nil), X...)
	return v.push(ctx.Mode(), opNode[T, *sparse.Vec[T]]{op: "Vector.Build", yields: yieldsC,
		ev: evKernel("Vector.Build").A(n, 1, len(ci)),
		kernel: func(sparse.Exec) (*sparse.Vec[T], error) {
			return sparse.BuildVec(n, ci, cx, dup)
		}})
}

// SetElement stores value x at index i (GrB_Vector_setElement).
func (v *Vector[T]) SetElement(x T, i Index) error {
	if err := v.check(); err != nil {
		return err
	}
	return v.update("SetElement", sparse.VTuple[T]{Idx: i, Val: x})
}

// SetElementScalar stores the value held by a GrB_Scalar at index i — the
// Table II variant. An empty scalar removes the element.
func (v *Vector[T]) SetElementScalar(s *Scalar[T], i Index) error {
	if err := v.check(); err != nil {
		return err
	}
	if s == nil {
		return errf(NullPointer, "SetElementScalar: nil scalar")
	}
	x, ok, err := s.ExtractElement()
	if err != nil {
		return err
	}
	if !ok {
		return v.RemoveElement(i)
	}
	return v.SetElement(x, i)
}

// RemoveElement deletes the entry at index i if present
// (GrB_Vector_removeElement).
func (v *Vector[T]) RemoveElement(i Index) error {
	if err := v.check(); err != nil {
		return err
	}
	return v.update("RemoveElement", sparse.VTuple[T]{Idx: i, Del: true})
}

// ExtractElement reads the entry at index i (GrB_Vector_extractElement);
// ok is false for a missing entry (GrB_NO_VALUE).
func (v *Vector[T]) ExtractElement(i Index) (val T, ok bool, err error) {
	var zero T
	if err := v.check(); err != nil {
		return zero, false, err
	}
	if _, err := v.context(); err != nil {
		return zero, false, err
	}
	s, h, err := v.lend()
	if err != nil {
		return zero, false, err
	}
	defer h.Release()
	if i < 0 || i >= s.N {
		return zero, false, errf(InvalidIndex, "ExtractElement: index %d outside size %d", i, s.N)
	}
	x, ok := s.Get(i)
	return x, ok, nil
}

// ExtractElementScalar extracts the (possibly missing) entry at index i
// into a GrB_Scalar — the Table II variant; a missing entry yields an empty
// scalar (§VI).
func (v *Vector[T]) ExtractElementScalar(s *Scalar[T], i Index) error {
	if s == nil {
		return errf(NullPointer, "ExtractElementScalar: nil scalar")
	}
	if err := s.check(); err != nil {
		return err
	}
	x, ok, err := v.ExtractElement(i)
	if err != nil {
		return err
	}
	if !ok {
		return s.Clear()
	}
	return s.SetElement(x)
}

// lendSorted is lend for a synchronous reader of sorted coordinates: a
// bitmap is read through its sorted view (sparse.Vec.Sorted).
func (v *Vector[T]) lendSorted() (*sparse.Vec[T], *sparse.Holds, error) {
	s, h, err := v.lend()
	if err == nil {
		s = s.Sorted()
	}
	return s, h, err
}

// ExtractTuples returns the indices and values of all stored entries in
// ascending index order (GrB_Vector_extractTuples).
func (v *Vector[T]) ExtractTuples() (I []Index, X []T, err error) {
	if err := v.check(); err != nil {
		return nil, nil, err
	}
	if _, err := v.context(); err != nil {
		return nil, nil, err
	}
	s, h, err := v.lend()
	if err != nil {
		return nil, nil, err
	}
	defer h.Release()
	I, X = s.VecTuples(nil, nil)
	return I, X, nil
}
