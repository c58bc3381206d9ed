package grb

import (
	"github.com/grblas/grb/internal/obsv"
	"github.com/grblas/grb/internal/sparse"
)

// MatrixReduceToVector computes w⟨m⟩ = w ⊙ [⊕_j A(:,j)]: each row of A
// reduced with the monoid (GrB_Matrix_reduce to a vector). With the
// Transpose0 descriptor flag columns are reduced instead: the rows of the
// cached Aᵀ, which hold each column's entries in row order, so a column
// folds in row order at any thread count. Rows with no entries produce no
// output entry.
func MatrixReduceToVector[T any](w *Vector[T], mask *Vector[bool], accum BinaryOp[T, T, T],
	monoid Monoid[T], a *Matrix[T], desc *Descriptor) error {
	f := newFrame("MatrixReduceToVector", desc, monoid.Op != nil, maskRef{v: mask}, w, a)
	acsr, wOld := in(&f, a), in(&f, w)
	if err := f.ready(); err != nil {
		return err
	}
	byCols, route := f.d.Transpose0, "rows"
	if byCols {
		route = "cols"
	}
	if _, n := transposedDims(acsr, !byCols); wOld.N != n {
		return errf(DimensionMismatch, "MatrixReduceToVector: output has size %d but reduction has size %d", wOld.N, n)
	}
	f.ev.A(acsr.Rows, acsr.Cols, acsr.NNZ()).WithFlops(int64(acsr.NNZ())).WithRoute(route)
	// The closure captures the two fields it reads, not the whole Monoid,
	// which would move it up an allocation size class.
	op, mon := monoid.Op, monoid.mon
	return w.submit(&f, wOld, yieldsT, accum, func(e sparse.Exec) (*sparse.Vec[T], error) {
		rows, err := maybeTranspose(acsr, byCols, e)
		if err != nil {
			return nil, err
		}
		return sparse.ReduceRows(mon, rows, op, e), nil
	})
}

// MatrixReduceToScalar reduces all stored entries of A into a GrB_Scalar —
// one of the new Table II scalar-output variants. An empty matrix yields an
// empty scalar (with a nil accumulator), rather than the monoid identity
// the 1.X typed variants return; §VI of the paper highlights exactly this
// uniformity gain. With an accumulator, s = s ⊙ t when both sides have
// values; an empty reduction leaves s unchanged.
func MatrixReduceToScalar[T any](s *Scalar[T], accum BinaryOp[T, T, T],
	monoid Monoid[T], a *Matrix[T], desc *Descriptor) error {
	if monoid.Op == nil {
		return errf(NullPointer, "MatrixReduceToScalar: nil monoid")
	}
	return matrixReduceScalarCommon("MatrixReduceToScalar", s, accum, monoid, a)
}

// MatrixReduceToScalarBinaryOp is the Table II variant
// GrB_reduce(GrB_Scalar, accum, GrB_BinaryOp, GrB_Matrix, desc): GraphBLAS
// 2.0 newly permits reduction with a plain associative binary operator
// instead of a monoid, possible precisely because an empty result is now
// representable (no identity value is needed).
func MatrixReduceToScalarBinaryOp[T any](s *Scalar[T], accum BinaryOp[T, T, T],
	op BinaryOp[T, T, T], a *Matrix[T], desc *Descriptor) error {
	if op == nil {
		return errf(NullPointer, "MatrixReduceToScalarBinaryOp: nil operator")
	}
	return matrixReduceScalarCommon("MatrixReduceToScalarBinaryOp", s, accum, Monoid[T]{Op: op}, a)
}

func matrixReduceScalarCommon[T any](opName string, s *Scalar[T], accum BinaryOp[T, T, T],
	m Monoid[T], a *Matrix[T]) error {
	if s == nil {
		return errf(NullPointer, "%s: nil output scalar", opName)
	}
	if err := s.check(); err != nil {
		return err
	}
	if err := a.check(); err != nil {
		return err
	}
	ctx, err := sameContext(s.ctx, a.ctx)
	if err != nil {
		return err
	}
	t, tok, err := matrixReduceNow(opName, ctx, m, a)
	if err != nil {
		return err
	}
	return installScalarReduce(s, accum, t, tok)
}

// matrixReduceNow reduces a's completed state with m, in ctx. The Monoid of
// a binary-operator variant is untagged, and only its Op is read.
func matrixReduceNow[T any](opName string, ctx *Context, m Monoid[T], a *Matrix[T]) (T, bool, error) {
	acsr, err := a.snapshot()
	if err != nil {
		var zero T
		return zero, false, err
	}
	ev := evKernel(opName).A(acsr.Rows, acsr.Cols, acsr.NNZ()).WithFlops(int64(acsr.NNZ()))
	e := ctx.fork()
	e.Route = new(sparse.Route) // the kernel reports the workers it ran
	return reduceNow(opName, ev, func() (T, bool) {
		defer func() { ev.WithThreads(max(1, e.Route.Workers)) }()
		return sparse.ReduceAll(m.mon, acsr, m.Op, e)
	})
}

// vectorReduceNow reduces u's completed state with m, as matrixReduceNow.
func vectorReduceNow[T any](opName string, m Monoid[T], u *Vector[T]) (T, bool, error) {
	uvec, h, err := u.lend()
	if err != nil {
		var zero T
		return zero, false, err
	}
	defer h.Release()
	ev := evKernel(opName).WithThreads(1).A(uvec.N, 1, uvec.NNZ()).WithFlops(int64(uvec.NNZ()))
	return reduceNow(opName, ev, func() (T, bool) { return sparse.ReduceVec(m.mon, uvec, m.Op) })
}

// reduceNow runs a reduction to one value. Its result — a Scalar or a Go
// value — has no sequence to defer on, so it executes at the call: the op
// event brackets the kernel here (seq 0), and runStep isolates a panicking
// user operator the same way the sequence-step guard does, but the error is
// returned directly instead of parked.
func reduceNow[T any](opName string, ev *obsv.Event, kernel func() (T, bool)) (T, bool, error) {
	x := obsv.Begin(ev, 0)
	r, err := runStep(opName, func() (reduceResult[T], error) {
		t, ok := kernel()
		return reduceResult[T]{t, ok}, nil
	})
	out := 0
	if r.ok {
		out = 1
	}
	x.End(out, err)
	return r.val, r.ok, err
}

// reduceResult bundles a reduction's value and presence bit through the
// single-result runStep guard.
type reduceResult[T any] struct {
	val T
	ok  bool
}

// VectorReduceToScalar reduces all stored entries of u into a GrB_Scalar
// (Table II). An empty vector yields an empty scalar.
func VectorReduceToScalar[T any](s *Scalar[T], accum BinaryOp[T, T, T],
	monoid Monoid[T], u *Vector[T], desc *Descriptor) error {
	if monoid.Op == nil {
		return errf(NullPointer, "VectorReduceToScalar: nil monoid")
	}
	return vectorReduceScalarCommon("VectorReduceToScalar", s, accum, monoid, u)
}

// VectorReduceToScalarBinaryOp is the Table II binary-operator variant of
// vector reduce.
func VectorReduceToScalarBinaryOp[T any](s *Scalar[T], accum BinaryOp[T, T, T],
	op BinaryOp[T, T, T], u *Vector[T], desc *Descriptor) error {
	if op == nil {
		return errf(NullPointer, "VectorReduceToScalarBinaryOp: nil operator")
	}
	return vectorReduceScalarCommon("VectorReduceToScalarBinaryOp", s, accum, Monoid[T]{Op: op}, u)
}

func vectorReduceScalarCommon[T any](opName string, s *Scalar[T], accum BinaryOp[T, T, T],
	m Monoid[T], u *Vector[T]) error {
	if s == nil {
		return errf(NullPointer, "%s: nil output scalar", opName)
	}
	if err := s.check(); err != nil {
		return err
	}
	if err := u.check(); err != nil {
		return err
	}
	if _, err := sameContext(s.ctx, u.ctx); err != nil {
		return err
	}
	t, tok, err := vectorReduceNow(opName, m, u)
	if err != nil {
		return err
	}
	return installScalarReduce(s, accum, t, tok)
}

// installScalarReduce merges a reduction result into the output scalar under
// the accumulator rules: no accum → s mirrors the (possibly empty) result;
// accum → combine when both sides are present.
func installScalarReduce[T any](s *Scalar[T], accum BinaryOp[T, T, T], t T, tok bool) error {
	if accum == nil {
		if !tok {
			return s.Clear()
		}
		return s.SetElement(t)
	}
	if !tok {
		return nil // empty reduction: s unchanged
	}
	old, ok, err := s.ExtractElement()
	if err != nil {
		return err
	}
	if !ok {
		return s.SetElement(t)
	}
	return s.SetElement(accum(old, t))
}

// MatrixReduce is the GraphBLAS 1.X-style typed reduction of a matrix: it
// returns the monoid identity when the matrix is empty. It exists alongside
// MatrixReduceToScalar so the 1.X/2.0 behavioural difference that §VI
// discusses can be observed directly.
func MatrixReduce[T any](monoid Monoid[T], a *Matrix[T]) (T, error) {
	var zero T
	if monoid.Op == nil {
		return zero, errf(NullPointer, "MatrixReduce: nil monoid")
	}
	if err := a.check(); err != nil {
		return zero, err
	}
	ctx, err := a.context()
	if err != nil {
		return zero, err
	}
	t, ok, err := matrixReduceNow("MatrixReduce", ctx, monoid, a)
	if err != nil {
		return zero, err
	}
	if !ok {
		return monoid.Identity, nil
	}
	return t, nil
}

// VectorReduce is the 1.X-style typed reduction of a vector, returning the
// monoid identity when empty.
func VectorReduce[T any](monoid Monoid[T], u *Vector[T]) (T, error) {
	var zero T
	if monoid.Op == nil {
		return zero, errf(NullPointer, "VectorReduce: nil monoid")
	}
	if err := u.check(); err != nil {
		return zero, err
	}
	if _, err := u.context(); err != nil {
		return zero, err
	}
	t, ok, err := vectorReduceNow("VectorReduce", monoid, u)
	if err != nil {
		return zero, err
	}
	if !ok {
		return monoid.Identity, nil
	}
	return t, nil
}
