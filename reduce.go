package grb

import (
	"github.com/grblas/grb/internal/obsv"
	"github.com/grblas/grb/internal/sparse"
)

// MatrixReduceToVector computes w⟨m⟩ = w ⊙ [⊕_j A(:,j)]: each row of A
// reduced with the monoid (GrB_Matrix_reduce to a vector). With the
// Transpose0 descriptor flag columns are reduced instead. Rows with no
// entries produce no output entry.
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
	f.work(acsr.NNZ())
	f.ev.A(acsr.Rows, acsr.Cols, acsr.NNZ()).WithFlops(int64(acsr.NNZ())).WithRoute(route)
	return w.submit(&f, wOld, yieldsT, accum, func(e sparse.Exec) (*sparse.Vec[T], error) {
		if byCols {
			return sparse.ReduceCols(acsr, monoid.Op, e.Threads), nil
		}
		return sparse.ReduceRows(acsr, monoid.Op, e.Threads), nil
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
	return matrixReduceScalarCommon("MatrixReduceToScalar", s, accum, monoid.Op, a)
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
	return matrixReduceScalarCommon("MatrixReduceToScalarBinaryOp", s, accum, op, a)
}

func matrixReduceScalarCommon[T any](opName string, s *Scalar[T], accum BinaryOp[T, T, T],
	op BinaryOp[T, T, T], a *Matrix[T]) error {
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
	acsr, err := a.snapshot()
	if err != nil {
		return err
	}
	threads := ctx.threadsFor(acsr.NNZ())
	// Scalar reductions execute immediately (the scalar output has no
	// deferred sequence), so the event brackets the kernel here, seq 0.
	var ev *obsv.Event
	if obsv.Active() {
		ev = evKernel(opName).WithThreads(threads).
			A(acsr.Rows, acsr.Cols, acsr.NNZ()).WithFlops(int64(acsr.NNZ()))
	}
	x := obsv.Begin(ev, 0)
	// Immediate-mode kernel: runStep isolates a panicking user operator the
	// same way the sequence-step guard does, but the error is returned
	// directly (a scalar has no sequence to park it on).
	r, err := runStep(opName, func() (reduceResult[T], error) {
		t, tok := sparse.ReduceAll(acsr, op, threads)
		return reduceResult[T]{t, tok}, nil
	})
	out := 0
	if r.ok {
		out = 1
	}
	x.End(out, err)
	if err != nil {
		return err
	}
	return installScalarReduce(s, accum, r.val, r.ok)
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
	return vectorReduceScalarCommon("VectorReduceToScalar", s, accum, monoid.Op, u)
}

// VectorReduceToScalarBinaryOp is the Table II binary-operator variant of
// vector reduce.
func VectorReduceToScalarBinaryOp[T any](s *Scalar[T], accum BinaryOp[T, T, T],
	op BinaryOp[T, T, T], u *Vector[T], desc *Descriptor) error {
	if op == nil {
		return errf(NullPointer, "VectorReduceToScalarBinaryOp: nil operator")
	}
	return vectorReduceScalarCommon("VectorReduceToScalarBinaryOp", s, accum, op, u)
}

func vectorReduceScalarCommon[T any](opName string, s *Scalar[T], accum BinaryOp[T, T, T],
	op BinaryOp[T, T, T], u *Vector[T]) error {
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
	uvec, err := u.snapshot()
	if err != nil {
		return err
	}
	var ev *obsv.Event
	if obsv.Active() {
		ev = evKernel(opName).A(uvec.N, 1, uvec.NNZ()).WithFlops(int64(uvec.NNZ()))
	}
	x := obsv.Begin(ev, 0)
	r, err := runStep(opName, func() (reduceResult[T], error) {
		t, tok := sparse.ReduceVec(uvec, op)
		return reduceResult[T]{t, tok}, nil
	})
	out := 0
	if r.ok {
		out = 1
	}
	x.End(out, err)
	if err != nil {
		return err
	}
	return installScalarReduce(s, accum, r.val, r.ok)
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
	acsr, err := a.snapshot()
	if err != nil {
		return zero, err
	}
	r, err := runStep("MatrixReduce", func() (reduceResult[T], error) {
		t, ok := sparse.ReduceAll(acsr, monoid.Op, ctx.threadsFor(acsr.NNZ()))
		return reduceResult[T]{t, ok}, nil
	})
	if err != nil {
		return zero, err
	}
	if !r.ok {
		return monoid.Identity, nil
	}
	return r.val, nil
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
	uvec, err := u.snapshot()
	if err != nil {
		return zero, err
	}
	r, err := runStep("VectorReduce", func() (reduceResult[T], error) {
		t, ok := sparse.ReduceVec(uvec, monoid.Op)
		return reduceResult[T]{t, ok}, nil
	})
	if err != nil {
		return zero, err
	}
	if !r.ok {
		return monoid.Identity, nil
	}
	return r.val, nil
}
