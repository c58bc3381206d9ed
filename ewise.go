package grb

import "github.com/grblas/grb/internal/sparse"

// EWiseAddMatrix computes C⟨M⟩ = C ⊙ (A ⊕ B): the element-wise "addition"
// whose result pattern is the union of A's and B's patterns (GrB_eWiseAdd).
// Entries present in only one input pass through unchanged, which is why the
// Go binding requires a single domain T for all operands (the C spec
// typecasts pass-through values).
func EWiseAddMatrix[T any](c *Matrix[T], mask *Matrix[bool], accum BinaryOp[T, T, T],
	op BinaryOp[T, T, T], a, b *Matrix[T], desc *Descriptor) error {
	return eWiseMatrix("EWiseAddMatrix", c, mask, accum, op != nil, a, b, desc,
		func(A, B *sparse.CSR[T], e sparse.Exec) *sparse.CSR[T] { return sparse.EWiseAddM(A, B, op, e) })
}

// EWiseMultMatrix computes C⟨M⟩ = C ⊙ (A ⊗ B): the element-wise
// "multiplication" whose result pattern is the intersection of A's and B's
// patterns (GrB_eWiseMult). Since every output value flows through op, the
// three domains may differ.
func EWiseMultMatrix[DC, DA, DB any](c *Matrix[DC], mask *Matrix[bool], accum BinaryOp[DC, DC, DC],
	op BinaryOp[DA, DB, DC], a *Matrix[DA], b *Matrix[DB], desc *Descriptor) error {
	return eWiseMatrix("EWiseMultMatrix", c, mask, accum, op != nil, a, b, desc,
		func(A *sparse.CSR[DA], B *sparse.CSR[DB], e sparse.Exec) *sparse.CSR[DC] {
			return sparse.EWiseMultM(A, B, op, e)
		})
}

// eWiseMatrix is what the two element-wise matrix operations share: both
// inputs, as the descriptor transposes them, have the output's shape, and
// the work is one pass over both.
func eWiseMatrix[DC, DA, DB any](op string, c *Matrix[DC], mask *Matrix[bool], accum BinaryOp[DC, DC, DC],
	opOK bool, a *Matrix[DA], b *Matrix[DB], desc *Descriptor,
	kernel func(A *sparse.CSR[DA], B *sparse.CSR[DB], e sparse.Exec) *sparse.CSR[DC]) error {
	f := newFrame(op, desc, opOK, maskRef{m: mask}, c, a, b)
	acsr, bcsr, cOld := in(&f, a), in(&f, b), old(&f, c)
	if err := f.ready(); err != nil {
		return err
	}
	d := f.d
	ar, ac := transposedDims(acsr, d.Transpose0)
	br, bc := transposedDims(bcsr, d.Transpose1)
	if ar != br || ac != bc || cOld.Rows != ar || cOld.Cols != ac {
		return errf(DimensionMismatch, "%s: shapes %dx%d, %dx%d, %dx%d incompatible",
			op, cOld.Rows, cOld.Cols, ar, ac, br, bc)
	}
	f.ev.A(acsr.Rows, acsr.Cols, acsr.NNZ()).B(bcsr.Rows, bcsr.Cols, bcsr.NNZ()).
		WithFlops(int64(acsr.NNZ() + bcsr.NNZ()))
	return c.submit(&f, cOld, yieldsT, accum, func(e sparse.Exec) (*sparse.CSR[DC], error) {
		A, err := maybeTranspose(acsr, d.Transpose0, e)
		if err != nil {
			return nil, err
		}
		B, err := maybeTranspose(bcsr, d.Transpose1, e)
		if err != nil {
			return nil, err
		}
		return kernel(A, B, e), nil
	})
}

// EWiseAddVector computes w⟨m⟩ = w ⊙ (u ⊕ v) with union pattern
// (GrB_eWiseAdd on vectors).
func EWiseAddVector[T any](w *Vector[T], mask *Vector[bool], accum BinaryOp[T, T, T],
	op BinaryOp[T, T, T], u, v *Vector[T], desc *Descriptor) error {
	return eWiseVector("EWiseAddVector", w, mask, accum, op != nil, u, v, desc,
		func(u, v *sparse.Vec[T], e sparse.Exec) *sparse.Vec[T] {
			return sparse.EWiseAddV(binOf(op), u, v, op, e)
		})
}

// EWiseMultVector computes w⟨m⟩ = w ⊙ (u ⊗ v) with intersection pattern
// (GrB_eWiseMult on vectors).
func EWiseMultVector[DC, DA, DB any](w *Vector[DC], mask *Vector[bool], accum BinaryOp[DC, DC, DC],
	op BinaryOp[DA, DB, DC], u *Vector[DA], v *Vector[DB], desc *Descriptor) error {
	return eWiseVector("EWiseMultVector", w, mask, accum, op != nil, u, v, desc,
		func(u *sparse.Vec[DA], v *sparse.Vec[DB], e sparse.Exec) *sparse.Vec[DC] {
			return sparse.EWiseMultV(binOf(op), u, v, op, e)
		})
}

// eWiseVector is the vector analogue of eWiseMatrix.
func eWiseVector[DC, DA, DB any](op string, w *Vector[DC], mask *Vector[bool], accum BinaryOp[DC, DC, DC],
	opOK bool, u *Vector[DA], v *Vector[DB], desc *Descriptor,
	kernel func(*sparse.Vec[DA], *sparse.Vec[DB], sparse.Exec) *sparse.Vec[DC]) error {
	f := newFrame(op, desc, opOK, maskRef{v: mask}, w, u, v)
	uvec, vvec, wOld := in(&f, u), in(&f, v), in(&f, w)
	if err := f.ready(); err != nil {
		return err
	}
	if uvec.N != vvec.N || wOld.N != uvec.N {
		return errf(DimensionMismatch, "%s: sizes %d, %d, %d incompatible", op, wOld.N, uvec.N, vvec.N)
	}
	f.ev.A(uvec.N, 1, uvec.NNZ()).B(vvec.N, 1, vvec.NNZ()).WithFlops(int64(uvec.NNZ() + vvec.NNZ()))
	f.local = true
	return w.submit(&f, wOld, yieldsT, accum, func(e sparse.Exec) (*sparse.Vec[DC], error) {
		return kernel(uvec, vvec, e), nil
	})
}
