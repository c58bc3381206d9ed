package grb

import "github.com/grblas/grb/internal/sparse"

// Transpose computes C⟨M⟩ = C ⊙ Aᵀ (GrB_transpose). Combining with the
// Transpose0 descriptor flag yields a (possibly masked/accumulated) plain
// copy of A. Aᵀ is cached on A's snapshot and charged as a Transpose0 input's
// (Descriptor.Transpose0).
func Transpose[T any](c *Matrix[T], mask *Matrix[bool], accum BinaryOp[T, T, T],
	a *Matrix[T], desc *Descriptor) error {
	f := newFrame("Transpose", desc, true, maskRef{m: mask}, c, a)
	acsr, cOld := in(&f, a), old(&f, c)
	if err := f.ready(); err != nil {
		return err
	}
	// Result shape: Aᵀ, un-transposed again if Transpose0 is set.
	t0 := f.d.Transpose0
	if ar, ac := transposedDims(acsr, !t0); cOld.Rows != ar || cOld.Cols != ac {
		return errf(DimensionMismatch, "Transpose: output is %dx%d but result is %dx%d", cOld.Rows, cOld.Cols, ar, ac)
	}
	// Route "transpose" with a zero transpose_materializations delta at End
	// means the cached view served the call (cache hit).
	f.ev.WithRoute("transpose").A(acsr.Rows, acsr.Cols, acsr.NNZ()).WithFlops(int64(acsr.NNZ()))
	return c.submit(&f, cOld, yieldsT, accum, func(e sparse.Exec) (*sparse.CSR[T], error) {
		// The transpose of a transpose is the input itself.
		return maybeTranspose(acsr, !t0, e)
	})
}

// Kronecker computes C⟨M⟩ = C ⊙ kron(A, B) with the given multiplicative
// operator (GrB_kronecker): C(i·br+k, j·bc+l) = op(A(i,j), B(k,l)).
func Kronecker[DC, DA, DB any](c *Matrix[DC], mask *Matrix[bool], accum BinaryOp[DC, DC, DC],
	op BinaryOp[DA, DB, DC], a *Matrix[DA], b *Matrix[DB], desc *Descriptor) error {
	f := newFrame("Kronecker", desc, op != nil, maskRef{m: mask}, c, a, b)
	acsr, bcsr, cOld := in(&f, a), in(&f, b), old(&f, c)
	if err := f.ready(); err != nil {
		return err
	}
	d := f.d
	ar, ac := transposedDims(acsr, d.Transpose0)
	br, bc := transposedDims(bcsr, d.Transpose1)
	pr, okR := checkedMulIndex(ar, br)
	pc, okC := checkedMulIndex(ac, bc)
	if !okR || !okC {
		return errf(OutOfMemory, "Kronecker: product shape %d*%d x %d*%d overflows", ar, br, ac, bc)
	}
	if cOld.Rows != pr || cOld.Cols != pc {
		return errf(DimensionMismatch, "Kronecker: output is %dx%d but product is %dx%d",
			cOld.Rows, cOld.Cols, pr, pc)
	}
	f.ev.A(acsr.Rows, acsr.Cols, acsr.NNZ()).B(bcsr.Rows, bcsr.Cols, bcsr.NNZ()).
		WithFlops(int64(acsr.NNZ()) * int64(bcsr.NNZ()))
	return c.submit(&f, cOld, yieldsT, accum, func(e sparse.Exec) (*sparse.CSR[DC], error) {
		A, err := maybeTranspose(acsr, d.Transpose0, e)
		if err != nil {
			return nil, err
		}
		B, err := maybeTranspose(bcsr, d.Transpose1, e)
		if err != nil {
			return nil, err
		}
		return sparse.Kron(A, B, op, e)
	})
}

// checkedMulIndex returns x*y and whether the (nonnegative) product fits in
// an int — Kronecker shapes multiply, so huge operands can wrap around.
func checkedMulIndex(x, y int) (int, bool) {
	if x == 0 || y == 0 {
		return 0, true
	}
	p := x * y
	if p/y != x || p < 0 {
		return 0, false
	}
	return p, true
}

// MatrixDiag builds the square matrix whose k-th diagonal holds the entries
// of v (GrB_Matrix_diag): v(i) lands at (i, i+k) for k ≥ 0, (i-k, i) for
// k < 0. The result is (n+|k|) × (n+|k|) and lives in v's context.
func MatrixDiag[T any](v *Vector[T], k Index, opts ...ObjOption) (*Matrix[T], error) {
	if err := v.check(); err != nil {
		return nil, err
	}
	var cfg objConfig
	for _, o := range opts {
		o(&cfg)
	}
	ctxPtr := cfg.ctx
	if ctxPtr == nil {
		ctxPtr = v.ctx
	}
	if _, err := resolveCtx(ctxPtr); err != nil {
		return nil, err
	}
	uvec, err := v.snapshot()
	if err != nil {
		return nil, err
	}
	return newMatrix(ctxPtr, sparse.Diag(uvec, k)), nil
}
