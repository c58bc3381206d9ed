package grb

import "github.com/grblas/grb/internal/sparse"

// MatrixExtract computes C⟨M⟩ = C ⊙ A(rows, cols): the submatrix of A
// selected by the index lists (GrB_extract). nil index slices (grb.All)
// select all indices; lists may repeat and reorder indices. C must be
// len(rows) × len(cols).
func MatrixExtract[T any](c *Matrix[T], mask *Matrix[bool], accum BinaryOp[T, T, T],
	a *Matrix[T], rows, cols []Index, desc *Descriptor) error {
	f := newFrame("MatrixExtract", desc, true, maskRef{m: mask}, c, a)
	acsr, cOld := in(&f, a), old(&f, c)
	if err := f.ready(); err != nil {
		return err
	}
	t0 := f.d.Transpose0
	ar, ac := transposedDims(acsr, t0)
	ri, er, err := indexList(f.op, "row index", rows, ar)
	if err != nil {
		return err
	}
	cj, ec, err := indexList(f.op, "column index", cols, ac)
	if err != nil {
		return err
	}
	if cOld.Rows != er || cOld.Cols != ec {
		return errf(DimensionMismatch, "MatrixExtract: output is %dx%d but extraction is %dx%d", cOld.Rows, cOld.Cols, er, ec)
	}
	f.ev.A(acsr.Rows, acsr.Cols, acsr.NNZ()).B(er, ec, 0)
	return c.submit(&f, cOld, yieldsT, accum, func(e sparse.Exec) (*sparse.CSR[T], error) {
		A, err := maybeTranspose(acsr, t0, e)
		if err != nil {
			return nil, err
		}
		return sparse.ExtractM(A, ri, cj, e)
	})
}

// VectorExtract computes w⟨m⟩ = w ⊙ u(idx): the subvector of u selected by
// the index list (GrB_extract on vectors). w must have size len(idx); nil
// selects all of u.
func VectorExtract[T any](w *Vector[T], mask *Vector[bool], accum BinaryOp[T, T, T],
	u *Vector[T], idx []Index, desc *Descriptor) error {
	f := newFrame("VectorExtract", desc, true, maskRef{v: mask}, w, u)
	uvec, wOld := in(&f, u), in(&f, w)
	if err := f.ready(); err != nil {
		return err
	}
	ci, en, err := indexList(f.op, "index", idx, uvec.N)
	if err != nil {
		return err
	}
	if wOld.N != en {
		return errf(DimensionMismatch, "VectorExtract: output has size %d but extraction has size %d", wOld.N, en)
	}
	f.ev.A(uvec.N, 1, uvec.NNZ()).B(en, 1, 0)
	return w.submit(&f, wOld, yieldsT, accum, func(sparse.Exec) (*sparse.Vec[T], error) {
		return sparse.ExtractV(uvec, ci)
	})
}

// ColExtract computes w⟨m⟩ = w ⊙ A(rows, j): one column of A gathered
// through a row index list (GrB_Col_extract). With the Transpose0
// descriptor flag it extracts a row instead.
func ColExtract[T any](w *Vector[T], mask *Vector[bool], accum BinaryOp[T, T, T],
	a *Matrix[T], rows []Index, j Index, desc *Descriptor) error {
	f := newFrame("ColExtract", desc, true, maskRef{v: mask}, w, a)
	acsr, wOld := in(&f, a), in(&f, w)
	if err := f.ready(); err != nil {
		return err
	}
	t0 := f.d.Transpose0
	ar, ac := transposedDims(acsr, t0)
	if j < 0 || j >= ac {
		return errf(InvalidIndex, "ColExtract: column %d outside %d columns", j, ac)
	}
	ri, en, err := indexList(f.op, "row index", rows, ar)
	if err != nil {
		return err
	}
	if wOld.N != en {
		return errf(DimensionMismatch, "ColExtract: output has size %d but extraction has size %d", wOld.N, en)
	}
	f.ev.A(acsr.Rows, acsr.Cols, acsr.NNZ()).B(en, 1, 0)
	return w.submit(&f, wOld, yieldsT, accum, func(e sparse.Exec) (*sparse.Vec[T], error) {
		A, err := maybeTranspose(acsr, t0, e)
		if err != nil {
			return nil, err
		}
		return sparse.ExtractColV(A, ri, j)
	})
}
