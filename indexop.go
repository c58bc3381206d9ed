package grb

// IndexUnaryOp is the GraphBLAS 2.0 index unary operator (§VIII-A of the
// paper): f(value, row, col, s) where s is a caller-supplied scalar threaded
// through apply and select. For vector operations col is always 0 — the C
// spec passes a one-element index array there; the Go binding fixes the
// arity and zeroes the unused index.
//
// Operators returning bool drive the select operation (§VIII-C); operators
// returning other domains drive the index variants of apply (§VIII-B).
type IndexUnaryOp[Din, Ds, Dout any] func(v Din, row, col Index, s Ds) Dout

// NewIndexUnaryOp wraps a user function as an index unary operator
// (GrB_IndexUnaryOp_new). In Go the function value itself already carries
// the domains, so this constructor only validates non-nilness; it exists to
// mirror the C API's constructor (§VIII-A).
func NewIndexUnaryOp[Din, Ds, Dout any](f func(v Din, row, col Index, s Ds) Dout) (IndexUnaryOp[Din, Ds, Dout], error) {
	if f == nil {
		return nil, errf(NullPointer, "NewIndexUnaryOp: nil function")
	}
	return IndexUnaryOp[Din, Ds, Dout](f), nil
}

// ---------------------------------------------------------------------------
// Predefined index unary operators — Table IV of the paper.
//
// "Replace" operators (for apply): RowIndex, ColIndex, DiagIndex.
// "Keep" operators (for select): TriL, TriU, Diag, Offdiag, RowLE, RowGT,
// ColLE, ColGT, and the Value* comparison family.
// ---------------------------------------------------------------------------

// RowIndex replaces each stored element with its row index plus s
// (GrB_ROWINDEX). Usable on vectors and matrices.
func RowIndex[D any](_ D, row, _ Index, s int) int { return row + s }

// ColIndex replaces each stored element with its column index plus s
// (GrB_COLINDEX). Matrices only — on vectors the column index is always 0.
func ColIndex[D any](_ D, _, col Index, s int) int { return col + s }

// DiagIndex replaces each stored element with its diagonal index (col - row)
// plus s (GrB_DIAGINDEX). Matrices only.
func DiagIndex[D any](_ D, row, col Index, s int) int { return col - row + s }

// TriL keeps elements on or below diagonal s: col - row <= s (GrB_TRIL).
// The difference is bounded by the dimensions, where row + s could wrap.
func TriL[D any](_ D, row, col Index, s int) bool { return col-row <= s }

// TriU keeps elements on or above diagonal s: col - row >= s (GrB_TRIU).
func TriU[D any](_ D, row, col Index, s int) bool { return col-row >= s }

// Diag keeps elements exactly on diagonal s (GrB_DIAG).
func Diag[D any](_ D, row, col Index, s int) bool { return col-row == s }

// Offdiag keeps elements off diagonal s (GrB_OFFDIAG).
func Offdiag[D any](_ D, row, col Index, s int) bool { return col-row != s }

// RowLE keeps elements in rows <= s (GrB_ROWLE).
func RowLE[D any](_ D, row, _ Index, s int) bool { return row <= s }

// RowGT keeps elements in rows > s (GrB_ROWGT).
func RowGT[D any](_ D, row, _ Index, s int) bool { return row > s }

// ColLE keeps elements in columns <= s (GrB_COLLE). Matrices only.
func ColLE[D any](_ D, _, col Index, s int) bool { return col <= s }

// ColGT keeps elements in columns > s (GrB_COLGT). Matrices only.
func ColGT[D any](_ D, _, col Index, s int) bool { return col > s }

// ValueEQ keeps elements whose stored value equals s (GrB_VALUEEQ).
func ValueEQ[D comparable](v D, _, _ Index, s D) bool { return v == s }

// ValueNE keeps elements whose stored value differs from s (GrB_VALUENE).
func ValueNE[D comparable](v D, _, _ Index, s D) bool { return v != s }

// ValueLT keeps elements with value < s (GrB_VALUELT).
func ValueLT[D Ordered](v D, _, _ Index, s D) bool { return v < s }

// ValueLE keeps elements with value <= s (GrB_VALUELE).
func ValueLE[D Ordered](v D, _, _ Index, s D) bool { return v <= s }

// ValueGT keeps elements with value > s (GrB_VALUEGT).
func ValueGT[D Ordered](v D, _, _ Index, s D) bool { return v > s }

// ValueGE keeps elements with value >= s (GrB_VALUEGE).
func ValueGE[D Ordered](v D, _, _ Index, s D) bool { return v >= s }
