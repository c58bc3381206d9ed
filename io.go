package grb

import "github.com/grblas/grb/internal/sparse"

// Format enumerates the non-opaque data formats of the GraphBLAS 2.0
// import/export API (§VII-A, Table III of the paper). Per §IX, enumeration
// members have pinned values so programs link identically against any
// conforming implementation.
type Format int

const (
	// FormatCSR is compressed sparse row: indptr has nrows+1 entries,
	// indices holds column indices (not required to be sorted within a
	// row), values holds the entries.
	FormatCSR Format = 0
	// FormatCSC is compressed sparse column: indptr has ncols+1 entries,
	// indices holds row indices.
	FormatCSC Format = 1
	// FormatCOO is coordinate format: per Table III, indptr holds each
	// element's COLUMN index, indices holds each element's ROW index, and
	// values the entries; no ordering is required.
	FormatCOO Format = 2
	// FormatDenseRow is dense row-major: values has nrows*ncols entries
	// with element (i,j) at i*ncols+j; indptr and indices are unused.
	FormatDenseRow Format = 3
	// FormatDenseCol is dense column-major: element (i,j) at i+j*nrows.
	FormatDenseCol Format = 4
	// FormatSparseVector stores entry k's index in indices[k] and value in
	// values[k].
	FormatSparseVector Format = 5
	// FormatDenseVector stores element i at values[i]; indices unused.
	FormatDenseVector Format = 6
	// FormatBitmapVector is the bitmap block format (extension, mirroring
	// the internal bitmap storage): values[i] is element i and indices[i]
	// != 0 marks position i as present; both arrays have size entries.
	FormatBitmapVector Format = 7
	// FormatBitmapMatrix is the row-major bitmap block format (extension):
	// values has nrows*ncols entries with element (i,j) at i*ncols+j, and
	// indices, same layout, marks present positions with nonzero flags;
	// indptr is unused.
	FormatBitmapMatrix Format = 8
)

// String returns the spec name of the format.
func (f Format) String() string {
	switch f {
	case FormatCSR:
		return "GrB_CSR_MATRIX"
	case FormatCSC:
		return "GrB_CSC_MATRIX"
	case FormatCOO:
		return "GrB_COO_MATRIX"
	case FormatDenseRow:
		return "GrB_DENSE_ROW_MATRIX"
	case FormatDenseCol:
		return "GrB_DENSE_COL_MATRIX"
	case FormatSparseVector:
		return "GrB_SPARSE_VECTOR"
	case FormatDenseVector:
		return "GrB_DENSE_VECTOR"
	case FormatBitmapVector:
		return "GxB_BITMAP_VECTOR"
	case FormatBitmapMatrix:
		return "GxB_BITMAP_MATRIX"
	}
	return "GrB_Format(?)"
}

func matrixFormat(f Format) bool {
	return (f >= FormatCSR && f <= FormatDenseCol) || f == FormatBitmapMatrix
}

func vectorFormat(f Format) bool {
	return f == FormatSparseVector || f == FormatDenseVector || f == FormatBitmapVector
}

// MatrixImport constructs a new GraphBLAS matrix from external data in one
// of the Table III formats (GrB_Matrix_import). The arrays are copied; the
// caller retains ownership. Duplicate coordinates are invalid. For the
// dense formats indptr and indices may be nil.
func MatrixImport[T any](nrows, ncols Index, indptr, indices []Index, values []T,
	format Format, opts ...ObjOption) (*Matrix[T], error) {
	var cfg objConfig
	for _, o := range opts {
		o(&cfg)
	}
	ctx, err := resolveCtx(cfg.ctx)
	if err != nil {
		return nil, err
	}
	if nrows <= 0 || ncols <= 0 {
		return nil, errf(InvalidValue, "MatrixImport: dimensions must be positive")
	}
	if !matrixFormat(format) {
		return nil, errf(InvalidValue, "MatrixImport: %v is not a matrix format", format)
	}
	var csr *sparse.CSR[T]
	switch format {
	case FormatCSR, FormatCSC:
		byRow := format == FormatCSR
		major, minor := nrows, ncols
		if !byRow {
			major, minor = ncols, nrows
		}
		if len(indptr) != major+1 {
			return nil, errf(InvalidValue, "MatrixImport(%v): indptr must have %d entries, got %d", format, major+1, len(indptr))
		}
		nnz := indptr[major]
		if indptr[0] != 0 || nnz < 0 || len(indices) != nnz || len(values) != nnz {
			return nil, errf(InvalidValue, "MatrixImport(%v): inconsistent indptr/indices/values lengths", format)
		}
		// Validate the whole offset array before any of it is used to slice:
		// nondecreasing with the endpoints pinned to 0 and nnz bounds every
		// group to [0, nnz]. Checking lazily inside the copy loop would slice
		// with an unvalidated upper bound first (indptr = [0, 5, 3] passes
		// the p=0 comparison yet overruns a 3-entry indices array).
		for p := 0; p < major; p++ {
			if indptr[p] > indptr[p+1] {
				return nil, errf(InvalidValue, "MatrixImport(%v): indptr must be nondecreasing", format)
			}
		}
		// Copy the compressed arrays directly; the data is already grouped
		// by major dimension, so only per-group sorting is needed (Table III
		// allows unsorted entries within a row/column).
		t := &sparse.CSR[T]{Rows: major, Cols: minor,
			Ptr: append([]int(nil), indptr...),
			Ind: append([]int(nil), indices...),
			Val: append([]T(nil), values...)}
		for p := 0; p < major; p++ {
			lo, hi := indptr[p], indptr[p+1]
			sparse.SortRow(t.Ind[lo:hi], t.Val[lo:hi])
			for k := lo; k < hi; k++ {
				if t.Ind[k] < 0 || t.Ind[k] >= minor {
					return nil, errf(InvalidIndex, "MatrixImport(%v): index %d out of range %d", format, t.Ind[k], minor)
				}
				if k > lo && t.Ind[k] == t.Ind[k-1] {
					return nil, errf(InvalidValue, "MatrixImport(%v): duplicate coordinates", format)
				}
			}
		}
		if byRow {
			csr = t
		} else {
			// The CSC arrays are exactly the CSR arrays of the transpose.
			csr = sparse.Transpose(t)
		}
	case FormatCOO:
		// Table III: indptr holds column indices, indices holds row indices.
		if len(indptr) != len(values) || len(indices) != len(values) {
			return nil, errf(InvalidValue, "MatrixImport(COO): arrays must have equal length")
		}
		for k := range values {
			if indices[k] < 0 || indices[k] >= nrows || indptr[k] < 0 || indptr[k] >= ncols {
				return nil, errf(InvalidIndex, "MatrixImport(COO): coordinate (%d,%d) outside %dx%d", indices[k], indptr[k], nrows, ncols)
			}
		}
		csr, err = sparse.BuildCSR(nrows, ncols, indices, indptr, values, nil)
		if err != nil {
			return nil, errf(InvalidValue, "MatrixImport(COO): %v", err)
		}
	case FormatDenseRow, FormatDenseCol:
		ne, ok := sparse.CheckedMul(nrows, ncols)
		if !ok {
			return nil, errf(OutOfMemory, "MatrixImport(%v): dense size %dx%d overflows the index range", format, nrows, ncols)
		}
		if len(values) != ne {
			return nil, errf(InvalidValue, "MatrixImport(%v): values must have %d entries, got %d", format, ne, len(values))
		}
		csr = &sparse.CSR[T]{Rows: nrows, Cols: ncols,
			Ptr: make([]int, nrows+1),
			Ind: make([]int, 0, len(values)),
			Val: make([]T, 0, len(values))}
		for i := 0; i < nrows; i++ {
			for j := 0; j < ncols; j++ {
				var v T
				if format == FormatDenseRow {
					v = values[i*ncols+j]
				} else {
					v = values[i+j*nrows]
				}
				csr.Ind = append(csr.Ind, j)
				csr.Val = append(csr.Val, v)
			}
			csr.Ptr[i+1] = len(csr.Ind)
		}
	case FormatBitmapMatrix:
		ne, ok := sparse.CheckedMul(nrows, ncols)
		if !ok {
			return nil, errf(OutOfMemory, "MatrixImport(%v): bitmap size %dx%d overflows the index range", format, nrows, ncols)
		}
		if len(values) != ne || len(indices) != ne {
			return nil, errf(InvalidValue, "MatrixImport(%v): indices and values must have %d entries, got %d/%d",
				format, ne, len(indices), len(values))
		}
		nvals := 0 // counted first, so Ind and Val are allocated once at their size
		for _, b := range indices {
			if b != 0 {
				nvals++
			}
		}
		csr = &sparse.CSR[T]{Rows: nrows, Cols: ncols, Ptr: make([]int, nrows+1),
			Ind: make([]int, 0, nvals), Val: make([]T, 0, nvals)}
		for i := 0; i < nrows; i++ {
			for j := 0; j < ncols; j++ {
				if indices[i*ncols+j] != 0 {
					csr.Ind = append(csr.Ind, j)
					csr.Val = append(csr.Val, values[i*ncols+j])
				}
			}
			csr.Ptr[i+1] = len(csr.Ind)
		}
	default:
		// Unreachable behind the matrixFormat guard; kept so the switch
		// stays exhaustive as Format grows (§IX pins the enum values).
		return nil, errf(NotImplemented, "MatrixImport: unsupported format %v", format)
	}
	return newMatrix(ctx, csr), nil
}

// MatrixExportSize reports the array lengths a subsequent MatrixExportInto
// needs for the given format (GrB_Matrix_exportSize). The caller allocates
// the arrays however it likes — custom allocator, memory-mapped file — which
// is the reason the API splits sizing from exporting (§VII-A).
func (m *Matrix[T]) MatrixExportSize(format Format) (nindptr, nindices, nvalues Index, err error) {
	if err := m.check(); err != nil {
		return 0, 0, 0, err
	}
	if _, err := m.context(); err != nil {
		return 0, 0, 0, err
	}
	if !matrixFormat(format) {
		return 0, 0, 0, errf(InvalidValue, "MatrixExportSize: %v is not a matrix format", format)
	}
	c, err := m.snapshot()
	if err != nil {
		return 0, 0, 0, err
	}
	switch format {
	case FormatCSR:
		return c.Rows + 1, c.NNZ(), c.NNZ(), nil
	case FormatCSC:
		return c.Cols + 1, c.NNZ(), c.NNZ(), nil
	case FormatCOO:
		return c.NNZ(), c.NNZ(), c.NNZ(), nil
	case FormatBitmapMatrix:
		ne, ok := sparse.CheckedMul(c.Rows, c.Cols)
		if !ok {
			return 0, 0, 0, errf(OutOfMemory, "MatrixExportSize(%v): bitmap size %dx%d overflows the index range", format, c.Rows, c.Cols)
		}
		return 0, ne, ne, nil
	default: // dense
		ne, ok := sparse.CheckedMul(c.Rows, c.Cols)
		if !ok {
			return 0, 0, 0, errf(OutOfMemory, "MatrixExportSize(%v): dense size %dx%d overflows the index range", format, c.Rows, c.Cols)
		}
		return 0, 0, ne, nil
	}
}

// MatrixExportInto exports the matrix into caller-allocated arrays in the
// requested format (GrB_Matrix_export). Arrays must have at least the
// lengths reported by MatrixExportSize; InsufficientSpace is returned
// otherwise. Dense formats fill absent positions with the zero value of T.
func (m *Matrix[T]) MatrixExportInto(format Format, indptr, indices []Index, values []T) error {
	np, ni, nv, err := m.MatrixExportSize(format)
	if err != nil {
		return err
	}
	if len(indptr) < np || len(indices) < ni || len(values) < nv {
		return errf(InsufficientSpace, "MatrixExportInto(%v): need %d/%d/%d, got %d/%d/%d",
			format, np, ni, nv, len(indptr), len(indices), len(values))
	}
	c, err := m.snapshot()
	if err != nil {
		return err
	}
	switch format {
	case FormatCSR:
		copy(indptr, c.Ptr)
		copy(indices, c.Ind)
		copy(values, c.Val)
	case FormatCSC:
		t := sparse.TransposeCached(c) // CSR of the transpose is CSC of the matrix
		copy(indptr, t.Ptr)
		copy(indices, t.Ind)
		copy(values, t.Val)
	case FormatCOO:
		k := 0
		for i := 0; i < c.Rows; i++ {
			ind, val := c.Row(i)
			for p := range ind {
				indices[k] = i     // row index
				indptr[k] = ind[p] // column index, per Table III
				values[k] = val[p]
				k++
			}
		}
	case FormatDenseRow, FormatDenseCol:
		var zero T
		for k := range values[:nv] {
			values[k] = zero
		}
		for i := 0; i < c.Rows; i++ {
			ind, val := c.Row(i)
			for p := range ind {
				if format == FormatDenseRow {
					values[i*c.Cols+ind[p]] = val[p]
				} else {
					values[i+ind[p]*c.Rows] = val[p]
				}
			}
		}
	case FormatBitmapMatrix:
		var zero T
		for k := range values[:nv] {
			values[k] = zero
		}
		for k := range indices[:ni] {
			indices[k] = 0
		}
		for i := 0; i < c.Rows; i++ {
			ind, val := c.Row(i)
			for p := range ind {
				values[i*c.Cols+ind[p]] = val[p]
				indices[i*c.Cols+ind[p]] = 1
			}
		}
	default:
		// Unreachable behind the matrixFormat guard; kept so the switch
		// stays exhaustive as Format grows (§IX pins the enum values).
		return errf(NotImplemented, "MatrixExportInto: unsupported format %v", format)
	}
	return nil
}

// MatrixExport allocates and returns the export arrays (convenience wrapper
// over MatrixExportSize + MatrixExportInto).
func (m *Matrix[T]) MatrixExport(format Format) (indptr, indices []Index, values []T, err error) {
	np, ni, nv, err := m.MatrixExportSize(format)
	if err != nil {
		return nil, nil, nil, err
	}
	indptr = make([]Index, np)
	indices = make([]Index, ni)
	values = make([]T, nv)
	if err := m.MatrixExportInto(format, indptr, indices, values); err != nil {
		return nil, nil, nil, err
	}
	return indptr, indices, values, nil
}

// MatrixExportHint reports the format the implementation can export most
// efficiently (GrB_Matrix_exportHint). This implementation stores matrices
// in CSR, so the hint is always FormatCSR; callers remain free to choose any
// format (§VII-A).
func (m *Matrix[T]) MatrixExportHint() (Format, error) {
	if err := m.check(); err != nil {
		return 0, err
	}
	if _, err := m.context(); err != nil {
		return 0, err
	}
	return FormatCSR, nil
}

// VectorImport constructs a new GraphBLAS vector from external data
// (GrB_Vector_import). For FormatSparseVector, indices[k] and values[k]
// describe entry k (duplicates invalid); for FormatDenseVector, values[i]
// is element i and indices may be nil.
func VectorImport[T any](size Index, indices []Index, values []T,
	format Format, opts ...ObjOption) (*Vector[T], error) {
	var cfg objConfig
	for _, o := range opts {
		o(&cfg)
	}
	ctx, err := resolveCtx(cfg.ctx)
	if err != nil {
		return nil, err
	}
	if size <= 0 {
		return nil, errf(InvalidValue, "VectorImport: size must be positive")
	}
	if !vectorFormat(format) {
		return nil, errf(InvalidValue, "VectorImport: %v is not a vector format", format)
	}
	var vec *sparse.Vec[T]
	switch format {
	case FormatSparseVector:
		if len(indices) != len(values) {
			return nil, errf(InvalidValue, "VectorImport(sparse): indices and values lengths differ")
		}
		vec, err = sparse.BuildVec(size, indices, values, nil)
		if err != nil {
			return nil, errf(InvalidValue, "VectorImport(sparse): %v", err)
		}
	case FormatDenseVector:
		if len(values) != size {
			return nil, errf(InvalidValue, "VectorImport(dense): values must have %d entries, got %d", size, len(values))
		}
		vec = &sparse.Vec[T]{N: size, Val: append([]T(nil), values...)} // the full form
	case FormatBitmapVector:
		if len(values) != size || len(indices) != size {
			return nil, errf(InvalidValue, "VectorImport(bitmap): indices and values must have %d entries, got %d/%d",
				size, len(indices), len(values))
		}
		vec = &sparse.Vec[T]{N: size}
		for i := 0; i < size; i++ {
			if indices[i] != 0 {
				vec.Ind = append(vec.Ind, i)
				vec.Val = append(vec.Val, values[i])
			}
		}
	default:
		// Unreachable behind the vectorFormat guard; kept so the switch
		// stays exhaustive as Format grows (§IX pins the enum values).
		return nil, errf(NotImplemented, "VectorImport: unsupported format %v", format)
	}
	vec.Claim(nil) // storage of its own, which a later step may write in place
	return newVector(ctx, vec), nil
}

// VectorExportSize reports the array lengths VectorExportInto needs
// (GrB_Vector_exportSize).
func (v *Vector[T]) VectorExportSize(format Format) (nindices, nvalues Index, err error) {
	if err := v.check(); err != nil {
		return 0, 0, err
	}
	if _, err := v.context(); err != nil {
		return 0, 0, err
	}
	if !vectorFormat(format) {
		return 0, 0, errf(InvalidValue, "VectorExportSize: %v is not a vector format", format)
	}
	s, h, err := v.lend()
	if err != nil {
		return 0, 0, err
	}
	defer h.Release()
	switch format {
	case FormatSparseVector:
		return s.NNZ(), s.NNZ(), nil
	case FormatBitmapVector:
		return s.N, s.N, nil
	default: // dense
		return 0, s.N, nil
	}
}

// VectorExportInto exports into caller-allocated arrays (GrB_Vector_export).
func (v *Vector[T]) VectorExportInto(format Format, indices []Index, values []T) error {
	ni, nv, err := v.VectorExportSize(format)
	if err != nil {
		return err
	}
	if len(indices) < ni || len(values) < nv {
		return errf(InsufficientSpace, "VectorExportInto(%v): need %d/%d, got %d/%d",
			format, ni, nv, len(indices), len(values))
	}
	s, h, err := v.lend() // in its own form: a full vector's sorted view would pin it
	if err != nil {
		return err
	}
	defer h.Release()
	if format == FormatSparseVector {
		s.VecTuples(indices[:0], values[:0])
		return nil
	}
	var zero T
	for i := range values[:nv] {
		values[i] = zero
	}
	if format == FormatBitmapVector {
		for i := range indices[:ni] {
			indices[i] = 0
		}
	}
	s.Each(func(i int, x T) bool {
		values[i] = x
		if format == FormatBitmapVector {
			indices[i] = 1
		}
		return true
	})
	return nil
}

// VectorExport allocates and returns the export arrays.
func (v *Vector[T]) VectorExport(format Format) (indices []Index, values []T, err error) {
	ni, nv, err := v.VectorExportSize(format)
	if err != nil {
		return nil, nil, err
	}
	indices = make([]Index, ni)
	values = make([]T, nv)
	if err := v.VectorExportInto(format, indices, values); err != nil {
		return nil, nil, err
	}
	return indices, values, nil
}

// VectorExportHint reports the most efficient export format
// (GrB_Vector_exportHint); always FormatSparseVector here.
func (v *Vector[T]) VectorExportHint() (Format, error) {
	if err := v.check(); err != nil {
		return 0, err
	}
	if _, err := v.context(); err != nil {
		return 0, err
	}
	return FormatSparseVector, nil
}
