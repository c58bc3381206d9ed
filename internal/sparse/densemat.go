package sparse

import "unsafe"

// DenseMat is the row-major block view of a matrix: Val has Rows*Cols slots
// with element (i,j) at i*Cols+j. Bit == nil marks the full variant (every
// position stored, Nnz == Rows*Cols); otherwise Bit mirrors Val's layout and
// absent slots are zero-valued padding with no semiring meaning.
type DenseMat[T any] struct {
	Rows, Cols int
	Val        []T
	Bit        []bool
	Nnz        int
}

// Full reports whether the view stores every position (no bitmap).
func (d *DenseMat[T]) Full() bool { return d.Bit == nil }

// DenseView returns the memoized block view, materializing it on first use.
// Convenience wrapper for tests and unbudgeted callers.
func (m *CSR[T]) DenseView() *DenseMat[T] {
	d, err := m.DenseViewEx(Exec{})
	if err != nil {
		panic(err)
	}
	return d
}

// DenseViewEx returns the memoized block view of m, materializing it on
// first use under a persistent budget charge (the view is cached, like the
// transpose). Returns ErrBudget when the charge does not fit and ErrTooLarge
// when Rows*Cols overflows, letting the caller keep the sparse route.
func (m *CSR[T]) DenseViewEx(e Exec) (*DenseMat[T], error) {
	if d := m.dm.Load(); d != nil {
		return d, nil
	}
	size, ok := CheckedMul(m.Rows, m.Cols)
	if !ok {
		return nil, ErrTooLarge
	}
	denseViewMu.Lock()
	defer denseViewMu.Unlock()
	if d := m.dm.Load(); d != nil {
		return d, nil
	}
	if err := siteFormatConvert.Check(); err != nil {
		return nil, err
	}
	var zero T
	full := m.NNZ() == size
	bytes := int64(size) * int64(unsafe.Sizeof(zero))
	if !full {
		bytes += int64(size)
	}
	if !e.Tx.ReservePersistent(bytes) {
		return nil, ErrBudget
	}
	d := &DenseMat[T]{Rows: m.Rows, Cols: m.Cols, Val: make([]T, size), Nnz: m.NNZ()}
	if !full {
		d.Bit = make([]bool, size)
	}
	for i := 0; i < m.Rows; i++ {
		ind, val := m.Row(i)
		base := i * m.Cols
		for k, j := range ind {
			d.Val[base+j] = val[k]
			if d.Bit != nil {
				d.Bit[base+j] = true
			}
		}
	}
	formatConversions.Add(1)
	scratchBytes.Add(bytes)
	DebugCheckDenseMat(d, "CSR.DenseView")
	m.dm.Store(d)
	return d, nil
}

// CSR converts the block view back to compressed-sparse-row form.
func (d *DenseMat[T]) CSR() *CSR[T] {
	out := &CSR[T]{Rows: d.Rows, Cols: d.Cols, Ptr: make([]int, d.Rows+1)}
	out.Ind = make([]int, 0, d.Nnz)
	out.Val = make([]T, 0, d.Nnz)
	for i := 0; i < d.Rows; i++ {
		base := i * d.Cols
		for j := 0; j < d.Cols; j++ {
			if d.Bit == nil || d.Bit[base+j] {
				out.Ind = append(out.Ind, j)
				out.Val = append(out.Val, d.Val[base+j])
			}
		}
		out.Ptr[i+1] = len(out.Ind)
	}
	DebugCheckCSR(out, "DenseMat.CSR")
	return out
}
