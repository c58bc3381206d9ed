//go:build grbcheck

// Runtime invariant validation for the snapshot substrate, compiled in with
// `-tags grbcheck` (see DESIGN.md, "Static analysis & invariants"). Every
// CSR/Vec install point calls DebugCheckCSR/DebugCheckVec; under the tag the
// checks panic with the violated invariant and the installing operation, so
// a kernel that publishes a malformed snapshot fails at the install, not at
// the next read. Without the tag the calls compile to no-ops.
package sparse

import "fmt"

// DebugChecks reports whether the grbcheck validators are compiled in.
const DebugChecks = true

// DebugCheckCSR validates the full CSR snapshot contract: header dims
// non-negative, row pointers monotone and anchored (Ptr[0] == 0,
// Ptr[Rows] == nnz), parallel storage (len(Ind) == len(Val)), and each row's
// column indices sorted, unique and in [0, Cols).
func DebugCheckCSR[T any](m *CSR[T], origin string) {
	if m == nil {
		return
	}
	if m.Rows < 0 || m.Cols < 0 {
		checkFail(origin, "negative dimensions %dx%d", m.Rows, m.Cols)
	}
	if len(m.Ptr) != m.Rows+1 {
		checkFail(origin, "len(Ptr) = %d, want Rows+1 = %d", len(m.Ptr), m.Rows+1)
	}
	if m.Ptr[0] != 0 {
		checkFail(origin, "Ptr[0] = %d, want 0", m.Ptr[0])
	}
	if len(m.Ind) != len(m.Val) {
		checkFail(origin, "len(Ind) = %d but len(Val) = %d", len(m.Ind), len(m.Val))
	}
	if m.Ptr[m.Rows] != len(m.Ind) {
		checkFail(origin, "Ptr[Rows] = %d but nnz = %d", m.Ptr[m.Rows], len(m.Ind))
	}
	for i := 0; i < m.Rows; i++ {
		if m.Ptr[i+1] < m.Ptr[i] {
			checkFail(origin, "row pointers not monotone: Ptr[%d] = %d > Ptr[%d] = %d",
				i, m.Ptr[i], i+1, m.Ptr[i+1])
		}
		for k := m.Ptr[i]; k < m.Ptr[i+1]; k++ {
			if m.Ind[k] < 0 || m.Ind[k] >= m.Cols {
				checkFail(origin, "row %d: column index Ind[%d] = %d out of range [0, %d)",
					i, k, m.Ind[k], m.Cols)
			}
			if k > m.Ptr[i] && m.Ind[k-1] >= m.Ind[k] {
				checkFail(origin, "row %d: column indices not sorted+unique: Ind[%d] = %d, Ind[%d] = %d",
					i, k-1, m.Ind[k-1], k, m.Ind[k])
			}
		}
	}
}

// DebugCheckVec validates the sparse-vector snapshot contract: size
// non-negative; sorted, parallel storage with indices sorted, unique and in
// [0, N); bitmap, Val and Bit of N slots, the stored count Bit's popcount
// and no Ind; full, Val of N slots and neither Ind nor Bit.
func DebugCheckVec[T any](v *Vec[T], origin string) {
	if v == nil {
		return
	}
	if v.N < 0 {
		checkFail(origin, "negative size %d", v.N)
	}
	if v.Bit != nil {
		if v.Ind != nil || len(v.Val) != v.N || len(v.Bit) != v.N {
			checkFail(origin, "bitmap with len(Ind) = %d, len(Val) = %d, len(Bit) = %d, want 0, %d, %d",
				len(v.Ind), len(v.Val), len(v.Bit), v.N, v.N)
		}
		if n := popcount(v.Bit); n != int(v.nb) {
			checkFail(origin, "bitmap has %d set flags but stores a count of %d", n, v.nb)
		}
		return
	}
	if v.full() {
		if len(v.Val) != v.N {
			checkFail(origin, "full vector with len(Val) = %d, want %d", len(v.Val), v.N)
		}
		return
	}
	if len(v.Ind) != len(v.Val) {
		checkFail(origin, "len(Ind) = %d but len(Val) = %d", len(v.Ind), len(v.Val))
	}
	for k := range v.Ind {
		if v.Ind[k] < 0 || v.Ind[k] >= v.N {
			checkFail(origin, "index Ind[%d] = %d out of range [0, %d)", k, v.Ind[k], v.N)
		}
		if k > 0 && v.Ind[k-1] >= v.Ind[k] {
			checkFail(origin, "indices not sorted+unique: Ind[%d] = %d, Ind[%d] = %d",
				k-1, v.Ind[k-1], k, v.Ind[k])
		}
	}
}

// Superseded poisons old when res, another struct, took its value array
// (reuseVal, bitmapBase): the struct's Val, Ind and Bit become nil and N −1, so a
// holder the grb layer's count missed panics at its next read instead of
// reading the new values as old ones.
func Superseded[T any](old, res *Vec[T]) {
	if old != res && len(old.Val) > 0 && len(res.Val) > 0 && &old.Val[0] == &res.Val[0] {
		old.N, old.Ind, old.Val, old.Bit = -1, nil, nil, nil
	}
}

func checkFail(origin, format string, args ...any) {
	panic("sparse: grbcheck: " + origin + ": " + fmt.Sprintf(format, args...))
}
