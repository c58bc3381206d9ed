package grb

import (
	"math"
	"runtime"
	"slices"
	"testing"
)

func TestMatrixConstructorValidation(t *testing.T) {
	setMode(t, Blocking)
	if _, err := NewMatrix[int](0, 3); Code(err) != InvalidValue {
		t.Fatalf("zero rows: %v", err)
	}
	if _, err := NewMatrix[int](3, -1); Code(err) != InvalidValue {
		t.Fatalf("negative cols: %v", err)
	}
	m, err := NewMatrix[int](3, 4)
	if err != nil {
		t.Fatal(err)
	}
	nr := ck1(m.Nrows())
	nc := ck1(m.Ncols())
	nv := ck1(m.Nvals())
	if nr != 3 || nc != 4 || nv != 0 {
		t.Fatalf("fresh matrix: %d %d %d", nr, nc, nv)
	}
}

func TestMatrixNilAndUninitialized(t *testing.T) {
	setMode(t, Blocking)
	var nilM *Matrix[int]
	if _, err := nilM.Nvals(); Code(err) != NullPointer {
		t.Fatalf("nil: %v", err)
	}
	var zero Matrix[int]
	if _, err := zero.Nrows(); Code(err) != UninitializedObject {
		t.Fatalf("zero value: %v", err)
	}
	if zero.ErrorString() != "" {
		t.Fatal("uninitialized ErrorString should be empty")
	}
}

func TestMatrixBuildValidation(t *testing.T) {
	setMode(t, Blocking)
	m := ck1(NewMatrix[int](2, 2))
	// unequal slices: API error
	wantCode(t, m.Build([]Index{0}, []Index{0, 1}, []int{1}, nil), InvalidValue)
	// out-of-range coordinate: API error, never deferred
	wantCode(t, m.Build([]Index{2}, []Index{0}, []int{1}, nil), InvalidIndex)
	// successful build
	if err := m.Build([]Index{0, 1}, []Index{1, 0}, []int{5, 6}, nil); err != nil {
		t.Fatal(err)
	}
	// build on a non-empty matrix: OUTPUT_NOT_EMPTY
	wantCode(t, m.Build([]Index{0}, []Index{0}, []int{1}, nil), OutputNotEmpty)
	// after clear it works again
	if err := m.Clear(); err != nil {
		t.Fatal(err)
	}
	if err := m.Build([]Index{0}, []Index{0}, []int{1}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBuildDupSemantics covers §IX: dup combines duplicates in input order;
// a nil dup makes duplicates an execution error.
func TestBuildDupSemantics(t *testing.T) {
	for _, mode := range []Mode{Blocking, NonBlocking} {
		t.Run(mode.String(), func(t *testing.T) {
			setMode(t, mode)
			m := ck1(NewMatrix[int](2, 2))
			if err := m.Build([]Index{0, 0, 0}, []Index{0, 0, 0}, []int{1, 2, 3}, Plus[int]); err != nil {
				t.Fatal(err)
			}
			ck(m.Wait(Materialize))
			if v, _ := ck2(m.ExtractElement(0, 0)); v != 6 {
				t.Fatalf("dup sum = %d", v)
			}
			// Minus is order-sensitive: ((1-2)-3) = -4 checks input order.
			m2 := ck1(NewMatrix[int](2, 2))
			if err := m2.Build([]Index{0, 0, 0}, []Index{0, 0, 0}, []int{1, 2, 3}, Minus[int]); err != nil {
				t.Fatal(err)
			}
			if v, _ := ck2(m2.ExtractElement(0, 0)); v != -4 {
				t.Fatalf("ordered dup = %d, want -4", v)
			}
			// nil dup + duplicates: execution error (InvalidValue).
			m3 := ck1(NewMatrix[int](2, 2))
			err := m3.Build([]Index{0, 0}, []Index{0, 0}, []int{1, 2}, nil)
			if mode == Blocking {
				wantCode(t, err, InvalidValue)
			} else {
				// In nonblocking mode the error may be deferred; it must be
				// reported by the materializing wait.
				if err == nil {
					err = m3.Wait(Materialize)
				}
				wantCode(t, err, InvalidValue)
			}
		})
	}
}

func TestSetGetRemoveElement(t *testing.T) {
	for _, mode := range []Mode{Blocking, NonBlocking} {
		t.Run(mode.String(), func(t *testing.T) {
			setMode(t, mode)
			m := ck1(NewMatrix[float64](3, 3))
			wantCode(t, m.SetElement(1, 3, 0), InvalidIndex)
			wantCode(t, m.SetElement(1, 0, -1), InvalidIndex)
			if err := m.SetElement(1.5, 1, 2); err != nil {
				t.Fatal(err)
			}
			if err := m.SetElement(2.5, 1, 2); err != nil { // overwrite
				t.Fatal(err)
			}
			v, ok, err := m.ExtractElement(1, 2)
			if err != nil || !ok || v != 2.5 {
				t.Fatalf("extract = %v,%v,%v", v, ok, err)
			}
			if _, ok := ck2(m.ExtractElement(0, 0)); ok {
				t.Fatal("phantom entry")
			}
			if _, _, err := m.ExtractElement(5, 0); Code(err) != InvalidIndex {
				t.Fatalf("bad extract index: %v", err)
			}
			if err := m.RemoveElement(1, 2); err != nil {
				t.Fatal(err)
			}
			if _, ok := ck2(m.ExtractElement(1, 2)); ok {
				t.Fatal("entry not removed")
			}
			// removing a missing entry is fine
			if err := m.RemoveElement(0, 0); err != nil {
				t.Fatal(err)
			}
			wantCode(t, m.RemoveElement(9, 9), InvalidIndex)
		})
	}
}

func TestMatrixDupIndependent(t *testing.T) {
	setMode(t, NonBlocking)
	m := mustMatrix(t, 2, 2, []Index{0}, []Index{1}, []int{7})
	d, err := m.Dup()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetElement(9, 0, 1); err != nil {
		t.Fatal(err)
	}
	if v, _ := ck2(d.ExtractElement(0, 1)); v != 7 {
		t.Fatalf("dup sees %d, want 7 (snapshot)", v)
	}
	if v, _ := ck2(m.ExtractElement(0, 1)); v != 9 {
		t.Fatalf("original = %d", v)
	}
}

func TestMatrixResize(t *testing.T) {
	setMode(t, NonBlocking)
	m := mustMatrix(t, 3, 3, []Index{0, 2}, []Index{0, 2}, []int{1, 9})
	if err := m.Resize(2, 2); err != nil {
		t.Fatal(err)
	}
	nr := ck1(m.Nrows())
	nc := ck1(m.Ncols())
	nv := ck1(m.Nvals())
	if nr != 2 || nc != 2 || nv != 1 {
		t.Fatalf("after shrink: %dx%d nvals=%d", nr, nc, nv)
	}
	// setElement after pending resize uses the new bounds
	wantCode(t, m.SetElement(1, 2, 2), InvalidIndex)
	if err := m.Resize(4, 4); err != nil {
		t.Fatal(err)
	}
	if err := m.SetElement(5, 3, 3); err != nil {
		t.Fatal(err)
	}
	wantCode(t, m.Resize(0, 4), InvalidValue)
}

func TestMatrixExtractTuplesOrder(t *testing.T) {
	setMode(t, Blocking)
	m := mustMatrix(t, 3, 3,
		[]Index{2, 0, 1, 0}, []Index{0, 2, 1, 0}, []int{4, 2, 3, 1})
	matrixEquals(t, m, []Index{0, 0, 1, 2}, []Index{0, 2, 1, 0}, []int{1, 2, 3, 4})
}

// TestExtractTuplesAllocatesOnce: ExtractTuples allocates I, J and X once
// each, at exactly nvals, on a matrix whose nvals is not a power of two, and
// returns the tuples an element-by-element walk of the rows gives, bit for bit.
func TestExtractTuplesAllocatesOnce(t *testing.T) {
	setMode(t, Blocking)
	const rows, cols = 2999, 1009
	var I, J []Index
	var X []float64
	for i := 0; i < rows; i++ {
		for k := range i % 9 { // row 0, 9, 18, … empty; 103·k < cols keeps columns distinct
			I, J = append(I, i), append(J, (37*i+103*k)%cols)
			X = append(X, [...]float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), float64(i) / 7}[(i+k)%4])
		}
	}
	m := mustMatrix(t, rows, cols, I, J, X)
	empty := ck1(NewMatrix[float64](rows, cols))
	nnz := ck1(m.Nvals())
	if nnz < 10000 || nnz&(nnz-1) == 0 {
		t.Fatalf("nvals = %d: want at least 10 000 and not a power of two", nnz)
	}
	base := testing.AllocsPerRun(10, func() { ck3(empty.ExtractTuples()) })
	if got := testing.AllocsPerRun(10, func() { ck3(m.ExtractTuples()) }); got > base+3 {
		t.Errorf("ExtractTuples made %.1f allocations, want at most %.1f (the empty matrix's %.1f + 3)", got, base+3, base)
	}
	gi, gj, gx := ck3(m.ExtractTuples())
	if len(gi) != nnz || cap(gi) != nnz || len(gj) != nnz || cap(gj) != nnz || len(gx) != nnz || cap(gx) != nnz {
		t.Errorf("I, J, X: len %d/%d/%d, cap %d/%d/%d, want all %d", len(gi), len(gj), len(gx), cap(gi), cap(gj), cap(gx), nnz)
	}
	c := ck1(m.snapshot())
	var wi, wj []Index
	var wx []float64
	for i := 0; i < c.Rows; i++ {
		ind, val := c.Row(i)
		for k := range ind {
			wi, wj, wx = append(wi, i), append(wj, ind[k]), append(wx, val[k])
		}
	}
	bits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !slices.Equal(gi, wi) || !slices.Equal(gj, wj) || !slices.EqualFunc(gx, wx, bits) {
		t.Error("the tuples differ from the element-by-element walk of the rows")
	}
}

// TestNewMatrixBuildsNoRowsUntilRead: NewMatrix (and Clear) leave the empty
// matrix's rows unbuilt, so an output that is only written — a product, a
// transpose, a Build — never allocates the (n+1)-int row pointer its first
// write threw away (512 KB at n = 2¹⁶). A reader of the rows, an
// accumulator, a mask that keeps old entries and an element update get
// them built, and see an empty matrix.
func TestNewMatrixBuildsNoRowsUntilRead(t *testing.T) {
	setMode(t, Blocking)
	const n = 1 << 16
	best := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ck(ck1(NewMatrix[float64](n, n)).Free())
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best >= 4<<10 {
		t.Fatalf("NewMatrix(%d, %d) allocated %d bytes, want < 4 KB", n, n, best)
	}
	a := mustMatrix(t, n, n, []Index{0, 5}, []Index{3, n - 1}, []float64{1, 2})
	fresh := func() *Matrix[float64] { return ck1(NewMatrix[float64](n, n)) }
	want := func(what string, m *Matrix[float64], x0, x5 float64) {
		t.Helper()
		I, J, X := ck3(m.ExtractTuples())
		if !slices.Equal(I, []Index{0, 5}) || !slices.Equal(J, []Index{3, n - 1}) || !slices.Equal(X, []float64{x0, x5}) {
			t.Fatalf("%s: tuples %v %v %v, want (0,3)=%v and (5,%d)=%v", what, I, J, X, x0, n-1, x5)
		}
	}
	e := fresh()
	if nv := ck1(e.Nvals()); nv != 0 {
		t.Fatalf("a fresh matrix holds %d entries", nv)
	}
	if _, ok := ck2(e.ExtractElement(0, 3)); ok {
		t.Fatal("a fresh matrix stores (0,3)")
	}
	sum := fresh()
	ck(EWiseAddMatrix(sum, nil, nil, Plus[float64], fresh(), a, nil)) // an unbuilt input
	want("unbuilt ⊕ a", sum, 1, 2)
	acc := fresh()
	ck(EWiseAddMatrix(acc, nil, Plus[float64], Plus[float64], a, a, nil)) // accumulated into unbuilt rows
	want("unbuilt += a ⊕ a", acc, 2, 4)
	kept := fresh()
	ck(MatrixApply(kept, ck1(AsMask(a)), nil, Identity[float64], a, nil)) // a mask, no replace
	want("unbuilt⟨a⟩ = a", kept, 1, 2)
	set := fresh()
	ck(set.SetElement(1, 0, 3))
	ck(set.SetElement(2, 5, n-1))
	want("element updates into unbuilt rows", set, 1, 2)
	ck(set.Clear())
	if _, ok := ck2(set.ExtractElement(0, 3)); ok {
		t.Fatal("a cleared matrix stores (0,3)")
	}
	tr := fresh()
	ck(Transpose(tr, nil, nil, ck1(a.Dup()), nil))
	ck(Transpose(tr, nil, nil, tr, nil)) // its own input: built as it is read
	want("(aᵀ)ᵀ", tr, 1, 2)
}

func TestMatrixClearResetsError(t *testing.T) {
	setMode(t, NonBlocking)
	m := ck1(NewMatrix[int](2, 2))
	ck(m.Build([]Index{0, 0}, []Index{0, 0}, []int{1, 2}, nil)) // deferred dup error
	err := m.Wait(Materialize)
	wantCode(t, err, InvalidValue)
	if m.ErrorString() == "" {
		t.Fatal("error string should be set")
	}
	// The parked error is sticky for ordinary methods...
	wantCode(t, m.SetElement(1, 0, 0), InvalidValue)
	// ...until Clear resets the object.
	if err := m.Clear(); err != nil {
		t.Fatal(err)
	}
	if m.ErrorString() != "" {
		t.Fatal("error string should be cleared")
	}
	if err := m.SetElement(1, 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixFree(t *testing.T) {
	setMode(t, Blocking)
	m := mustMatrix(t, 2, 2, []Index{0}, []Index{0}, []int{1})
	if err := m.Free(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Nvals(); Code(err) != UninitializedObject {
		t.Fatalf("after free: %v", err)
	}
	if err := m.Free(); Code(err) != UninitializedObject {
		t.Fatalf("double free: %v", err)
	}
}

func TestMatrixDiag(t *testing.T) {
	setMode(t, Blocking)
	v := mustVector(t, 3, []Index{0, 2}, []int{5, 7})
	d, err := MatrixDiag(v, 0)
	if err != nil {
		t.Fatal(err)
	}
	nr := ck1(d.Nrows())
	if nr != 3 {
		t.Fatalf("diag dim = %d", nr)
	}
	if x, ok := ck2(d.ExtractElement(2, 2)); !ok || x != 7 {
		t.Fatalf("diag(2,2) = %d,%v", x, ok)
	}
	up, err := MatrixDiag(v, 2)
	if err != nil {
		t.Fatal(err)
	}
	nr = ck1(up.Nrows())
	if nr != 5 {
		t.Fatalf("superdiag dim = %d", nr)
	}
	if x, ok := ck2(up.ExtractElement(0, 2)); !ok || x != 5 {
		t.Fatalf("superdiag(0,2) = %d,%v", x, ok)
	}
}

func TestVectorBasics(t *testing.T) {
	setMode(t, Blocking)
	if _, err := NewVector[int](0); Code(err) != InvalidValue {
		t.Fatalf("zero size: %v", err)
	}
	v := ck1(NewVector[int](5))
	n := ck1(v.Size())
	if n != 5 {
		t.Fatalf("size = %d", n)
	}
	wantCode(t, v.SetElement(1, 5), InvalidIndex)
	if err := v.SetElement(3, 2); err != nil {
		t.Fatal(err)
	}
	x, ok := ck2(v.ExtractElement(2))
	if !ok || x != 3 {
		t.Fatalf("v(2)=%d,%v", x, ok)
	}
	if err := v.RemoveElement(2); err != nil {
		t.Fatal(err)
	}
	if _, ok := ck2(v.ExtractElement(2)); ok {
		t.Fatal("not removed")
	}
	wantCode(t, v.Build([]Index{0}, []int{1, 2}, nil), InvalidValue)
	if err := v.Build([]Index{1, 0}, []int{10, 20}, nil); err != nil {
		t.Fatal(err)
	}
	wantCode(t, v.Build([]Index{0}, []int{1}, nil), OutputNotEmpty)
	vectorEquals(t, v, []Index{0, 1}, []int{20, 10})
	d := ck1(v.Dup())
	ck(v.Clear())
	nv := ck1(v.Nvals())
	dn := ck1(d.Nvals())
	if nv != 0 || dn != 2 {
		t.Fatalf("clear/dup: %d %d", nv, dn)
	}
	if err := v.Resize(2); err != nil {
		t.Fatal(err)
	}
	n = ck1(v.Size())
	if n != 2 {
		t.Fatalf("resized = %d", n)
	}
	if err := v.Free(); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Size(); Code(err) != UninitializedObject {
		t.Fatalf("after free: %v", err)
	}
}

func TestVectorBuildDupNil(t *testing.T) {
	setMode(t, NonBlocking)
	v := ck1(NewVector[int](3))
	ck(v.Build([]Index{1, 1}, []int{1, 2}, nil))
	wantCode(t, v.Wait(Materialize), InvalidValue)
}

// TestScalarElementVariants covers the Table II setElement/extractElement
// GrB_Scalar variants on both matrices and vectors, including the
// empty-scalar paths.
func TestScalarElementVariants(t *testing.T) {
	setMode(t, Blocking)
	m := mustMatrix(t, 2, 2, []Index{0}, []Index{0}, []int{7})
	s := ck1(NewScalar[int]())

	// extract present entry -> full scalar
	if err := m.ExtractElementScalar(s, 0, 0); err != nil {
		t.Fatal(err)
	}
	if v, ok := ck2(s.ExtractElement()); !ok || v != 7 {
		t.Fatalf("scalar = %v,%v", v, ok)
	}
	// extract missing entry -> empty scalar (no NO_VALUE error, §VI)
	if err := m.ExtractElementScalar(s, 1, 1); err != nil {
		t.Fatal(err)
	}
	if nv := ck1(s.Nvals()); nv != 0 {
		t.Fatal("scalar should be emptied")
	}
	// setElement from a full scalar
	full := ck1(ScalarOf(9))
	if err := m.SetElementScalar(full, 1, 1); err != nil {
		t.Fatal(err)
	}
	if v, _ := ck2(m.ExtractElement(1, 1)); v != 9 {
		t.Fatalf("m(1,1)=%d", v)
	}
	// setElement from an empty scalar removes
	if err := m.SetElementScalar(s, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := ck2(m.ExtractElement(1, 1)); ok {
		t.Fatal("empty-scalar set should remove")
	}

	// vector variants
	v := mustVector(t, 3, []Index{1}, []int{4})
	if err := v.ExtractElementScalar(s, 1); err != nil {
		t.Fatal(err)
	}
	if x, ok := ck2(s.ExtractElement()); !ok || x != 4 {
		t.Fatalf("vec scalar = %v,%v", x, ok)
	}
	if err := v.SetElementScalar(full, 0); err != nil {
		t.Fatal(err)
	}
	if x, _ := ck2(v.ExtractElement(0)); x != 9 {
		t.Fatalf("v(0)=%d", x)
	}
	empty := ck1(NewScalar[int]())
	if err := v.SetElementScalar(empty, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := ck2(v.ExtractElement(0)); ok {
		t.Fatal("empty-scalar set should remove")
	}
}
