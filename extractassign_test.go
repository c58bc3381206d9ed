package grb

import "testing"

// TestMatrixExtractBasic: the extract errors; the values, under index lists
// with repeats, masks, accumulators and Transpose0, are the program
// generator's (progen_test.go).
func TestMatrixExtractBasic(t *testing.T) {
	setMode(t, Blocking)
	a := mustMatrix(t, 3, 4, []Index{0, 2}, []Index{1, 3}, []int{1, 23})
	c := ck1(NewMatrix[int](2, 3))
	wantCode(t, MatrixExtract(c, nil, nil, a, []Index{5}, All, nil), InvalidIndex)
	wantCode(t, MatrixExtract(c, nil, nil, a, []Index{0}, []Index{9}, nil), InvalidIndex)
	wantCode(t, MatrixExtract(c, nil, nil, a, []Index{0}, []Index{0}, nil), DimensionMismatch)
}

func TestVectorExtractAndColExtract(t *testing.T) {
	setMode(t, Blocking)
	u := mustVector(t, 5, []Index{0, 2, 4}, []int{1, 3, 5})
	w := ck1(NewVector[int](3))
	if err := VectorExtract(w, nil, nil, u, []Index{4, 1, 2}, nil); err != nil {
		t.Fatal(err)
	}
	vectorEquals(t, w, []Index{0, 2}, []int{5, 3})
	wantCode(t, VectorExtract(w, nil, nil, u, []Index{7}, nil), InvalidIndex)
	wantCode(t, VectorExtract(w, nil, nil, u, []Index{0, 1}, nil), DimensionMismatch)

	a := mustMatrix(t, 3, 3,
		[]Index{0, 1, 2, 2}, []Index{1, 1, 1, 2}, []int{5, 6, 7, 8})
	col := ck1(NewVector[int](3))
	if err := ColExtract(col, nil, nil, a, All, 1, nil); err != nil {
		t.Fatal(err)
	}
	vectorEquals(t, col, []Index{0, 1, 2}, []int{5, 6, 7})
	// row extract via transpose flag
	row := ck1(NewVector[int](3))
	if err := ColExtract(row, nil, nil, a, All, 2, DescT0); err != nil {
		t.Fatal(err)
	}
	vectorEquals(t, row, []Index{1, 2}, []int{7, 8})
	// gathered with index list
	g := ck1(NewVector[int](2))
	if err := ColExtract(g, nil, nil, a, []Index{2, 0}, 1, nil); err != nil {
		t.Fatal(err)
	}
	vectorEquals(t, g, []Index{0, 1}, []int{7, 5})
	wantCode(t, ColExtract(col, nil, nil, a, All, 5, nil), InvalidIndex)
}

// TestMatrixAssignSemantics: the assign errors; the values of MatrixAssign
// and MatrixAssignScalar, a repeated target among the listed rows and
// columns, under masks over all of C and replace, are the program
// generator's.
func TestMatrixAssignSemantics(t *testing.T) {
	setMode(t, Blocking)
	c := mustMatrix(t, 3, 3, []Index{0, 2}, []Index{0, 2}, []int{100, 122})
	a := mustMatrix(t, 2, 2, []Index{0, 1}, []Index{0, 1}, []int{1, 2})
	wantCode(t, MatrixAssign(c, nil, nil, a, []Index{0}, []Index{0, 2}, nil), DimensionMismatch)
	wantCode(t, MatrixAssign(c, nil, nil, a, []Index{0, 5}, []Index{0, 2}, nil), InvalidIndex)
}

func TestMatrixAssignScalarAndMask(t *testing.T) { matrixKit(t, kitInt, blocking, gAssignM) }

// TestMatrixAssignScalarObjEmpty covers the Table II scalar-object assign
// with an empty scalar: region entries are deleted when accum is nil and
// kept when accum is present.
func TestMatrixAssignScalarObjEmpty(t *testing.T) {
	setMode(t, Blocking)
	full := ck1(ScalarOf(3))
	empty := ck1(NewScalar[int]())

	c := mustMatrix(t, 2, 2, []Index{0, 0, 1}, []Index{0, 1, 1}, []int{1, 2, 4})
	if err := MatrixAssignScalarObj(c, nil, nil, full, []Index{0}, All, nil); err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, c, []Index{0, 0, 1}, []Index{0, 1, 1}, []int{3, 3, 4})

	// empty + nil accum: row 0 entries deleted
	if err := MatrixAssignScalarObj(c, nil, nil, empty, []Index{0}, All, nil); err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, c, []Index{1}, []Index{1}, []int{4})

	// empty + accum: unchanged
	if err := MatrixAssignScalarObj(c, nil, Plus[int], empty, All, All, nil); err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, c, []Index{1}, []Index{1}, []int{4})
}

// TestVectorAssignSemantics: an empty GrB_Scalar source and the assign
// errors; the values of VectorAssign and VectorAssignScalar, under masks and
// replace over all of w, are the program generator's (progen_test.go).
func TestVectorAssignSemantics(t *testing.T) {
	setMode(t, Blocking)
	w := mustVector(t, 5, []Index{0, 1, 2, 3, 4}, []int{10, 11, 12, 13, 14})
	u := mustVector(t, 2, []Index{0}, []int{99})
	// scalar obj, empty, nil accum: delete region
	empty := ck1(NewScalar[int]())
	w4 := ck1(w.Dup())
	if err := VectorAssignScalarObj(w4, nil, nil, empty, []Index{0, 1}, nil); err != nil {
		t.Fatal(err)
	}
	vectorEquals(t, w4, []Index{2, 3, 4}, []int{12, 13, 14})
	// scalar obj, empty, accum: unchanged
	w5 := ck1(w.Dup())
	if err := VectorAssignScalarObj(w5, nil, Plus[int], empty, All, nil); err != nil {
		t.Fatal(err)
	}
	vectorEquals(t, w5, []Index{0, 1, 2, 3, 4}, []int{10, 11, 12, 13, 14})
	// errors
	wantCode(t, VectorAssign(w4, nil, nil, u, []Index{1}, nil), DimensionMismatch)
	wantCode(t, VectorAssign(w4, nil, nil, u, []Index{1, 9}, nil), InvalidIndex)
	wantCode(t, VectorAssignScalar(w4, nil, nil, 1, []Index{9}, nil), InvalidIndex)
}

// TestTransposeOperation and TestKroneckerOperation: the errors; the values
// are the program generator's.
func TestTransposeOperation(t *testing.T) {
	setMode(t, Blocking)
	a := mustMatrix(t, 2, 3, []Index{0, 1, 1}, []Index{2, 0, 1}, []int{1, 2, 3})
	c := ck1(NewMatrix[int](3, 2))
	wantCode(t, Transpose(c, nil, nil, a, DescT0), DimensionMismatch)
}

func TestKroneckerOperation(t *testing.T) {
	setMode(t, Blocking)
	a := mustMatrix(t, 2, 2, []Index{0, 1}, []Index{1, 0}, []int{2, 3})
	b := mustMatrix(t, 2, 2, []Index{0, 1}, []Index{0, 1}, []int{5, 7})
	c := ck1(NewMatrix[int](4, 4))
	bad := ck1(NewMatrix[int](3, 3))
	wantCode(t, Kronecker(bad, nil, nil, Times[int], a, b, nil), DimensionMismatch)
	wantCode(t, Kronecker(c, nil, nil, nil, a, b, nil), NullPointer)
}
