package grb

import "testing"

func TestMatrixExtractBasic(t *testing.T) {
	setMode(t, Blocking)
	// 3x4: value = 10*i + j at every position
	var I, J []Index
	var X []int
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			I = append(I, i)
			J = append(J, j)
			X = append(X, 10*i+j)
		}
	}
	a := mustMatrix(t, 3, 4, I, J, X)

	// submatrix with reordered and repeated indices
	c := ck1(NewMatrix[int](2, 3))
	if err := MatrixExtract(c, nil, nil, a, []Index{2, 0}, []Index{3, 1, 3}, nil); err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, c,
		[]Index{0, 0, 0, 1, 1, 1},
		[]Index{0, 1, 2, 0, 1, 2},
		[]int{23, 21, 23, 3, 1, 3})

	// All rows, selected cols
	c2 := ck1(NewMatrix[int](3, 2))
	if err := MatrixExtract(c2, nil, nil, a, All, []Index{0, 2}, nil); err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, c2,
		[]Index{0, 0, 1, 1, 2, 2},
		[]Index{0, 1, 0, 1, 0, 1},
		[]int{0, 2, 10, 12, 20, 22})

	// with transpose: extract from Aᵀ (4x3)
	c3 := ck1(NewMatrix[int](2, 3))
	if err := MatrixExtract(c3, nil, nil, a, []Index{1, 3}, All, DescT0); err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, c3,
		[]Index{0, 0, 0, 1, 1, 1},
		[]Index{0, 1, 2, 0, 1, 2},
		[]int{1, 11, 21, 3, 13, 23})

	// errors
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

func TestMatrixAssignSemantics(t *testing.T) {
	setMode(t, Blocking)
	// C dense 3x3 with c(i,j) = 100 + 10i + j
	var I, J []Index
	var X []int
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			I = append(I, i)
			J = append(J, j)
			X = append(X, 100+10*i+j)
		}
	}
	c := mustMatrix(t, 3, 3, I, J, X)
	// A 2x2 with only (0,0)=1 and (1,1)=2
	a := mustMatrix(t, 2, 2, []Index{0, 1}, []Index{0, 1}, []int{1, 2})

	// pure assignment into rows {0,2} cols {0,2}: region entries without a
	// source counterpart are DELETED.
	c1 := ck1(c.Dup())
	if err := MatrixAssign(c1, nil, nil, a, []Index{0, 2}, []Index{0, 2}, nil); err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, c1,
		[]Index{0, 0, 1, 1, 1, 2, 2},
		[]Index{0, 1, 0, 1, 2, 1, 2},
		[]int{1, 101, 110, 111, 112, 121, 2})

	// accumulated assignment: region C entries survive; co-located combine
	c2 := ck1(c.Dup())
	if err := MatrixAssign(c2, nil, nil, a, []Index{0, 2}, []Index{0, 2}, nil); err != nil {
		t.Fatal(err)
	}
	c3 := ck1(c.Dup())
	if err := MatrixAssign(c3, nil, Plus[int], a, []Index{0, 2}, []Index{0, 2}, nil); err != nil {
		t.Fatal(err)
	}
	// (0,0): 100+1; (0,2): kept 102; (2,0): kept 120; (2,2): 122+2
	if v, _ := ck2(c3.ExtractElement(0, 0)); v != 101 {
		t.Fatalf("accum (0,0)=%d", v)
	}
	if v, ok := ck2(c3.ExtractElement(0, 2)); !ok || v != 102 {
		t.Fatalf("accum (0,2)=%d,%v", v, ok)
	}
	if v, _ := ck2(c3.ExtractElement(2, 2)); v != 124 {
		t.Fatalf("accum (2,2)=%d", v)
	}
	nv := ck1(c3.Nvals())
	if nv != 9 {
		t.Fatalf("accum nvals=%d, want 9", nv)
	}

	// dimension / index errors
	wantCode(t, MatrixAssign(c1, nil, nil, a, []Index{0}, []Index{0, 2}, nil), DimensionMismatch)
	wantCode(t, MatrixAssign(c1, nil, nil, a, []Index{0, 5}, []Index{0, 2}, nil), InvalidIndex)
}

func TestMatrixAssignScalarAndMask(t *testing.T) {
	setMode(t, Blocking)
	c := mustMatrix(t, 2, 3, []Index{0, 1}, []Index{0, 2}, []int{5, 6})
	// fill a row with 9
	if err := MatrixAssignScalar(c, nil, nil, 9, []Index{0}, All, nil); err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, c,
		[]Index{0, 0, 0, 1}, []Index{0, 1, 2, 2}, []int{9, 9, 9, 6})
	// accumulate over the row
	if err := MatrixAssignScalar(c, nil, Plus[int], 1, []Index{0}, All, nil); err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, c,
		[]Index{0, 0, 0, 1}, []Index{0, 1, 2, 2}, []int{10, 10, 10, 6})
	// masked scalar assign: the mask spans C
	mask := boolMatrix(t,
		[][]bool{{true, true, false}, {true, true, true}},
		[][]bool{{true, true, false}, {false, false, true}})
	if err := MatrixAssignScalar(c, mask, nil, 7, All, All, nil); err != nil {
		t.Fatal(err)
	}
	// mask true at (0,0),(0,1),(1,2): those get 7; others keep old
	matrixEquals(t, c,
		[]Index{0, 0, 0, 1}, []Index{0, 1, 2, 2}, []int{7, 7, 10, 7})
}

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

func TestTransposeOperation(t *testing.T) {
	setMode(t, Blocking)
	a := mustMatrix(t, 2, 3, []Index{0, 1, 1}, []Index{2, 0, 1}, []int{1, 2, 3})
	c := ck1(NewMatrix[int](3, 2))
	if err := Transpose(c, nil, nil, a, nil); err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, c, []Index{0, 1, 2}, []Index{1, 1, 0}, []int{2, 3, 1})
	// transpose + T0 = copy
	c2 := ck1(NewMatrix[int](2, 3))
	if err := Transpose(c2, nil, nil, a, DescT0); err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, c2, []Index{0, 1, 1}, []Index{2, 0, 1}, []int{1, 2, 3})
	// accumulate into existing
	c3 := mustMatrix(t, 3, 2, []Index{0}, []Index{1}, []int{100})
	if err := Transpose(c3, nil, Plus[int], a, nil); err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, c3, []Index{0, 1, 2}, []Index{1, 1, 0}, []int{102, 3, 1})
	wantCode(t, Transpose(c3, nil, nil, a, DescT0), DimensionMismatch)
}

func TestKroneckerOperation(t *testing.T) {
	setMode(t, Blocking)
	a := mustMatrix(t, 2, 2, []Index{0, 1}, []Index{1, 0}, []int{2, 3})
	b := mustMatrix(t, 2, 2, []Index{0, 1}, []Index{0, 1}, []int{5, 7})
	c := ck1(NewMatrix[int](4, 4))
	if err := Kronecker(c, nil, nil, Times[int], a, b, nil); err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, c,
		[]Index{0, 1, 2, 3}, []Index{2, 3, 0, 1}, []int{10, 14, 15, 21})
	bad := ck1(NewMatrix[int](3, 3))
	wantCode(t, Kronecker(bad, nil, nil, Times[int], a, b, nil), DimensionMismatch)
	wantCode(t, Kronecker(c, nil, nil, nil, a, b, nil), NullPointer)
}
