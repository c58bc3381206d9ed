package grb

import "testing"

// The element-wise, apply and select values over matrices — masks,
// accumulators, replace, transposes, the GrB_Scalar variants — are the
// program generator's (progen_test.go); these tests keep what it does not
// draw: mixed domains and the API errors.
func TestEWiseAddMatrixSemantics(t *testing.T) { matrixKit(t, kitInt, blocking, gEWiseAddM) }

func TestEWiseMultMatrixMixedDomains(t *testing.T) {
	setMode(t, Blocking)
	a := mustMatrix(t, 2, 2, []Index{0, 1}, []Index{0, 1}, []int{3, 4})
	bm := ck1(NewMatrix[float64](2, 2))
	if err := bm.Build([]Index{0, 1}, []Index{0, 0}, []float64{0.5, 2}, nil); err != nil {
		t.Fatal(err)
	}
	c := ck1(NewMatrix[bool](2, 2))
	op := func(x int, y float64) bool { return float64(x) > y }
	if err := EWiseMultMatrix(c, nil, nil, op, a, bm, nil); err != nil {
		t.Fatal(err)
	}
	// intersection: only (0,0): 3 > 0.5 = true
	matrixEquals(t, c, []Index{0}, []Index{0}, []bool{true})
}

func TestEWisePatternProperties(t *testing.T) {
	matrixKit(t, kitPlusTimes, blocking, gEWiseAddM, gEWiseMultM)
}

// TestEWiseVectorVariants: the element-wise vector operations' API errors;
// their values are the program generator's (progen_test.go).
func TestEWiseVectorVariants(t *testing.T) {
	setMode(t, Blocking)
	u := mustVector(t, 4, []Index{0, 2}, []int{1, 3})
	v := mustVector(t, 4, []Index{2, 3}, []int{10, 20})
	w := ck1(NewVector[int](4))
	short := mustVector(t, 3, nil, []int(nil))
	wantCode(t, EWiseAddVector(w, nil, nil, Plus[int], u, short, nil), DimensionMismatch)
	wantCode(t, EWiseMultVector(w, nil, nil, Times[int], u, short, nil), DimensionMismatch)
	wantCode(t, EWiseAddVector(w, nil, nil, nil, u, v, nil), NullPointer)
}

func TestMatrixApplyVariants(t *testing.T) {
	setMode(t, Blocking)
	a := mustMatrix(t, 2, 2, []Index{0, 1}, []Index{1, 0}, []int{3, -4})
	f := ck1(NewMatrix[float64](2, 2))
	if err := MatrixApply(f, nil, nil, func(x int) float64 { return float64(x) / 2 }, a, nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := ck2(f.ExtractElement(0, 1)); v != 1.5 {
		t.Fatalf("f(0,1)=%v", v)
	}
	c, empty := ck1(NewMatrix[int](2, 2)), ck1(NewScalar[int]())
	wantCode(t, MatrixApplyBindFirstScalar(c, nil, nil, Plus[int], empty, a, nil), EmptyObject)
	wantCode(t, MatrixApplyBindSecondScalar(c, nil, nil, Plus[int], a, empty, nil), EmptyObject)
}

// TestVectorApplyVariants: an empty bound scalar is EmptyObject for every
// Table II variant that takes one; the values are the program generator's.
func TestVectorApplyVariants(t *testing.T) {
	setMode(t, Blocking)
	u := mustVector(t, 4, []Index{1, 3}, []int{-2, 5})
	w := ck1(NewVector[int](4))
	empty := ck1(NewScalar[int]())
	wantCode(t, VectorApplyBindFirstScalar(w, nil, nil, Times[int], empty, u, nil), EmptyObject)
	wantCode(t, VectorApplyBindSecondScalar(w, nil, nil, Times[int], u, empty, nil), EmptyObject)
	wantCode(t, VectorApplyIndexOpScalar(w, nil, nil, RowIndex[int], u, empty, nil), EmptyObject)
}

func TestTableIV_SelectOperatorsMatrix(t *testing.T) { matrixKit(t, kitBool, blocking, gSelectM) }

func TestSelectVectorAndScalarVariant(t *testing.T) {
	setMode(t, Blocking)
	u := mustVector(t, 6, []Index{0, 1, 3, 5}, []int{4, 9, 2, 7})
	w, empty := ck1(NewVector[int](6)), ck1(NewScalar[int]())
	wantCode(t, VectorSelectScalar(w, nil, nil, ValueGT[int], u, empty, nil), EmptyObject)
	a := mustMatrix(t, 2, 2, []Index{0, 1}, []Index{0, 1}, []int{1, 9})
	c := ck1(NewMatrix[int](2, 2))
	wantCode(t, MatrixSelectScalar(c, nil, nil, ValueGT[int], a, empty, nil), EmptyObject)
}

func TestSelectWithMaskAccum(t *testing.T) { matrixKit(t, kitMinPlus, blocking, gSelect, gSelectM) }
