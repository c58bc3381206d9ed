package grb

import (
	"math/rand"
	"testing"
)

func TestEWiseAddMatrixSemantics(t *testing.T) {
	setMode(t, Blocking)
	a := mustMatrix(t, 2, 3, []Index{0, 0, 1}, []Index{0, 1, 2}, []int{1, 2, 3})
	b := mustMatrix(t, 2, 3, []Index{0, 1, 1}, []Index{1, 0, 2}, []int{10, 20, 30})
	c := ck1(NewMatrix[int](2, 3))
	if err := EWiseAddMatrix(c, nil, nil, Plus[int], a, b, nil); err != nil {
		t.Fatal(err)
	}
	// union pattern; co-located (0,1) and (1,2) combined
	matrixEquals(t, c,
		[]Index{0, 0, 1, 1}, []Index{0, 1, 0, 2}, []int{1, 12, 20, 33})
}

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

// TestEWisePatternProperties: add yields the union pattern, mult the
// intersection, on random inputs.
func TestEWisePatternProperties(t *testing.T) {
	setMode(t, Blocking)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		rows := 1 + rng.Intn(10)
		cols := 1 + rng.Intn(10)
		ad := randDense(rng, rows, cols, 0.4)
		bd := randDense(rng, rows, cols, 0.4)
		a := ad.toMatrix(t)
		b := bd.toMatrix(t)
		sum := ck1(NewMatrix[int](rows, cols))
		prod := ck1(NewMatrix[int](rows, cols))
		if err := EWiseAddMatrix(sum, nil, nil, Plus[int], a, b, nil); err != nil {
			t.Fatal(err)
		}
		if err := EWiseMultMatrix(prod, nil, nil, Times[int], a, b, nil); err != nil {
			t.Fatal(err)
		}
		an := ck1(a.Nvals())
		bn := ck1(b.Nvals())
		sn := ck1(sum.Nvals())
		pn := ck1(prod.Nvals())
		if sn+pn != an+bn { // |A∪B| + |A∩B| = |A| + |B|
			t.Fatalf("inclusion-exclusion violated: %d+%d != %d+%d", sn, pn, an, bn)
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				sv, sok := ck2(sum.ExtractElement(i, j))
				pv, pok := ck2(prod.ExtractElement(i, j))
				if sok != (ad.ok[i][j] || bd.ok[i][j]) || pok != (ad.ok[i][j] && bd.ok[i][j]) {
					t.Fatal("pattern law violated")
				}
				if pok && pv != ad.val[i][j]*bd.val[i][j] {
					t.Fatal("mult value wrong")
				}
				if sok {
					want := 0
					if ad.ok[i][j] {
						want += ad.val[i][j]
					}
					if bd.ok[i][j] {
						want += bd.val[i][j]
					}
					if sv != want {
						t.Fatal("add value wrong")
					}
				}
			}
		}
	}
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

	// unary
	c := ck1(NewMatrix[int](2, 2))
	if err := MatrixApply(c, nil, nil, Abs[int], a, nil); err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, c, []Index{0, 1}, []Index{1, 0}, []int{3, 4})

	// domain-changing unary
	f := ck1(NewMatrix[float64](2, 2))
	if err := MatrixApply(f, nil, nil, func(x int) float64 { return float64(x) / 2 }, a, nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := ck2(f.ExtractElement(0, 1)); v != 1.5 {
		t.Fatalf("f(0,1)=%v", v)
	}

	// bind-first / bind-second
	if err := MatrixApplyBindFirst(c, nil, nil, Minus[int], 10, a, nil); err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, c, []Index{0, 1}, []Index{1, 0}, []int{7, 14})
	if err := MatrixApplyBindSecond(c, nil, nil, Minus[int], a, 1, nil); err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, c, []Index{0, 1}, []Index{1, 0}, []int{2, -5})

	// GrB_Scalar-bound variants (Table II)
	s := ck1(ScalarOf(100))
	if err := MatrixApplyBindFirstScalar(c, nil, nil, Plus[int], s, a, nil); err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, c, []Index{0, 1}, []Index{1, 0}, []int{103, 96})
	if err := MatrixApplyBindSecondScalar(c, nil, nil, Plus[int], a, s, nil); err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, c, []Index{0, 1}, []Index{1, 0}, []int{103, 96})
	empty := ck1(NewScalar[int]())
	wantCode(t, MatrixApplyBindFirstScalar(c, nil, nil, Plus[int], empty, a, nil), EmptyObject)
	wantCode(t, MatrixApplyBindSecondScalar(c, nil, nil, Plus[int], a, empty, nil), EmptyObject)

	// apply with transpose: indices are post-transpose (§VIII-B)
	idx := ck1(NewMatrix[int](2, 2))
	if err := MatrixApplyIndexOp(idx, nil, nil, RowIndex[int], a, 0, DescT0); err != nil {
		t.Fatal(err)
	}
	// Aᵀ has entries at (1,0) and (0,1); ROWINDEX gives 1 and 0
	matrixEquals(t, idx, []Index{0, 1}, []Index{1, 0}, []int{0, 1})

	// index op via Scalar
	sidx := ck1(ScalarOf(5))
	if err := MatrixApplyIndexOpScalar(idx, nil, nil, RowIndex[int], a, sidx, nil); err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, idx, []Index{0, 1}, []Index{1, 0}, []int{5, 6})
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

// TestTableIV_SelectOperatorsMatrix exercises every Table IV "keep" operator
// on a matrix with known structure.
func TestTableIV_SelectOperatorsMatrix(t *testing.T) {
	setMode(t, Blocking)
	// 4x4 fully dense with value = 10*i + j
	var I, J []Index
	var X []int
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			I = append(I, i)
			J = append(J, j)
			X = append(X, 10*i+j)
		}
	}
	a := mustMatrix(t, 4, 4, I, J, X)
	sel := func(op IndexUnaryOp[int, int, bool], s int) *Matrix[int] {
		c := ck1(NewMatrix[int](4, 4))
		if err := MatrixSelect(c, nil, nil, op, a, s, nil); err != nil {
			t.Fatal(err)
		}
		return c
	}
	count := func(m *Matrix[int]) int { return ck1(m.Nvals()) }

	if n := count(sel(TriL[int], 0)); n != 10 {
		t.Fatalf("TriL(0) kept %d, want 10", n)
	}
	if n := count(sel(TriL[int], -1)); n != 6 {
		t.Fatalf("TriL(-1) kept %d, want 6", n)
	}
	if n := count(sel(TriU[int], 0)); n != 10 {
		t.Fatalf("TriU(0) kept %d, want 10", n)
	}
	if n := count(sel(TriU[int], 1)); n != 6 {
		t.Fatalf("TriU(1) kept %d, want 6", n)
	}
	if n := count(sel(Diag[int], 0)); n != 4 {
		t.Fatalf("Diag(0) kept %d, want 4", n)
	}
	if n := count(sel(Diag[int], 1)); n != 3 {
		t.Fatalf("Diag(1) kept %d, want 3", n)
	}
	if n := count(sel(Offdiag[int], 0)); n != 12 {
		t.Fatalf("Offdiag(0) kept %d, want 12", n)
	}
	if n := count(sel(RowLE[int], 1)); n != 8 {
		t.Fatalf("RowLE(1) kept %d, want 8", n)
	}
	if n := count(sel(RowGT[int], 1)); n != 8 {
		t.Fatalf("RowGT(1) kept %d, want 8", n)
	}
	if n := count(sel(ColLE[int], 0)); n != 4 {
		t.Fatalf("ColLE(0) kept %d, want 4", n)
	}
	if n := count(sel(ColGT[int], 2)); n != 4 {
		t.Fatalf("ColGT(2) kept %d, want 4", n)
	}
	if n := count(sel(ValueEQ[int], 12)); n != 1 {
		t.Fatalf("ValueEQ kept %d, want 1", n)
	}
	if n := count(sel(ValueNE[int], 12)); n != 15 {
		t.Fatalf("ValueNE kept %d, want 15", n)
	}
	if n := count(sel(ValueLT[int], 10)); n != 4 {
		t.Fatalf("ValueLT(10) kept %d, want 4", n)
	}
	if n := count(sel(ValueLE[int], 10)); n != 5 {
		t.Fatalf("ValueLE(10) kept %d, want 5", n)
	}
	if n := count(sel(ValueGT[int], 30)); n != 3 {
		t.Fatalf("ValueGT(30) kept %d, want 3", n)
	}
	if n := count(sel(ValueGE[int], 30)); n != 4 {
		t.Fatalf("ValueGE(30) kept %d, want 4", n)
	}

	// TriL(-1) ∪ Diag(0) ∪ TriU(1) partitions the pattern.
	l := count(sel(TriL[int], -1))
	d := count(sel(Diag[int], 0))
	u := count(sel(TriU[int], 1))
	an := ck1(a.Nvals())
	if l+d+u != an {
		t.Fatalf("tril/diag/triu partition: %d+%d+%d != %d", l, d, u, an)
	}
}

func TestSelectVectorAndScalarVariant(t *testing.T) {
	setMode(t, Blocking)
	u := mustVector(t, 6, []Index{0, 1, 3, 5}, []int{4, 9, 2, 7})
	w := ck1(NewVector[int](6))
	// vector RowLE keeps indices <= 2
	if err := VectorSelect(w, nil, nil, RowLE[int], u, 2, nil); err != nil {
		t.Fatal(err)
	}
	vectorEquals(t, w, []Index{0, 1}, []int{4, 9})
	// value select via GrB_Scalar
	s := ck1(ScalarOf(4))
	if err := VectorSelectScalar(w, nil, nil, ValueGT[int], u, s, nil); err != nil {
		t.Fatal(err)
	}
	vectorEquals(t, w, []Index{1, 5}, []int{9, 7})
	empty := ck1(NewScalar[int]())
	wantCode(t, VectorSelectScalar(w, nil, nil, ValueGT[int], u, empty, nil), EmptyObject)
	// matrix scalar variant
	a := mustMatrix(t, 2, 2, []Index{0, 1}, []Index{0, 1}, []int{1, 9})
	c := ck1(NewMatrix[int](2, 2))
	if err := MatrixSelectScalar(c, nil, nil, ValueGT[int], a, s, nil); err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, c, []Index{1}, []Index{1}, []int{9})
	wantCode(t, MatrixSelectScalar(c, nil, nil, ValueGT[int], a, empty, nil), EmptyObject)
}

// TestSelectWithMaskAccum checks select runs through the full
// mask/accumulator pipeline like any other operation.
func TestSelectWithMaskAccum(t *testing.T) {
	setMode(t, Blocking)
	a := mustMatrix(t, 2, 2, []Index{0, 0, 1, 1}, []Index{0, 1, 0, 1}, []int{1, 2, 3, 4})
	c := mustMatrix(t, 2, 2, []Index{0, 1}, []Index{0, 0}, []int{100, 300})
	mask := boolMatrix(t,
		[][]bool{{true, false}, {true, true}},
		[][]bool{{true, true}, {true, false}})
	// T = triu(A,0) = {(0,0):1,(0,1):2,(1,1):4}; Z = C + T
	// mask(value): true at (0,0),(1,0); (0,1) present-false; (1,1) absent
	if err := MatrixSelect(c, mask, Plus[int], TriU[int], a, 0, nil); err != nil {
		t.Fatal(err)
	}
	// (0,0): mask true -> z=101; (0,1): mask false -> keep none (c had none)
	// (1,0): mask true -> z=c only=300; (1,1): absent -> keep c (none)
	matrixEquals(t, c, []Index{0, 1}, []Index{0, 0}, []int{101, 300})
}
