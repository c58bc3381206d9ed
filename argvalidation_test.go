package grb

import "testing"

// Argument-validation sweep: every operation family must reject nil and
// uninitialized operands with the right API error, before touching anything.

func TestOpsRejectNilOperands(t *testing.T) {
	setMode(t, Blocking)
	a := mustMatrix(t, 2, 2, []Index{0}, []Index{0}, []int{1})
	u := mustVector(t, 2, []Index{0}, []int{1})
	c := ck1(NewMatrix[int](2, 2))
	w := ck1(NewVector[int](2))
	var nilM *Matrix[int]
	var nilV *Vector[int]

	wantCode(t, MxM(nilM, nil, nil, PlusTimes[int](), a, a, nil), NullPointer)
	wantCode(t, MxM(c, nil, nil, PlusTimes[int](), nilM, a, nil), NullPointer)
	wantCode(t, MxM(c, nil, nil, PlusTimes[int](), a, nilM, nil), NullPointer)
	wantCode(t, MxV(nilV, nil, nil, PlusTimes[int](), a, u, nil), NullPointer)
	wantCode(t, MxV(w, nil, nil, PlusTimes[int](), nilM, u, nil), NullPointer)
	wantCode(t, MxV(w, nil, nil, PlusTimes[int](), a, nilV, nil), NullPointer)
	wantCode(t, VxM(w, nil, nil, PlusTimes[int](), nilV, a, nil), NullPointer)
	wantCode(t, EWiseAddMatrix(c, nil, nil, Plus[int], nilM, a, nil), NullPointer)
	wantCode(t, EWiseMultMatrix(c, nil, nil, Times[int], a, nilM, nil), NullPointer)
	wantCode(t, EWiseAddVector(w, nil, nil, Plus[int], nilV, u, nil), NullPointer)
	wantCode(t, EWiseMultVector(w, nil, nil, Times[int], u, nilV, nil), NullPointer)
	wantCode(t, MatrixApply(c, nil, nil, Identity[int], nilM, nil), NullPointer)
	wantCode(t, VectorApply(w, nil, nil, Identity[int], nilV, nil), NullPointer)
	wantCode(t, MatrixSelect(c, nil, nil, TriL[int], nilM, 0, nil), NullPointer)
	wantCode(t, VectorSelect(w, nil, nil, RowLE[int], nilV, 0, nil), NullPointer)
	wantCode(t, MatrixExtract(c, nil, nil, nilM, All, All, nil), NullPointer)
	wantCode(t, VectorExtract(w, nil, nil, nilV, All, nil), NullPointer)
	wantCode(t, ColExtract(w, nil, nil, nilM, All, 0, nil), NullPointer)
	wantCode(t, MatrixAssign(c, nil, nil, nilM, All, All, nil), NullPointer)
	wantCode(t, VectorAssign(w, nil, nil, nilV, All, nil), NullPointer)
	wantCode(t, RowAssign(c, nil, nil, nilV, 0, All, nil), NullPointer)
	wantCode(t, ColAssign(c, nil, nil, nilV, All, 0, nil), NullPointer)
	wantCode(t, Transpose(c, nil, nil, nilM, nil), NullPointer)
	wantCode(t, Kronecker(c, nil, nil, Times[int], nilM, a, nil), NullPointer)
	wantCode(t, MatrixReduceToVector(w, nil, nil, PlusMonoid[int](), nilM, nil), NullPointer)
	s := ck1(NewScalar[int]())
	wantCode(t, MatrixReduceToScalar(s, nil, PlusMonoid[int](), nilM, nil), NullPointer)
	wantCode(t, VectorReduceToScalar(s, nil, PlusMonoid[int](), nilV, nil), NullPointer)
	var nilS *Scalar[int]
	wantCode(t, MatrixReduceToScalar(nilS, nil, PlusMonoid[int](), a, nil), NullPointer)
	if _, err := MatrixReduce(PlusMonoid[int](), nilM); Code(err) != NullPointer {
		t.Fatalf("MatrixReduce nil: %v", err)
	}
	if _, err := VectorReduce(PlusMonoid[int](), nilV); Code(err) != NullPointer {
		t.Fatalf("VectorReduce nil: %v", err)
	}
	if _, err := MatrixDiag(nilV, 0); Code(err) != NullPointer {
		t.Fatalf("MatrixDiag nil: %v", err)
	}
	if _, err := AsMask(nilM); Code(err) != NullPointer {
		t.Fatalf("AsMask nil: %v", err)
	}
	if _, err := AsVectorMask(nilV); Code(err) != NullPointer {
		t.Fatalf("AsVectorMask nil: %v", err)
	}
}

func TestOpsRejectUninitializedOperands(t *testing.T) {
	setMode(t, Blocking)
	a := mustMatrix(t, 2, 2, []Index{0}, []Index{0}, []int{1})
	c := ck1(NewMatrix[int](2, 2))
	var zero Matrix[int] // constructed without NewMatrix
	wantCode(t, MxM(c, nil, nil, PlusTimes[int](), &zero, a, nil), UninitializedObject)
	freed := mustMatrix(t, 2, 2, nil, nil, []int(nil))
	ck(freed.Free())
	wantCode(t, MxM(c, nil, nil, PlusTimes[int](), freed, a, nil), UninitializedObject)
	wantCode(t, MxM(freed, nil, nil, PlusTimes[int](), a, a, nil), UninitializedObject)
	// uninitialized masks are rejected too
	var zeroMask Matrix[bool]
	wantCode(t, MxM(c, &zeroMask, nil, PlusTimes[int](), a, a, nil), UninitializedObject)
}

// TestOpsRejectOutOfRangeDirection: Descriptor.Dir outside {DirAuto, DirPush,
// DirPull} is an API error on every operation, the multiplies that read it
// and the rest alike, and the output is left as it was.
func TestOpsRejectOutOfRangeDirection(t *testing.T) {
	setMode(t, NonBlocking)
	a := mustMatrix(t, 2, 2, []Index{0, 1}, []Index{1, 0}, []int{1, 2})
	u := mustVector(t, 2, []Index{0}, []int{1})
	for _, dir := range []Direction{3, -1} {
		d := &Descriptor{Dir: dir}
		w := mustVector(t, 2, []Index{1}, []int{7})
		wantCode(t, MxV(w, nil, nil, PlusTimes[int](), a, u, d), InvalidValue)
		wantCode(t, VxM(w, nil, nil, PlusTimes[int](), u, a, d), InvalidValue)
		wantCode(t, EWiseAddVector(w, nil, nil, Plus[int], u, u, d), InvalidValue)
		vectorEquals(t, w, []Index{1}, []int{7})
	}
}

func TestVectorContextPlumbing(t *testing.T) {
	setMode(t, NonBlocking)
	ctx1 := ck1(NewContext(NonBlocking, nil, WithThreads(1)))
	ctx2 := ck1(NewContext(NonBlocking, nil, WithThreads(1)))
	u, err := NewVector[int](3, InContext(ctx1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := u.Context()
	if err != nil || got != ctx1 {
		t.Fatalf("vector context: %v %v", got, err)
	}
	v := ck1(NewVector[int](3, InContext(ctx2)))
	w := ck1(NewVector[int](3, InContext(ctx1)))
	wantCode(t, EWiseAddVector(w, nil, nil, Plus[int], u, v, nil), InvalidValue)
	if err := v.SwitchContext(ctx1); err != nil {
		t.Fatal(err)
	}
	if err := EWiseAddVector(w, nil, nil, Plus[int], u, v, nil); err != nil {
		t.Fatal(err)
	}
	// vector in freed context
	if err := ctx1.Free(); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Nvals(); Code(err) != UninitializedObject {
		t.Fatalf("vector in freed ctx: %v", err)
	}
	// SwitchContext validation
	wantCode(t, v.SwitchContext(nil), NullPointer)
	wantCode(t, v.SwitchContext(ctx1), UninitializedObject) // freed target
}

// TestMatrixVectorMixedContextOps checks the shared-context rule on
// matrix-vector operations too.
func TestMatrixVectorMixedContextOps(t *testing.T) {
	setMode(t, NonBlocking)
	c1 := ck1(NewContext(NonBlocking, nil, WithThreads(1)))
	c2 := ck1(NewContext(NonBlocking, nil, WithThreads(1)))
	a := ck1(NewMatrix[int](2, 2, InContext(c1)))
	ck(a.SetElement(1, 0, 0))
	u := ck1(NewVector[int](2, InContext(c2)))
	ck(u.SetElement(1, 0))
	w := ck1(NewVector[int](2, InContext(c1)))
	wantCode(t, MxV(w, nil, nil, PlusTimes[int](), a, u, nil), InvalidValue)
	if err := u.SwitchContext(c1); err != nil {
		t.Fatal(err)
	}
	if err := MxV(w, nil, nil, PlusTimes[int](), a, u, nil); err != nil {
		t.Fatal(err)
	}
	vectorEquals(t, w, []Index{0}, []int{1})
}
