package grb

import "testing"

// TestTableI_ScalarMethods exercises the six GrB_Scalar manipulation methods
// of Table I, including the empty-scalar states §VI emphasizes.
func TestTableI_ScalarMethods(t *testing.T) {
	setMode(t, Blocking)

	// GrB_Scalar_new: starts empty.
	s, err := NewScalar[float64]()
	if err != nil {
		t.Fatal(err)
	}
	nv, err := s.Nvals()
	if err != nil || nv != 0 {
		t.Fatalf("new scalar nvals = %d, %v", nv, err)
	}
	if _, ok, err := s.ExtractElement(); ok || err != nil {
		t.Fatalf("new scalar should be empty (%v)", err)
	}

	// GrB_Scalar_setElement.
	if err := s.SetElement(2.5); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.ExtractElement()
	if err != nil || !ok || v != 2.5 {
		t.Fatalf("extract = %v,%v,%v", v, ok, err)
	}
	nv = ck1(s.Nvals())
	if nv != 1 {
		t.Fatalf("nvals = %d, want 1", nv)
	}

	// GrB_Scalar_dup is independent of the original.
	d, err := s.Dup()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetElement(9); err != nil {
		t.Fatal(err)
	}
	dv, dok := ck2(d.ExtractElement())
	if !dok || dv != 2.5 {
		t.Fatalf("dup sees %v,%v (should be snapshot)", dv, dok)
	}

	// GrB_Scalar_clear empties.
	if err := s.Clear(); err != nil {
		t.Fatal(err)
	}
	nv = ck1(s.Nvals())
	if nv != 0 {
		t.Fatalf("after clear nvals = %d", nv)
	}
}

func TestScalarOfAndWaitAndFree(t *testing.T) {
	setMode(t, NonBlocking)
	s, err := ScalarOf(42)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := ck2(s.ExtractElement()); !ok || v != 42 {
		t.Fatalf("ScalarOf = %v,%v", v, ok)
	}
	if err := s.Wait(Complete); err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(Materialize); err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(WaitMode(5)); Code(err) != InvalidValue {
		t.Fatalf("bad wait mode: %v", err)
	}
	if s.ErrorString() != "" {
		t.Fatal("fresh scalar has error string")
	}
	if err := s.Free(); err != nil {
		t.Fatal(err)
	}
	// After free: uninitialized object semantics.
	if _, err := s.Nvals(); Code(err) != UninitializedObject {
		t.Fatalf("nvals after free: %v", err)
	}
	if err := s.SetElement(1); Code(err) != UninitializedObject {
		t.Fatalf("set after free: %v", err)
	}
}

// TestNewScalarInContext: InContext places a new scalar in that context, and
// a reduction into it then shares the context of a vector there — which a
// scalar placed in a sibling context does not.
func TestNewScalarInContext(t *testing.T) {
	setMode(t, NonBlocking)
	ctx := ck1(NewContext(NonBlocking, nil, WithThreads(1)))
	s := ck1(NewScalar[int](InContext(ctx)))
	if s.ctx != ctx {
		t.Fatalf("scalar context %p, want %p", s.ctx, ctx)
	}
	u := ck1(NewVector[int](3, InContext(ctx)))
	ck(u.SetElement(4, 1))
	if err := VectorReduceToScalar(s, nil, PlusMonoid[int](), u, nil); err != nil {
		t.Fatal(err)
	}
	if v, ok := ck2(s.ExtractElement()); !ok || v != 4 {
		t.Fatalf("reduced = %v,%v", v, ok)
	}
	other := ck1(NewScalar[int](InContext(ck1(NewContext(NonBlocking, nil)))))
	if err := VectorReduceToScalar(other, nil, PlusMonoid[int](), u, nil); Code(err) != InvalidValue {
		t.Fatalf("reduce across contexts: %v", err)
	}
}

func TestScalarUninitialized(t *testing.T) {
	setMode(t, Blocking)
	var s *Scalar[int]
	if _, _, err := s.ExtractElement(); Code(err) != NullPointer {
		t.Fatalf("nil scalar: %v", err)
	}
	var zero Scalar[int]
	if _, err := zero.Nvals(); Code(err) != UninitializedObject {
		t.Fatalf("zero-value scalar: %v", err)
	}
}

func TestScalarUserDefinedDomain(t *testing.T) {
	setMode(t, Blocking)
	type pt struct{ X, Y int }
	s, err := NewScalar[pt]()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetElement(pt{1, 2}); err != nil {
		t.Fatal(err)
	}
	v, ok := ck2(s.ExtractElement())
	if !ok || v != (pt{1, 2}) {
		t.Fatalf("user-defined domain: %v,%v", v, ok)
	}
}
