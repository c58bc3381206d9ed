package grb

import "testing"

// Deeper coverage of the nonblocking sequence engine: chained deferrals,
// interleavings of element updates with operations, and reads that force
// completion at every entry point.

func TestChainedDeferredOperations(t *testing.T) {
	setMode(t, NonBlocking)
	// A is the 3-cycle shift; A³ = I.
	a := mustMatrix(t, 3, 3, []Index{0, 1, 2}, []Index{1, 2, 0}, []int{1, 1, 1})
	c := ck1(NewMatrix[int](3, 3))
	if err := MxM(c, nil, nil, PlusTimes[int](), a, a, nil); err != nil {
		t.Fatal(err)
	}
	// Chain: c = c·a (flushes the pending first product at enqueue).
	if err := MxM(c, nil, nil, PlusTimes[int](), c, a, nil); err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, c, []Index{0, 1, 2}, []Index{0, 1, 2}, []int{1, 1, 1})
}

func TestSetElementThenOperationOrder(t *testing.T) {
	setMode(t, NonBlocking)
	a := mustMatrix(t, 2, 2, []Index{0, 1}, []Index{0, 1}, []int{1, 1})
	c := ck1(NewMatrix[int](2, 2))
	// setElement before the op: the op (with accumulate) must see it.
	if err := c.SetElement(100, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := MxM(c, nil, Plus[int], PlusTimes[int](), a, a, nil); err != nil {
		t.Fatal(err)
	}
	// set after the op: applies on top of the op result.
	if err := c.SetElement(7, 1, 1); err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, c, []Index{0, 1}, []Index{0, 1}, []int{101, 7})
}

func TestRemoveAfterDeferredOp(t *testing.T) {
	setMode(t, NonBlocking)
	a := mustMatrix(t, 2, 2, []Index{0, 1}, []Index{0, 1}, []int{2, 3})
	c := ck1(NewMatrix[int](2, 2))
	if err := MxM(c, nil, nil, PlusTimes[int](), a, a, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveElement(0, 0); err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, c, []Index{1}, []Index{1}, []int{9})
}

func TestDupForcesCompletion(t *testing.T) {
	setMode(t, NonBlocking)
	a := mustMatrix(t, 2, 2, []Index{0}, []Index{1}, []int{5})
	c := ck1(NewMatrix[int](2, 2))
	if err := Transpose(c, nil, nil, a, nil); err != nil {
		t.Fatal(err)
	}
	d, err := c.Dup()
	if err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, d, []Index{1}, []Index{0}, []int{5})
}

func TestEveryReadForcesSequence(t *testing.T) {
	setMode(t, NonBlocking)
	build := func() *Matrix[int] {
		a := mustMatrix(t, 2, 2, []Index{0, 1}, []Index{1, 0}, []int{1, 2})
		c := ck1(NewMatrix[int](2, 2))
		if err := MxM(c, nil, nil, PlusTimes[int](), a, a, nil); err != nil {
			t.Fatal(err)
		}
		return c
	}
	// Nvals
	c := build()
	if nv := ck1(c.Nvals()); nv != 2 {
		t.Fatalf("Nvals = %d", nv)
	}
	// ExtractElement
	c = build()
	if v, _ := ck2(c.ExtractElement(0, 0)); v != 2 {
		t.Fatalf("extract = %d", v)
	}
	// ExtractTuples
	c = build()
	_, _, X := ck3(c.ExtractTuples())
	if len(X) != 2 || X[0] != 2 {
		t.Fatalf("tuples = %v", X)
	}
	// Export
	c = build()
	_, _, vals, err := c.MatrixExport(FormatCSR)
	if err != nil || vals[0] != 2 {
		t.Fatalf("export = %v, %v", vals, err)
	}
	// Serialize
	c = build()
	blob, err := c.SerializeBytes()
	if err != nil {
		t.Fatal(err)
	}
	back := ck1(MatrixDeserialize[int](blob))
	if v, _ := ck2(back.ExtractElement(0, 0)); v != 2 {
		t.Fatalf("serialized = %d", v)
	}
	// use as input of another operation
	c = build()
	d := ck1(NewMatrix[int](2, 2))
	if err := MatrixApply(d, nil, nil, Identity[int], c, nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := ck2(d.ExtractElement(0, 0)); v != 2 {
		t.Fatalf("apply of pending input = %d", v)
	}
}

func TestClearDiscardsPendingWork(t *testing.T) {
	setMode(t, NonBlocking)
	a := mustMatrix(t, 2, 2, []Index{0, 1}, []Index{0, 1}, []int{1, 1})
	c := ck1(NewMatrix[int](2, 2))
	if err := MxM(c, nil, nil, PlusTimes[int](), a, a, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Clear(); err != nil {
		t.Fatal(err)
	}
	nv := ck1(c.Nvals())
	if nv != 0 {
		t.Fatalf("pending op survived Clear: nvals=%d", nv)
	}
}

func TestBlockingModeIsEager(t *testing.T) {
	setMode(t, Blocking)
	a := mustMatrix(t, 2, 2, []Index{0, 1}, []Index{0, 1}, []int{1, 1})
	c := ck1(NewMatrix[int](2, 2))
	if err := MxM(c, nil, nil, PlusTimes[int](), a, a, nil); err != nil {
		t.Fatal(err)
	}
	// In blocking mode no pending work remains after the call.
	c.mu.Lock()
	pending := len(c.pending) + len(c.tuples)
	c.mu.Unlock()
	if pending != 0 {
		t.Fatalf("blocking mode left %d pending steps", pending)
	}
}

// TestFreedContextBlocksOperations: operating on objects whose context has
// been freed is an UninitializedObject error.
func TestFreedContextBlocksOperations(t *testing.T) {
	setMode(t, NonBlocking)
	ctx := ck1(NewContext(NonBlocking, nil, WithThreads(1)))
	a := ck1(NewMatrix[int](2, 2, InContext(ctx)))
	if err := a.SetElement(1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Free(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Nvals(); Code(err) != UninitializedObject {
		t.Fatalf("op in freed context: %v", err)
	}
	c := ck1(NewMatrix[int](2, 2))
	wantCode(t, MxM(c, nil, nil, PlusTimes[int](), a, a, nil), UninitializedObject)
}

// TestFinalizeInvalidatesObjects: after Finalize, every method reports
// UninitializedObject (the library context is gone).
func TestFinalizeInvalidatesObjects(t *testing.T) {
	setMode(t, NonBlocking)
	m := ck1(NewMatrix[int](2, 2))
	if err := Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Nvals(); Code(err) != UninitializedObject {
		t.Fatalf("after Finalize: %v", err)
	}
}

// Build reads its arguments at the call (the bucket pass is the defensive
// copy) and folds at the drain: changing the slices in between changes
// nothing, and a duplicate under a nil dup is still the sequence's error,
// not the call's.
func TestBuildReadsItsArgumentsAtTheCall(t *testing.T) {
	setMode(t, NonBlocking)
	I, J, X := []Index{2, 0, 2, 1, 2}, []Index{1, 3, 1, 0, 0}, []int{10, 20, 3, 40, 50}
	a := ck1(NewMatrix[int](3, 4))
	if err := a.Build(I, J, X, Minus[int]); err != nil {
		t.Fatal(err)
	}
	for k := range I {
		I[k], J[k], X[k] = 0, 0, -1
	}
	// Minus does not commute: (2,1) folds as 10-3, in input order.
	matrixEquals(t, a, []Index{0, 1, 2, 2}, []Index{3, 0, 0, 1}, []int{20, 40, 50, 7})

	I, J, X = []Index{1, 1}, []Index{2, 2}, []int{1, 2}
	b := ck1(NewMatrix[int](3, 4))
	if err := b.Build(I, J, X, nil); err != nil {
		t.Fatalf("nonblocking Build should defer the duplicate error, got %v now", err)
	}
	J[1] = 3 // no longer a duplicate, but Build has already read it
	if err := b.Wait(Materialize); Code(err) != InvalidValue {
		t.Fatalf("Wait(Materialize) = %v, want InvalidValue (duplicate with nil dup)", err)
	}
}
