package grb

import "testing"

func TestMatrixFromTuples(t *testing.T) {
	setMode(t, Blocking)
	m, err := MatrixFromTuples(2, 3, []Index{0, 1}, []Index{2, 0}, []int{7, 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, m, []Index{0, 1}, []Index{2, 0}, []int{7, 8})
	// empty tuples: empty matrix
	e, err := MatrixFromTuples[int](2, 2, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nv := ck1(e.Nvals()); nv != 0 {
		t.Fatal("empty FromTuples not empty")
	}
	// errors pass through
	if _, err := MatrixFromTuples(2, 2, []Index{5}, []Index{0}, []int{1}, nil); Code(err) != InvalidIndex {
		t.Fatalf("bad index: %v", err)
	}
	if _, err := MatrixFromTuples(0, 2, nil, nil, []int(nil), nil); Code(err) != InvalidValue {
		t.Fatalf("bad dims: %v", err)
	}
	// duplicate combine
	d, err := MatrixFromTuples(2, 2, []Index{0, 0}, []Index{0, 0}, []int{1, 2}, Plus[int])
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := ck2(d.ExtractElement(0, 0)); v != 3 {
		t.Fatalf("dup combine = %d", v)
	}
}

func TestVectorFromTuplesAndDense(t *testing.T) {
	setMode(t, Blocking)
	v, err := VectorFromTuples(4, []Index{1, 3}, []float64{0.5, 1.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	vectorEquals(t, v, []Index{1, 3}, []float64{0.5, 1.5})
	dv, err := DenseVector(3, 42)
	if err != nil {
		t.Fatal(err)
	}
	vectorEquals(t, dv, []Index{0, 1, 2}, []int{42, 42, 42})
}

func TestIdentityMatrix(t *testing.T) {
	setMode(t, Blocking)
	ident, err := IdentityMatrix(3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, ident, []Index{0, 1, 2}, []Index{0, 1, 2}, []float64{1, 1, 1})
	// I·A = A
	a := ck1(MatrixFromTuples(3, 3, []Index{0, 2}, []Index{1, 0}, []float64{2.5, -1}, nil))
	c := ck1(NewMatrix[float64](3, 3))
	if err := MxM(c, nil, nil, PlusTimes[float64](), ident, a, nil); err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, c, []Index{0, 2}, []Index{1, 0}, []float64{2.5, -1})
}

// TestContextConcurrentUse hammers context creation, inspection and freeing
// from many goroutines (race coverage for the Context internals).
func TestContextConcurrentUse(t *testing.T) {
	setMode(t, NonBlocking)
	parent, err := NewContext(NonBlocking, nil, WithThreads(4), withChunk(1))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 16)
	for w := 0; w < 16; w++ {
		go func(w int) {
			child, err := NewContext(NonBlocking, parent, WithThreads(1+w%4))
			if err != nil {
				done <- err
				return
			}
			m, err := NewMatrix[int](4, 4, InContext(child))
			if err != nil {
				done <- err
				return
			}
			if err := m.SetElement(w, w%4, (w+1)%4); err != nil {
				done <- err
				return
			}
			c := ck1(NewMatrix[int](4, 4, InContext(child)))
			if err := MxM(c, nil, nil, PlusTimes[int](), m, m, nil); err != nil {
				done <- err
				return
			}
			if err := c.Wait(Materialize); err != nil {
				done <- err
				return
			}
			_ = child.Threads()
			done <- child.Free()
		}(w)
	}
	for w := 0; w < 16; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
