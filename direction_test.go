package grb

import (
	"math/rand"
	"sync"
	"testing"
)

// sameVector fails unless got and want have identical pattern and values.
func sameVector[T comparable](t *testing.T, label string, got, want *Vector[T]) {
	t.Helper()
	gi, gx, err := got.ExtractTuples()
	if err != nil {
		t.Fatalf("%s: ExtractTuples(got): %v", label, err)
	}
	wi, wx, err := want.ExtractTuples()
	if err != nil {
		t.Fatalf("%s: ExtractTuples(want): %v", label, err)
	}
	if len(gi) != len(wi) {
		t.Fatalf("%s: nvals %d != %d (got %v, want %v)", label, len(gi), len(wi), gi, wi)
	}
	for k := range gi {
		if gi[k] != wi[k] || gx[k] != wx[k] {
			t.Fatalf("%s: entry %d = (%d)=%v, want (%d)=%v", label, k, gi[k], gx[k], wi[k], wx[k])
		}
	}
}

// TestTransposeCacheSingleMaterialization asserts the tentpole's contract:
// any number of Transpose-descriptor operations on an unmodified matrix
// materialize the transpose exactly once, and a mutation (which installs a
// fresh snapshot) costs exactly one more.
func TestTransposeCacheSingleMaterialization(t *testing.T) {
	setMode(t, NonBlocking)
	n := 64
	I := make([]Index, 0, 3*n)
	J := make([]Index, 0, 3*n)
	X := make([]int64, 0, 3*n)
	for i := 0; i < n; i++ {
		for _, j := range []int{(i * 7) % n, (i*13 + 5) % n, (i + 1) % n} {
			I, J, X = append(I, i), append(J, j), append(X, int64(i+j+1))
		}
	}
	a := mustMatrix(t, n, n, I, J, X)
	u := mustVector(t, n, []Index{0, n / 2, n - 1}, []int64{1, 2, 3})
	pullT0 := &Descriptor{Transpose0: true, Dir: DirPull}

	ResetKernelCounts()
	for rep := 0; rep < 5; rep++ {
		w := ck1(NewVector[int64](n))
		if err := MxV(w, nil, nil, PlusTimes[int64](), a, u, pullT0); err != nil {
			t.Fatalf("MxV: %v", err)
		}
		if err := w.Wait(Materialize); err != nil {
			t.Fatalf("Wait: %v", err)
		}
		// The explicit transpose operation must share the same cached view.
		c := ck1(NewMatrix[int64](n, n))
		if err := Transpose(c, nil, nil, a, nil); err != nil {
			t.Fatalf("Transpose: %v", err)
		}
		if err := c.Wait(Materialize); err != nil {
			t.Fatalf("Wait: %v", err)
		}
	}
	if got := TransposeCount(); got != 1 {
		t.Fatalf("10 transpose-view operations materialized %d transposes, want exactly 1", got)
	}

	// A mutation installs a fresh snapshot with an empty cache: exactly one
	// more materialization, however many further reads follow.
	if err := a.SetElement(99, 3, 4); err != nil {
		t.Fatalf("SetElement: %v", err)
	}
	if err := a.Wait(Materialize); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	ResetKernelCounts()
	for rep := 0; rep < 4; rep++ {
		w := ck1(NewVector[int64](n))
		if err := MxV(w, nil, nil, PlusTimes[int64](), a, u, pullT0); err != nil {
			t.Fatalf("MxV: %v", err)
		}
		if err := w.Wait(Materialize); err != nil {
			t.Fatalf("Wait: %v", err)
		}
	}
	if got := TransposeCount(); got != 1 {
		t.Fatalf("post-mutation reads materialized %d transposes, want exactly 1", got)
	}
}

// TestTransposeCacheConcurrentReaders drives concurrent Transpose-descriptor
// readers across mutate→Wait boundaries: each reader must observe a coherent
// (pre- or post-mutation) transpose view, and under -race the cache must be
// data-race free. The final pull result is checked against the push kernel,
// which never touches the cache.
func TestTransposeCacheConcurrentReaders(t *testing.T) {
	setMode(t, NonBlocking)
	n := 128
	I := make([]Index, 0, 4*n)
	J := make([]Index, 0, 4*n)
	X := make([]int64, 0, 4*n)
	rng := rand.New(rand.NewSource(progSeed(t)))
	for k := 0; k < 4*n; k++ {
		I, J, X = append(I, rng.Intn(n)), append(J, rng.Intn(n)), append(X, int64(1+rng.Intn(9)))
	}
	a := mustMatrix(t, n, n, I, J, X)
	ui := make([]Index, n)
	ux := make([]int64, n)
	for i := range ui {
		ui[i], ux[i] = i, 1
	}
	u := mustVector(t, n, ui, ux)
	pullT0 := &Descriptor{Transpose0: true, Dir: DirPull}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w, err := NewVector[int64](n)
				if err != nil {
					t.Error(err)
					return
				}
				if err := MxV(w, nil, nil, PlusTimes[int64](), a, u, pullT0); err != nil {
					t.Errorf("reader MxV: %v", err)
					return
				}
				if err := w.Wait(Materialize); err != nil {
					t.Errorf("reader Wait: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		if err := a.SetElement(int64(i), i%n, (i*31+7)%n); err != nil {
			t.Fatalf("SetElement: %v", err)
		}
		if err := a.Wait(Materialize); err != nil {
			t.Fatalf("Wait: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	wPull := ck1(NewVector[int64](n))
	if err := MxV(wPull, nil, nil, PlusTimes[int64](), a, u, pullT0); err != nil {
		t.Fatalf("final pull MxV: %v", err)
	}
	wPush := ck1(NewVector[int64](n))
	if err := MxV(wPush, nil, nil, PlusTimes[int64](), a, u, &Descriptor{Transpose0: true, Dir: DirPush}); err != nil {
		t.Fatalf("final push MxV: %v", err)
	}
	sameVector(t, "post-mutation pull-vs-push", wPull, wPush)
}
