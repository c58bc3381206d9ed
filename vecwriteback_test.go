package grb

import (
	"runtime"
	"sync"
	"testing"
)

// The vector kernels share an operand's immutable index array with their
// output when the pattern is unchanged (DESIGN.md, "Vector write-back:
// sharing and exact allocation"). These tests pin the other half of that
// contract at the API: no mutation of either object, and no slice handed to
// the caller, reaches the sharing sibling.

// sharesIndexArray reports whether the two settled vectors store their
// positions in one backing array.
func sharesIndexArray[A, B any](t *testing.T, a *Vector[A], b *Vector[B]) bool {
	t.Helper()
	as, bs := ck1(a.snapshot()), ck1(b.snapshot())
	return len(as.Ind) > 0 && len(as.Ind) == len(bs.Ind) && &as.Ind[0] == &bs.Ind[0]
}

var vectorMutations = []string{"SetElement", "RemoveElement", "Clear", "Resize", "masked assign", "Free"}

// mutateVector applies one mutation to v and settles it.
func mutateVector[T any](t *testing.T, v *Vector[T], x T, kind string) {
	t.Helper()
	switch kind {
	case "SetElement":
		ck(v.SetElement(x, 1)) // overwrites a stored entry
		ck(v.SetElement(x, 2)) // inserts a new one
	case "RemoveElement":
		ck(v.RemoveElement(1))
	case "Clear":
		ck(v.Clear())
	case "Resize":
		ck(v.Resize(4))
		ck(v.Resize(12))
	case "masked assign":
		mask := ck1(NewVector[bool](8))
		ck(mask.SetElement(true, 1))
		ck(mask.SetElement(true, 6))
		ck(VectorAssignScalar(v, mask, nil, x, All, DescS))
	case "Free":
		ck(v.Free())
		return
	}
	ck(v.Wait(Materialize))
}

// checkIsolation builds a (source, derived) pair that shares an index array,
// then mutates each side in every way and requires the other bit-identical.
func checkIsolation[A, B comparable](t *testing.T, name string, build func() (*Vector[A], *Vector[B]), ax A, bx B) {
	for _, kind := range vectorMutations {
		t.Run(name+"/"+kind+" on source", func(t *testing.T) {
			src, der := build()
			if !sharesIndexArray(t, src, der) {
				t.Fatal("the pair does not share an index array; the test would prove nothing")
			}
			wantI, wantX := ck2(der.ExtractTuples())
			mutateVector(t, src, ax, kind)
			vectorEquals(t, der, wantI, wantX)
		})
		t.Run(name+"/"+kind+" on derived", func(t *testing.T) {
			src, der := build()
			wantI, wantX := ck2(src.ExtractTuples())
			mutateVector(t, der, bx, kind)
			vectorEquals(t, src, wantI, wantX)
		})
	}
}

func TestSharedIndexArraysAreIsolated(t *testing.T) {
	setMode(t, NonBlocking)
	idx := []Index{1, 3, 4, 7}
	source := func() *Vector[int] { return mustVector(t, 8, idx, []int{10, 30, 40, 70}) }

	checkIsolation(t, "VectorApply", func() (*Vector[int], *Vector[int]) {
		u, w := source(), ck1(NewVector[int](8))
		ck(VectorApply(w, nil, nil, AInv[int], u, nil))
		return u, w
	}, 99, -99)

	checkIsolation(t, "EWiseAddVector", func() (*Vector[int], *Vector[int]) {
		u, w := source(), ck1(NewVector[int](8))
		v := mustVector(t, 8, idx, []int{1, 2, 3, 4}) // same pattern, its own arrays
		ck(EWiseAddVector(w, nil, nil, Minus[int], u, v, nil))
		return u, w
	}, 99, -99)

	checkIsolation(t, "AsVectorMaskFunc", func() (*Vector[int], *Vector[bool]) {
		u := source()
		return u, ck1(AsVectorMaskFunc(u, func(x int) bool { return x > 20 }))
	}, 99, true)
}

// TestReturnedSlicesAreCallerOwned scribbles over everything ExtractTuples,
// VectorExport and SerializeBytes return, for a vector whose index array is
// shared, and requires both sharers unchanged.
func TestReturnedSlicesAreCallerOwned(t *testing.T) {
	setMode(t, NonBlocking)
	u := mustVector(t, 8, []Index{1, 3, 4, 7}, []int{10, 30, 40, 70})
	w := ck1(NewVector[int](8))
	ck(VectorApply(w, nil, nil, AInv[int], u, nil))
	if !sharesIndexArray(t, u, w) {
		t.Fatal("apply output does not share its input's index array")
	}
	for _, v := range []*Vector[int]{u, w} {
		I, X := ck2(v.ExtractTuples())
		wantI, wantX := append([]Index(nil), I...), append([]int(nil), X...)
		eI, eX := ck2(v.VectorExport(FormatSparseVector))
		data := ck1(v.SerializeBytes())
		for _, s := range [][]Index{I, eI} {
			for k := range s {
				s[k] = -1
			}
		}
		for _, s := range [][]int{X, eX} {
			for k := range s {
				s[k] = 12345
			}
		}
		for k := range data {
			data[k] = 0xff
		}
		vectorEquals(t, v, wantI, wantX)
	}
	vectorEquals(t, u, []Index{1, 3, 4, 7}, []int{10, 30, 40, 70})
	vectorEquals(t, w, []Index{1, 3, 4, 7}, []int{-10, -30, -40, -70})
}

// TestConcurrentAppliesShareOneInput runs two goroutines deriving different
// vectors from one shared input; under -race any write through the shared
// index array is a reported race.
func TestConcurrentAppliesShareOneInput(t *testing.T) {
	setMode(t, NonBlocking)
	n := 512
	I, X := make([]Index, 0, n/2), make([]int, 0, n/2)
	for i := 0; i < n; i += 2 {
		I, X = append(I, i), append(X, i+1)
	}
	u := mustVector(t, n, I, X)
	ck(u.Wait(Materialize))
	ops := []UnaryOp[int, int]{AInv[int], func(x int) int { return 3 * x }}
	var wg sync.WaitGroup
	for g, op := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				w, err := NewVector[int](n)
				if err != nil {
					t.Error(err)
					return
				}
				if err := VectorApply(w, nil, nil, op, u, nil); err != nil {
					t.Error(err)
					return
				}
				if err := EWiseAddVector(w, nil, nil, Plus[int], w, u, nil); err != nil {
					t.Error(err)
					return
				}
				if err := w.SetElement(round, 1); err != nil { // mutate the sharer
					t.Error(err)
					return
				}
				gotI, gotX, err := w.ExtractTuples()
				if err != nil {
					t.Error(err)
					return
				}
				if len(gotI) != len(I)+1 || gotX[0] != op(X[0])+X[0] || gotI[1] != 1 || gotX[1] != round {
					t.Errorf("goroutine %d round %d: wrong result (%d entries)", g, round, len(gotI))
					return
				}
			}
		}()
	}
	wg.Wait()
	vectorEquals(t, u, I, X)
}

// TestMaskedScalarAssignAllocatesByMask pins the fused masked scalar assign:
// w⟨m⟩ = x over all of w costs O(|w| + |m|) bytes, not O(n). Before the
// fusion this call built an n-entry candidate and an n-entry membership
// bitmap (about 40 MB at this size) to keep ten entries. Allocation deltas,
// not wall clock, so the pin holds on a noisy host.
func TestMaskedScalarAssignAllocatesByMask(t *testing.T) {
	setMode(t, Blocking)
	n := 1 << 20
	mask := ck1(NewVector[bool](n))
	for k := 0; k < 10; k++ {
		ck(mask.SetElement(true, k*(n/10)+3))
	}
	w := ck1(NewVector[int](n))
	assign := func() { ck(VectorAssignScalar(w, mask, nil, 7, All, DescS)) }
	assign() // settle the mask and warm the path
	best := ^uint64(0)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		assign()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best >= 4<<10 {
		t.Fatalf("masked scalar assign with a 10-entry mask on n=%d allocated %d bytes, want < 4 KB", n, best)
	}
	if nv := ck1(w.Nvals()); nv != 10 {
		t.Fatalf("nvals = %d, want 10", nv)
	}
}
