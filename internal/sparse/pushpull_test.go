package sparse

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/grblas/grb/gen"
)

// The product tests that are not oracles: the routing a dispatch lands on,
// the direction counters, the transpose cache, a panicking accumulator and
// the push's allocation pin. The products' semantics are the program
// generator's (progen_test.go).

// TestChoosePushRouting checks that a product dispatched by ChoosePush (the
// decision table itself is TestPlan) lands on the kernel the plan named: a
// sparse frontier on the push scaffold, a frontier past the cut under a
// sparse non-complemented mask on the pull scaffold, with the same admitted
// result.
func TestChoosePushRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(progSeed(t)))
	const n = 320
	a := sprayCSR(rng, n, n, 4*n, func(r *rand.Rand) int { return 1 + r.Intn(9) })
	at := Transpose(a)
	sparseMask := &Vec[bool]{N: n, Ind: []int{5, 9, 14, 150}, Val: []bool{true, true, true, true}}
	mul := func(x, y int) int { return x * y }
	add := func(x, y int) int { return x + y }
	var u *Vec[int]
	dispatch := func(mask VMask) (*Vec[int], Route) {
		var rt Route
		e := Exec{Threads: 2, Grain: 1, Route: &rt}
		var out *Vec[int]
		var err error
		if ChoosePush(u.NNZ(), n, mask, n) {
			out, err = VxMSemiEx(SemiGeneric, SpecAuto, u, a, mul, add, mask, e)
		} else {
			out, err = SpMVSemiEx(SemiGeneric, SpecAuto, at, u, mul, add, mask, e, KernelAuto)
		}
		if err != nil {
			t.Fatal(err)
		}
		return out, rt
	}

	ResetKernelCounts()
	u = &Vec[int]{N: n, Ind: []int{3, 77, 200}, Val: []int{1, 2, 3}}
	if _, rt := dispatch(VMask{}); !rt.Push {
		t.Fatalf("sparse frontier: route %+v, want the push scaffold", rt)
	}
	if push, pull := DirectionCounts(); push != 1 || pull != 0 {
		t.Fatalf("sparse frontier: push=%d pull=%d, want the push scaffold", push, pull)
	}
	// 200 frontier entries: pushCut·200 >= 320 rows + the mask's 4 listed rows.
	u = &Vec[int]{N: n, Ind: make([]int, 200), Val: make([]int, 200)}
	for k := range u.Ind {
		u.Ind[k], u.Val[k] = k*8/5, 1+k%7
	}
	ResetKernelCounts()
	pushed, _ := dispatch(VMask{})
	ResetKernelCounts()
	pulled, rt := dispatch(VMask{M: sparseMask})
	if push, pull := DirectionCounts(); push != 0 || pull != 1 || rt.Push {
		t.Fatalf("dense frontier, sparse mask: push=%d pull=%d route %+v, want the pull scaffold", push, pull, rt)
	}
	if want := (Route{Acc: AccDense, Reason: ReasonDenseWork, Workers: 2}); rt != want {
		t.Fatalf("sparse mask: pull route %+v, want %+v", rt, want)
	}
	identicalVec(t, "masked pull vs filtered push", pulled, MaskApplyV(NewVec[int](n), pushed, VMask{M: sparseMask}, true))
}

// TestDirectionCounters checks that the push/pull kernels bump their routing
// counters and that ResetKernelCounts clears them along with the transpose
// materialization count.
func TestDirectionCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(progSeed(t)))
	a := sprayCSR(rng, 20, 20, 60, func(r *rand.Rand) int { return 1 + r.Intn(9) })
	u := NewVec[int](20)
	u.Ind = append(u.Ind, 3)
	u.Val = append(u.Val, 2)
	mul := func(x, y int) int { return x * y }
	add := func(x, y int) int { return x + y }

	ResetKernelCounts()
	closureVxM(u, a, mul, add, VMask{}, 2)
	closureSpMV(a, u, mul, add, VMask{}, 2, KernelAuto)
	closureSpMV(a, u, mul, add, VMask{}, 2, KernelAuto)
	push, pull := DirectionCounts()
	if push != 1 || pull != 2 {
		t.Fatalf("DirectionCounts = (%d, %d), want (1, 2)", push, pull)
	}
	Transpose(a)
	if TransposeCount() == 0 {
		t.Fatal("Transpose did not bump the materialization counter")
	}
	ResetKernelCounts()
	push, pull = DirectionCounts()
	if push != 0 || pull != 0 || TransposeCount() != 0 {
		t.Fatal("ResetKernelCounts did not clear the direction/transpose counters")
	}
}

// TestTransposeCachedMemoization checks the CSR-resident cache contract:
// repeated calls return the identical materialization, the reverse direction
// is pre-seeded ((Aᵀ)ᵀ = A, same object), and each distinct CSR pays exactly
// one materialization.
func TestTransposeCachedMemoization(t *testing.T) {
	rng := rand.New(rand.NewSource(progSeed(t)))
	a := sprayCSR(rng, 30, 40, 100, func(r *rand.Rand) int { return r.Intn(100) })

	ResetKernelCounts()
	t1 := TransposeCached(a)
	t2 := TransposeCached(a)
	if t1 != t2 {
		t.Fatal("TransposeCached returned distinct objects for the same CSR")
	}
	if got := TransposeCount(); got != 1 {
		t.Fatalf("two cached calls materialized %d times, want 1", got)
	}
	if back := TransposeCached(t1); back != a {
		t.Fatal("(Aᵀ)ᵀ did not return the original CSR from the cache")
	}
	if got := TransposeCount(); got != 1 {
		t.Fatalf("round-trip materialized %d times, want 1", got)
	}
	// The cached view must be the actual transpose.
	identicalCSR(t, "cached-vs-direct", t1, Transpose(a))
}

// TestPullAccumPanickingAccumulator: an accumulator that panics in the middle
// of the one-pass form surfaces as the kernel's error, at every thread count,
// and leaves c as it was.
func TestPullAccumPanickingAccumulator(t *testing.T) {
	rng := rand.New(rand.NewSource(progSeed(t)))
	mk := func(r *rand.Rand) float64 { return r.NormFloat64() }
	n := accumBlock + 50
	a, c := sprayCSR(rng, n, n, 4*n, mk), fullVec(rng, n, mk)
	keep := slices.Clone(c.Val)
	var calls atomic.Int64
	boom := func(x, y float64) float64 {
		if calls.Add(1) > int64(n/2) {
			panic("user accumulator bug")
		}
		return x + y
	}
	for _, threads := range []int{1, 2, 4} {
		calls.Store(0)
		z, err := SpMVAccumEx(SemiPlusTimes, a, c, func(x, y float64) float64 { return x * y },
			func(x, y float64) float64 { return x + y }, VMask{}, c, boom, BinGeneric, par(threads), KernelAuto)
		if z != nil || !errors.Is(err, ErrKernelPanic) {
			t.Fatalf("threads=%d: z=%v err=%v, want a recovered kernel panic", threads, z, err)
		}
		if !slices.Equal(c.Val, keep) {
			t.Fatalf("threads=%d: c's values were written", threads)
		}
	}
}

// TestPushFewProductsAllocation: a push allocates for its products, not for
// the width. On rmat-16, a one-vertex frontier of 32–64 edges fills a table
// and an exactly sized output: at most 8 KB in five allocations, where a
// 65 536-column SPA and mark alone are 576 KB.
func TestPushFewProductsAllocation(t *testing.T) {
	g := gen.Graph500RMAT(16, 8, 42).Symmetrize()
	add := func(x, y float64) float64 { return x + y }
	a, err := BuildCSR(g.N, g.N, g.Src, g.Dst, gen.UniformWeights(g, 1, 2, 7), add)
	if err != nil {
		t.Fatal(err)
	}
	src := 0
	for a.Ptr[src+1]-a.Ptr[src] < 32 || a.Ptr[src+1]-a.Ptr[src] > 64 {
		src++
	}
	u := &Vec[float64]{N: a.Rows, Ind: []int{src}, Val: []float64{0}}
	var rt Route
	push := func() {
		if _, err = VxMSemiEx(SemiMinPlus, SpecAuto, u, a, add, monoMin[float64], VMask{}, Exec{Threads: 1, Route: &rt}); err != nil {
			t.Fatal(err)
		}
	}
	ResetKernelCounts()
	push()
	products := a.Ptr[src+1] - a.Ptr[src]
	if table := int64(hashCapacity(products)) * slotBytes[float64](); rt.Acc != AccHash || ScratchBytes() != table {
		t.Fatalf("a %d-product push took %+v and %d B of scratch, want a %d B table", products, rt, ScratchBytes(), table)
	}
	if used := allocatedBytes(push); used > 8<<10 {
		t.Errorf("a %d-product push allocated %d B, want <= 8 KB", products, used)
	}
	// The fewest of five runs with the collector off, as in
	// TestSpGEMMAllocationPins.
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	allocs := math.Inf(1)
	for try := 0; try < 5; try++ {
		allocs = min(allocs, testing.AllocsPerRun(1, push))
	}
	debug.SetGCPercent(gc)
	if allocs > 5 {
		t.Errorf("a %d-product push: %v allocations, want <= 5", products, allocs)
	}
}
