package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/grblas/grb/gen"
)

// TestPushIsThreadInvariant: each output column folds its products in
// frontier order whatever worker owns it, so a float plus-times push gives
// the same bits at threads 1, 2 and 4, on both accumulators, family loop and
// closure loop alike — and the pull over the transpose, which folds each row
// in the same order, gives them too.
func TestPushIsThreadInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	mul := func(x, y float64) float64 { return x * y }
	add := func(x, y float64) float64 { return x + y }
	for trial := 0; trial < 6; trial++ {
		rows, cols := 1+rng.Intn(60), 1+rng.Intn(60)
		if trial%2 == 1 {
			cols = 400 + rng.Intn(1500)
		}
		a := sprayCSR(rng, rows, cols, 4*(rows+cols), spikedFloat)
		at := Transpose(a)
		for _, fv := range vecDensities(rng, rows, spikedFloat) {
			for _, mv := range vmaskVariants(rng, cols) {
				pull := closureSpMV(at, fv.vec, func(x, y float64) float64 { return mul(y, x) }, add, mv.mask, 1, KernelAuto)
				for _, lm := range loopModes(SemiPlusTimes) {
					for _, hint := range []Kernel{KernelAuto, KernelDense, KernelHash} {
						for _, threads := range []int{1, 2, 4} {
							got, err := vxmSemi(lm.semi, fv.vec, a, mul, add, mv.mask, par(threads), hint)
							if err != nil {
								t.Fatal(err)
							}
							identicalVec(t, fmt.Sprintf("trial %d %s/%s/%s/hint=%d/threads=%d", trial, fv.name, mv.name, lm.name, hint, threads), got, pull)
						}
					}
				}
			}
		}
	}
}

// pushArms holds the push's two accumulators to the same bits: pinned to
// the table and to the SPA, with the semiring's tag (the family loop serves
// the SPA) and without it (the closure loop serves both), over every mask
// interpretation, at one and four threads, and at widths whose columns the
// table's radix sort orders in one, two and three passes.
func pushArms[T comparable](t *testing.T, rng *rand.Rand, semi Semi, mul, add func(T, T) T, mk func(*rand.Rand) T) {
	t.Helper()
	for trial := 0; trial < 6; trial++ {
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
		switch trial % 3 {
		case 1:
			cols = 400 + rng.Intn(1500)
		case 2:
			cols = 1<<16 + rng.Intn(1<<16)
		}
		a := sprayCSR(rng, rows, cols, 3*rows+min(3*cols, 600), mk)
		for _, fv := range vecDensities(rng, rows, mk) {
			for _, mv := range vmaskVariants(rng, cols) {
				want, err := vxmSemi(semi, fv.vec, a, mul, add, mv.mask, par(1), KernelDense)
				if err != nil {
					t.Fatal(err)
				}
				for _, lm := range loopModes(semi) {
					for _, threads := range []int{1, 4} {
						var rt Route
						e := par(threads)
						e.Route = &rt
						got, err := vxmSemi(lm.semi, fv.vec, a, mul, add, mv.mask, e, KernelHash)
						if err != nil {
							t.Fatal(err)
						}
						if rt.Acc != AccHash || rt.Family {
							t.Fatalf("%s: the hash pin ran %+v", semi, rt)
						}
						identicalVec(t, fmt.Sprintf("%s/%s/%s/%s/threads=%d: hash vs dense", semi, lm.name, fv.name, mv.name, threads), got, want)
					}
				}
			}
		}
	}
}

func TestPushHashMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	pushArms(t, rng, SemiPlusTimes, func(a, b int64) int64 { return a * b }, func(a, b int64) int64 { return a + b },
		func(r *rand.Rand) int64 { return int64(r.Intn(19) - 9) })
	pushArms(t, rng, SemiPlusTimes, func(a, b float64) float64 { return a * b }, func(a, b float64) float64 { return a + b }, spikedFloat)
	pushArms(t, rng, SemiMinPlus, func(a, b int64) int64 { return a + b }, monoMin[int64],
		func(r *rand.Rand) int64 { return int64(r.Intn(1000)) })
	pushArms(t, rng, SemiMinPlus, func(a, b float64) float64 { return a + b }, monoMin[float64], spikedFloat)
	pushArms(t, rng, SemiLorLand, func(a, b bool) bool { return a && b }, func(a, b bool) bool { return a || b },
		func(r *rand.Rand) bool { return r.Intn(3) > 0 })
	pushArms(t, rng, SemiPlusPair, func(a, b int64) int64 { return 1 }, func(a, b int64) int64 { return a + b },
		func(r *rand.Rand) int64 { return int64(r.Intn(100)) })
	pushArms(t, rng, SemiPlusPair, func(a, b float64) float64 { return 1 }, func(a, b float64) float64 { return a + b },
		func(r *rand.Rand) float64 { return r.NormFloat64() })
	// SSSP's values, TestSSSPNaN's among them: a NaN weight, ±Inf, and −0.0,
	// whose sign a fold that starts from +0.0 would lose.
	ssspValue := func(r *rand.Rand) float64 {
		return [...]float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1, 2, 5, 10}[r.Intn(9)]
	}
	pushArms(t, rng, SemiMinPlus, func(a, b float64) float64 { return a + b }, monoMin[float64], ssspValue)
	pushArms(t, rng, SemiPlusTimes, func(a, b float64) float64 { return a * b }, func(a, b float64) float64 { return a + b }, ssspValue)
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
