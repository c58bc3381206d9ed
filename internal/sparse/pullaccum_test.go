package sparse

import (
	"errors"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
)

// diffPullAccum holds SpMVAccumEx to its definition, z = AccumMergeV(c, t,
// accum) with t the plain product, with == on pattern and values: over both
// loops (the family loop and the closure loop), both gathers and a dense one
// the budget refuses, threads 1, 2 and 4, a c that is full (t is never
// stored), one entry short of full and empty (t is stored and merged), with
// and without a mask, u aliasing c, and sizes on both sides of accumBlock.
// c's storage must come back untouched. accum is not commutative, so a
// swapped operand order shows.
func diffPullAccum[T comparable](t *testing.T, rng *rand.Rand, semi Semi, mul, add, accum func(T, T) T, mk func(*rand.Rand) T) {
	t.Helper()
	for _, n := range []int{37, accumBlock + 300, 2*accumBlock + 77} {
		a := sprayCSR(rng, n, n, 4*n, mk)
		full := fullVec(rng, n, mk)
		short := &Vec[T]{N: n, Ind: full.Ind[:n-1], Val: full.Val[:n-1]}
		cs := []struct {
			name string
			c, u *Vec[T]
		}{
			{"full c", full, sprayVec(rng, n, 3, mk)},
			{"full c, sparse u", full, sprayVec(rng, n, 16, mk)},
			{"full c, full u", full, fullVec(rng, n, mk)},
			{"u aliases c", full, full},
			{"c one short of full", short, sprayVec(rng, n, 3, mk)},
			{"empty c", NewVec[T](n), fullVec(rng, n, mk)},
		}
		masks := vmaskVariants(rng, n)[:2] // none, value
		for _, tc := range cs {
			keepInd, keepVal := slices.Clone(tc.c.Ind), slices.Clone(tc.c.Val)
			for _, mv := range masks {
				for _, threads := range []int{1, 2, 4} {
					for _, route := range []struct {
						name   string
						hint   Kernel
						refuse bool // a budget one byte short of u's view
					}{
						{"auto", KernelAuto, false},
						{"hash", KernelHash, false},
						{"refused", KernelAuto, true},
					} {
						// The budget can only refuse a view a hash table undercuts,
						// and has no room for a mask's bitmap beside that table.
						if route.refuse && (mv.mask.M != nil || lookupBytes(tc.u) >= tc.u.viewBytes()) {
							continue
						}
						for _, loop := range loopModes(semi) {
							label := semi.String() + "/" + tc.name + "/" + mv.name + "/" + route.name + "/" + loop.name
							e := par(threads)
							want, err := SpMVSemiEx(loop.semi, SpecAuto, a, tc.u, mul, add, mv.mask, e, route.hint)
							if err != nil {
								t.Fatal(err)
							}
							want = AccumMergeV(tc.c, want, accum)
							var rt Route
							e.Route = &rt
							if route.refuse {
								e.Tx = NewBudget(tc.u.viewBytes() - 1).Tx()
							}
							u := &Vec[T]{N: n, Ind: tc.u.Ind, Val: tc.u.Val} // the same storage, no memoized view
							got, err := SpMVAccumEx(loop.semi, a, u, mul, add, mv.mask, tc.c, accum, BinGeneric, e, route.hint)
							e.Close()
							if err != nil {
								t.Fatal(err)
							}
							if route.refuse && rt.Reason != ReasonBudgetGather {
								t.Fatalf("%s: route %+v, want the budget to refuse the dense gather", label, rt)
							}
							identicalVec(t, label, got, want)
							if !slices.Equal(tc.c.Ind, keepInd) || !slices.Equal(tc.c.Val, keepVal) {
								t.Fatalf("%s: c's storage was written", label)
							}
						}
					}
				}
			}
		}
	}
}

func TestPullAccumMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	subI := func(c, t int64) int64 { return c - 2*t }
	subF := func(c, t float64) float64 { return c - 2*t }
	mkI := func(r *rand.Rand) int64 { return int64(r.Intn(19) - 9) }
	mkF := func(r *rand.Rand) float64 { return r.NormFloat64() }
	before, _ := MonoCounts()
	diffPullAccum(t, rng, SemiPlusTimes, func(a, b int64) int64 { return a * b }, func(a, b int64) int64 { return a + b }, subI, mkI)
	diffPullAccum(t, rng, SemiPlusTimes, func(a, b float64) float64 { return a * b }, func(a, b float64) float64 { return a + b }, subF, mkF)
	diffPullAccum(t, rng, SemiMinPlus, func(a, b int64) int64 { return a + b }, monoMin[int64], subI, mkI)
	diffPullAccum(t, rng, SemiMinPlus, func(a, b float64) float64 { return a + b }, monoMin[float64], subF, mkF)
	diffPullAccum(t, rng, SemiLorLand, func(a, b bool) bool { return a && b }, func(a, b bool) bool { return a || b },
		func(c, t bool) bool { return c && !t }, func(r *rand.Rand) bool { return r.Intn(3) > 0 })
	diffPullAccum(t, rng, SemiPlusPair, func(a, b int64) int64 { return 1 }, func(a, b int64) int64 { return a + b }, subI, mkI)
	diffPullAccum(t, rng, SemiPlusPair, func(a, b float64) float64 { return 1 }, func(a, b float64) float64 { return a + b }, subF, mkF)
	if after, _ := MonoCounts(); after == before {
		t.Fatal("no family loop ran: the battery compared the closure loop with itself")
	}
}

// TestPullAccumPanickingAccumulator: an accumulator that panics in the middle
// of the one-pass form surfaces as the kernel's error, at every thread count,
// and leaves c as it was.
func TestPullAccumPanickingAccumulator(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
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
