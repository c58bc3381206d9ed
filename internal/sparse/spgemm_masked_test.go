package sparse

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/grblas/grb/internal/obsv"
)

// TestDifferentialMaskedSpGEMM: however a range applies the mask — before
// the products (mask-first) or when it emits (dense or hash) — the masked
// product is the product at the positions the mask admits. The program
// generator's matrix products (progen_test.go) run here under a mask always
// — structural, valued, complemented, empty, dense or top-heavy — with
// every pin, the family loop or the closure one and one worker or two; one
// subtest a domain, the last one counting the pairs of two boolean
// operands into int64 through the closure loop.
func TestDifferentialMaskedSpGEMM(t *testing.T) {
	pt, _, _, mi, _, ll := kits()
	seed := progSeed(t)
	tl := &tally{reached: map[Reason]bool{}, family: map[string]bool{}}
	masked := config{kinds: sGEMM, count: 4, axis: axMasked}
	t.Run("plus-times f64", func(t *testing.T) { corpus(t, rand.New(rand.NewSource(seed)), masked, pt, tl) })
	t.Run("min-plus i64", func(t *testing.T) { corpus(t, rand.New(rand.NewSource(seed+1)), masked, mi, tl) })
	t.Run("lor-land", func(t *testing.T) { corpus(t, rand.New(rand.NewSource(seed+2)), masked, ll, tl) })
	t.Run("untagged plus-pair bool×bool→int64", func(t *testing.T) {
		pairs := masked
		pairs.axis = axPairs
		corpus(t, rand.New(rand.NewSource(seed+3)), pairs, ll, tl)
	})
	if !tl.reached[ReasonMaskFirst] || !tl.reached[ReasonDenseWork] {
		t.Fatalf("the products did not reach both masked dense routes: %v", tl.reached)
	}
}

// boolCSR builds the mask whose pattern is m's, every stored value true.
func boolCSR[T any](m *CSR[T]) *CSR[bool] {
	out := &CSR[bool]{Rows: m.Rows, Cols: m.Cols, Ptr: m.Ptr, Ind: m.Ind, Val: make([]bool, len(m.Ind))}
	for k := range out.Val {
		out.Val[k] = true
	}
	return out
}

// TestSpGEMMEmitSortVsScan puts rows on both sides of scanEmit's boundary
// (256·8 == 2048 sorts, 257·9 scans) through the dense SPA with the family and
// the closure loop, unmasked and under a complemented mask, and requires the
// hash SPA's — always sorted — output. Each row's pattern arrives out of
// order: it is the union of a B row of high columns, visited first, and one
// of low columns, overlapping in a few.
func TestSpGEMMEmitSortVsScan(t *testing.T) {
	rng := rand.New(rand.NewSource(progSeed(t)))
	const cols = 2048
	sizes := []int{1, 2, 3, 228, 255, 256, 257, 258, 400, cols}
	var aI, aJ, bI, bJ []int
	var aX, bX []float64
	for i, n := range sizes {
		if scanEmit(n, cols) != (n > 256) {
			t.Fatalf("scanEmit(%d, %d) moved: the test no longer straddles the boundary", n, cols)
		}
		for _, j := range rng.Perm(cols)[:n] {
			if j >= cols/2 || rng.Intn(16) == 0 {
				bI, bJ, bX = append(bI, 2*i), append(bJ, j), append(bX, spikedFloat(rng))
			}
			if j < cols/2 || rng.Intn(16) == 0 {
				bI, bJ, bX = append(bI, 2*i+1), append(bJ, j), append(bX, spikedFloat(rng))
			}
		}
		aI, aJ, aX = append(aI, i, i), append(aJ, 2*i, 2*i+1), append(aX, spikedFloat(rng), spikedFloat(rng))
	}
	keep := func(x, y float64) float64 { return y }
	a, err := BuildCSR(len(sizes), 2*len(sizes), aI, aJ, aX, keep)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildCSR(2*len(sizes), cols, bI, bJ, bX, keep)
	if err != nil {
		t.Fatal(err)
	}
	mul := func(x, y float64) float64 { return x * y }
	add := func(x, y float64) float64 { return x + y }
	comp := Mask{M: sprayCSR(rng, len(sizes), cols, 4*cols, func(r *rand.Rand) bool { return r.Intn(2) == 0 }), Complement: true}
	for _, mask := range []Mask{{}, comp} {
		want := closureSpGEMM(a, b, mul, add, mask, 1, KernelHash)
		if mask.M == nil {
			for i, n := range sizes {
				if got := want.Ptr[i+1] - want.Ptr[i]; got != n {
					t.Fatalf("row %d has %d entries, want %d", i, got, n)
				}
			}
		}
		for _, loop := range loopModes(SemiPlusTimes) {
			for _, threads := range []int{1, 3} {
				got, err := SpGEMMSemiEx(loop.semi, SpecAuto, a, b, mul, add, mask, par(threads), KernelDense)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Valid() {
					t.Fatalf("%s threads=%d: invalid output", loop.name, threads)
				}
				identicalCSR(t, fmt.Sprintf("complement=%v %s threads=%d", mask.Complement, loop.name, threads), got, want)
			}
		}
	}
}

// TestSpGEMMAllocationPins holds the product to "one output, allocated
// once": a mask-first range allocates its output at the range's mask nnz and
// nothing grows; an unmasked one-thread A·A allocates its exactly-counted
// output and its scratch, not a multiple of the output.
func TestSpGEMMAllocationPins(t *testing.T) {
	rng := rand.New(rand.NewSource(progSeed(t)))
	const n = 512
	a := sprayCSR(rng, n, n, 16*n, func(r *rand.Rand) float64 { return r.Float64() })
	mul := func(x, y float64) float64 { return x * y }
	add := func(x, y float64) float64 { return x + y }

	mask := Mask{M: boolCSR(a), Structural: true}
	var rt Route
	got, err := SpGEMMSemiEx(SemiPlusTimes, SpecAuto, a, a, mul, add, mask, Exec{Threads: 1, Route: &rt}, KernelAuto)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Route{Acc: AccDense, MaskFirst: true, Reason: ReasonMaskFirst, Workers: 1}); rt != want {
		t.Fatalf("masked A·A took route %+v, want %+v", rt, want)
	}
	if cap(got.Ind) != mask.M.NNZ() || cap(got.Val) != mask.M.NNZ() {
		t.Fatalf("mask-first output capacity %d/%d, want the mask's %d entries", cap(got.Ind), cap(got.Val), mask.M.NNZ())
	}

	got, err = SpGEMMSemiEx(SemiPlusTimes, SpecAuto, a, a, mul, add, Mask{}, Exec{Threads: 1}, KernelAuto)
	if err != nil {
		t.Fatal(err)
	}
	if cap(got.Ind) != got.NNZ() || cap(got.Val) != got.NNZ() {
		t.Fatalf("unmasked output has %d entries in capacity %d/%d, want exactly sized", got.NNZ(), cap(got.Ind), cap(got.Val))
	}
	// One range each, by count, at what the product allocated before its
	// probes went branch-free: the buffer the mask-first probe compacts into
	// and the one the folding family loop appends through are scratch the
	// range already had.
	for _, pin := range []struct {
		name string
		mask Mask
		max  float64
	}{{"masked", mask, 18}, {"unmasked", Mask{}, 20}} {
		// The fewest of five runs, with the collector off: AllocsPerRun
		// counts every malloc in the process, and a collection that starts
		// inside a run brings the runtime's own (a new M, unique's cleanup
		// goroutine) into the count.
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		allocs := math.Inf(1)
		for try := 0; try < 5; try++ {
			allocs = min(allocs, testing.AllocsPerRun(1, func() {
				_, err = SpGEMMSemiEx(SemiPlusTimes, SpecAuto, a, a, mul, add, pin.mask, Exec{Threads: 1}, KernelAuto)
			}))
		}
		debug.SetGCPercent(gc)
		if allocs > pin.max {
			t.Errorf("%s one-range A·A: %v allocations, want <= %v", pin.name, allocs, pin.max)
		} else {
			t.Logf("%s one-range A·A: %v allocations", pin.name, allocs)
		}
	}
	outBytes := 16 * got.NNZ()
	// Scratch: SPA + stamps (16 B a column), flop prefix, row lengths and
	// row pointers (8 B a row each), the pattern buffers.
	scratch := 16*n + 3*8*(n+1) + 2*8*n + 4096
	if used := allocatedBytes(func() {
		got, err = SpGEMMSemiEx(SemiPlusTimes, SpecAuto, a, a, mul, add, Mask{}, Exec{Threads: 1}, KernelAuto)
	}); used > uint64(outBytes*22/10+scratch) {
		t.Errorf("unmasked A·A allocated %d bytes for %d output bytes, want <= 2.2x + %d scratch", used, outBytes, scratch)
	} else {
		t.Logf("unmasked A·A: %d bytes allocated, %d output bytes", used, outBytes)
	}
}

// TestMaskFirstHitBuffer drives the mask-first probe where the battery's
// 8..63-column operands cannot: rows of B two to three times the 256-slot hit
// buffer, walked in pieces; a valued mask over the product's own pattern, so
// every stored false sits on a column the products hit; and, at 2 and 4
// threads, ranges that begin at lo > 0 over stamps no earlier row wrote (the
// stamp[j] >= open test stands on ascending i within a range). Against the
// unmasked product written back under the mask, and the hash SPA.
func TestMaskFirstHitBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(progSeed(t)))
	const n, cols = 96, 900
	var bI, bJ []int
	var bX []float64
	for k := 0; k < n; k++ {
		deg := 1 + rng.Intn(8)
		if k%3 == 0 {
			deg = 520 + rng.Intn(300)
		}
		for _, j := range rng.Perm(cols)[:deg] {
			bI, bJ, bX = append(bI, k), append(bJ, j), append(bX, spikedFloat(rng))
		}
	}
	b, err := BuildCSR(n, cols, bI, bJ, bX, func(x, y float64) float64 { return y })
	if err != nil {
		t.Fatal(err)
	}
	a := sprayCSR(rng, n, n, 6*n, spikedFloat)
	mul := func(x, y float64) float64 { return x * y }
	add := func(x, y float64) float64 { return x + y }
	unmasked := closureSpGEMM(a, b, mul, add, Mask{}, 1, KernelDense)
	valued := boolCSR(unmasked)
	for k := range valued.Val {
		valued.Val[k] = rng.Intn(2) == 0
	}
	for _, mask := range []Mask{{M: valued}, {M: valued, Structural: true}} {
		want := MaskApplyM(NewCSR[float64](n, cols), unmasked, mask, true, Exec{})
		identicalCSR(t, "hash", closureSpGEMM(a, b, mul, add, mask, 1, KernelHash), want)
		for _, threads := range []int{1, 2, 4} {
			var rt Route
			obsv.ResetCounters()
			got, err := SpGEMMSemiEx(SemiPlusTimes, SpecAuto, a, b, mul, add, mask, Exec{Threads: threads, Grain: 1, Route: &rt}, KernelAuto)
			if err != nil {
				t.Fatal(err)
			}
			if dense := obsv.DenseRanges.Load(); !rt.MaskFirst || dense != int64(threads) {
				t.Fatalf("threads=%d: route %+v over %d dense ranges, want mask-first over %d", threads, rt, dense, threads)
			}
			identicalCSR(t, fmt.Sprintf("structural=%v threads=%d", mask.Structural, threads), got, want)
		}
	}
}

// TestFamilyRangeCancelLeavesNoState: a folding family loop leaves products
// in the SPA until the row's emit restores the identity, so a range cancelled
// between the two must not be visible to any later call — the SPA is the
// range's own, allocated per call.
func TestFamilyRangeCancelLeavesNoState(t *testing.T) {
	rng := rand.New(rand.NewSource(progSeed(t)))
	const n = 600
	a := sprayCSR(rng, n, n, 24*n, spikedFloat) // ~345K flops: several polls
	mul := func(x, y float64) float64 { return x * y }
	add := func(x, y float64) float64 { return x + y }
	polls := 0
	cancel := cancelProbe(func() bool { polls++; return polls == 3 })
	var rt Route
	if _, err := SpGEMMSemiEx(SemiPlusTimes, SpecAuto, a, a, mul, add, Mask{}, Exec{Threads: 1, Cancel: cancel, Route: &rt}, KernelDense); !errors.Is(err, ErrCanceled) || !rt.Family {
		t.Fatalf("err = %v on route %+v, want a cancelled family range", err, rt)
	}
	got, err := SpGEMMSemiEx(SemiPlusTimes, SpecAuto, a, a, mul, add, Mask{}, Exec{Threads: 1}, KernelDense)
	if err != nil {
		t.Fatal(err)
	}
	identicalCSR(t, "after the cancel", got, closureSpGEMM(a, a, mul, add, Mask{}, 1, KernelDense))
}

// TestMaskedSpGEMMReportsWhatRan drives one call whose two ranges take
// different masked routes — the first, carrying nearly all the flops under a
// light mask, runs mask-first; the second, a few flops under full mask rows,
// filters at emit with the family loop — and one whose every range is
// mask-first. The published route and the mono/closure counters must say what
// ran: a split, counted mono; then mask-first, counted closure although the
// semiring has a family loop.
func TestMaskedSpGEMMReportsWhatRan(t *testing.T) {
	rng := rand.New(rand.NewSource(progSeed(t)))
	const n = 64
	var aI, aJ, mI, mJ []int
	for i := 0; i < n; i++ {
		deg := 1
		if i < n/2 {
			deg = 12
			mI, mJ = append(mI, i), append(mJ, rng.Intn(n))
		} else {
			for j := 0; j < n; j++ {
				mI, mJ = append(mI, i), append(mJ, j)
			}
		}
		for _, j := range rng.Perm(n)[:deg] {
			aI, aJ = append(aI, i), append(aJ, j)
		}
	}
	ones := func(k int) []float64 {
		x := make([]float64, k)
		for i := range x {
			x[i] = 1 + float64(i%7)
		}
		return x
	}
	keep := func(x, y float64) float64 { return y }
	a, err := BuildCSR(n, n, aI, aJ, ones(len(aI)), keep)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildCSR(n, n, mI, mJ, make([]bool, len(mI)), func(x, y bool) bool { return y })
	if err != nil {
		t.Fatal(err)
	}
	mul := func(x, y float64) float64 { return x * y }
	add := func(x, y float64) float64 { return x + y }
	for _, tc := range []struct {
		name string
		mask Mask
		want Route
	}{
		{"split", Mask{M: m, Structural: true}, Route{Family: true, Acc: AccDense, Reason: ReasonRangesSplit}},
		{"mask-first", Mask{M: boolCSR(a), Structural: true}, Route{Acc: AccDense, MaskFirst: true, Reason: ReasonMaskFirst}},
	} {
		var rt Route
		obsv.ResetCounters()
		got, err := SpGEMMSemiEx(SemiPlusTimes, SpecAuto, a, a, mul, add, tc.mask, Exec{Threads: 2, Grain: 1, Route: &rt}, KernelAuto)
		if err != nil {
			t.Fatal(err)
		}
		if tc.want.Workers = 2; rt != tc.want {
			t.Fatalf("%s: route %+v, want %+v", tc.name, rt, tc.want)
		}
		if mono, closure := obsv.MonoKernels.Load(), obsv.ClosureFallbacks.Load(); (mono == 1) != rt.Family || mono+closure != 1 {
			t.Fatalf("%s: mono=%d closure=%d for route %+v", tc.name, mono, closure, rt)
		}
		if dense, hash := obsv.DenseRanges.Load(), obsv.HashRanges.Load(); dense != 2 || hash != 0 {
			t.Fatalf("%s: %d dense and %d hash ranges, want two dense", tc.name, dense, hash)
		}
		identicalCSR(t, tc.name, got, closureSpGEMM(a, a, mul, add, tc.mask, 1, KernelHash))
	}
}

// cancelProbe is a Canceler over a function.
type cancelProbe func() bool

func (p cancelProbe) Canceled() bool { return p() }
