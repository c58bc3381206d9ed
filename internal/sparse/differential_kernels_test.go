package sparse

import (
	"math"
	"math/rand"
	"testing"

	"github.com/grblas/grb/internal/obsv"
)

// Helpers of the differential tests: random operands, bit-exact comparison.
// The dense-SPA and hash-SPA accumulators of the matrix product must give
// byte-identical output — both visit products in the same (k, t) order — as
// the program generator (progen_test.go) checks on every product it draws.

// sprayCSR builds a rows×cols matrix with ~nnz entries at uniformly random
// coordinates (duplicates collapse), values drawn from mk.
func sprayCSR[T any](rng *rand.Rand, rows, cols, nnz int, mk func(*rand.Rand) T) *CSR[T] {
	I := make([]int, 0, nnz)
	J := make([]int, 0, nnz)
	X := make([]T, 0, nnz)
	for k := 0; k < nnz; k++ {
		I = append(I, rng.Intn(rows))
		J = append(J, rng.Intn(cols))
		X = append(X, mk(rng))
	}
	m, err := BuildCSR(rows, cols, I, J, X, func(a, b T) T { return b })
	if err != nil {
		panic(err)
	}
	return m
}

// sameBits is == on everything but float64, which it compares through
// math.Float64bits: == cannot tell -0.0 from +0.0 and calls equal NaNs
// different, and "every route produces the same bits" means neither.
func sameBits[T comparable](x, y T) bool {
	if fx, ok := any(x).(float64); ok {
		return math.Float64bits(fx) == math.Float64bits(any(y).(float64))
	}
	return x == y
}

// spikedFloat draws a standard normal, but one value in eight is ±0.0 or
// ±Inf: a first product of -0.0, a row summing to -0.0, Inf - Inf. What a
// route that initializes where another assigns, or folds in another order,
// gets wrong is the sign of a zero or a NaN, and sameBits sees both.
func spikedFloat(r *rand.Rand) float64 {
	if r.Intn(8) == 0 {
		return [...]float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}[r.Intn(4)]
	}
	return r.NormFloat64()
}

// identicalCSR fails the test unless a and b have byte-identical Ptr, Ind
// and Val (values compared with sameBits).
func identicalCSR[T comparable](t testing.TB, label string, got, want *CSR[T]) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d != %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if len(got.Ptr) != len(want.Ptr) {
		t.Fatalf("%s: Ptr length %d != %d", label, len(got.Ptr), len(want.Ptr))
	}
	for i := range got.Ptr {
		if got.Ptr[i] != want.Ptr[i] {
			t.Fatalf("%s: Ptr[%d] = %d != %d", label, i, got.Ptr[i], want.Ptr[i])
		}
	}
	if len(got.Ind) != len(want.Ind) {
		t.Fatalf("%s: nnz %d != %d", label, len(got.Ind), len(want.Ind))
	}
	for k := range got.Ind {
		if got.Ind[k] != want.Ind[k] {
			t.Fatalf("%s: Ind[%d] = %d != %d", label, k, got.Ind[k], want.Ind[k])
		}
		if !sameBits(got.Val[k], want.Val[k]) {
			t.Fatalf("%s: Val[%d] = %v != %v", label, k, got.Val[k], want.Val[k])
		}
	}
}

// TestDifferentialSpGEMM…: the dense and the hash accumulator over every
// mask reading are the program generator's matrix products
// (progen_test.go) of one semiring's domains, each pinned to one of the two
// under the closure loop, against one oracle.
func TestDifferentialSpGEMMPlusTimes(t *testing.T) { accConfig(t, kPT|kPI) }
func TestDifferentialSpGEMMMinPlus(t *testing.T)   { accConfig(t, kMP|kMI) }
func TestDifferentialSpGEMMLorLand(t *testing.T)   { accConfig(t, kLL) }

func accConfig(t *testing.T, kits kitSet) {
	runConfig(t, config{kinds: sGEMM, kits: kits, axis: axAcc})
}

// TestAdaptiveSelectionRoutes checks that the matrix product obeys the plan
// (the decision table itself is TestPlan): hypersparse work reaches the hash
// SPA, dense work the dense SPA, and the route read back through Exec.Route
// says so.
func TestAdaptiveSelectionRoutes(t *testing.T) {
	rng := rand.New(rand.NewSource(progSeed(t)))
	mul := func(a, b int) int { return a * b }
	add := func(a, b int) int { return a + b }

	// Hypersparse: 5000 columns, a handful of flops per row.
	a := sprayCSR(rng, 200, 200, 300, func(r *rand.Rand) int { return 1 + r.Intn(9) })
	b := sprayCSR(rng, 200, 5000, 300, func(r *rand.Rand) int { return 1 + r.Intn(9) })
	var rt Route
	obsv.ResetCounters()
	if _, err := SpGEMMSemiEx(SemiGeneric, SpecAuto, a, b, mul, add, Mask{}, Exec{Threads: 4, Grain: 1, Route: &rt}, KernelAuto); err != nil {
		t.Fatal(err)
	}
	if dense, hash := obsv.DenseRanges.Load(), obsv.HashRanges.Load(); hash == 0 || dense != 0 {
		t.Fatalf("hypersparse product routed dense=%d hash=%d, want hash only", dense, hash)
	}
	if want := (Route{Acc: AccHash, Reason: ReasonFewFlops, Workers: 4}); rt != want {
		t.Fatalf("hypersparse product reported route %+v, want %+v", rt, want)
	}

	// Dense regime: every row's flop bound rivals the 40-wide output, so
	// every range does far more flops than it has columns.
	c := sprayCSR(rng, 40, 40, 800, func(r *rand.Rand) int { return 1 + r.Intn(9) })
	obsv.ResetCounters()
	if _, err := SpGEMMSemiEx(SemiGeneric, SpecAuto, c, c, mul, add, Mask{}, Exec{Threads: 4, Grain: 1, Route: &rt}, KernelAuto); err != nil {
		t.Fatal(err)
	}
	if dense, hash := obsv.DenseRanges.Load(), obsv.HashRanges.Load(); dense == 0 || hash != 0 {
		t.Fatalf("dense-regime product routed dense=%d hash=%d, want dense only", dense, hash)
	}
	if want := (Route{Acc: AccDense, Reason: ReasonDenseWork, Workers: 4}); rt != want {
		t.Fatalf("dense-regime product reported route %+v, want %+v", rt, want)
	}
}

// TestSpanTelemetryOverRowRanges pins the modeled-span telemetry the row
// partitioner is judged by: work is the product's exact flop count, span is
// the heaviest of the flop-balanced row ranges, and a pivot row no 1D
// partition can split keeps span well above work/threads — the skew a
// row-splitting partitioner would have to beat. Both the closure and the
// monomorphized SpGEMM report it, and ResetKernelCounts clears it.
func TestSpanTelemetryOverRowRanges(t *testing.T) {
	if got := modeledSpan([]int64{5, 1, 1, 1, 4}, 2); got != 7 {
		t.Fatalf("modeledSpan greedy list schedule = %d, want 7 (5 | 1+1+1+4)", got)
	}

	// Row 0 points at every row of b; the other 63 rows hold one entry, so
	// row 0 alone carries half the flops.
	const n, threads = 64, 4
	var I, J []int
	var X []float64
	for j := 0; j < n; j++ {
		I, J, X = append(I, 0), append(J, j), append(X, 1)
	}
	for i := 1; i < n; i++ {
		I, J, X = append(I, i), append(J, i), append(X, 1)
	}
	a, err := BuildCSR(n, n, I, J, X, func(x, y float64) float64 { return y })
	if err != nil {
		t.Fatal(err)
	}
	b := sprayCSR(rand.New(rand.NewSource(11)), n, n, 6*n, func(r *rand.Rand) float64 { return 1 + r.Float64() })
	mul := func(x, y float64) float64 { return x * y }
	add := func(x, y float64) float64 { return x + y }
	work := SpGEMMFlopsTotal(a, b)
	pivot := int64(b.NNZ()) // row 0's flops: one per stored entry of b

	for _, semi := range []Semi{SemiGeneric, SemiPlusTimes} {
		obsv.ResetCounters()
		if _, err := SpGEMMSemiEx(semi, SpecAuto, a, b, mul, add, Mask{}, par(threads), KernelDense); err != nil {
			t.Fatal(err)
		}
		span, gotWork := obsv.SpanFlops.Load(), obsv.WorkFlops.Load()
		if gotWork != work {
			t.Fatalf("%s: work = %d, want the exact flop count %d", semi, gotWork, work)
		}
		if span < pivot || span > work {
			t.Fatalf("%s: span = %d, want within [pivot row %d, work %d]", semi, span, pivot, work)
		}
		if span*threads < 2*work {
			t.Fatalf("%s: span %d is balanced (work %d / %d threads) despite the unsplittable pivot row", semi, span, work, threads)
		}
	}
	obsv.ResetCounters()
	if span, w := obsv.SpanFlops.Load(), obsv.WorkFlops.Load(); span != 0 || w != 0 {
		t.Fatalf("ResetKernelCounts left span=%d work=%d", span, w)
	}
}
