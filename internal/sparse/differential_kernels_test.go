package sparse

import (
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"
)

// Differential kernel harness: the dense-SPA and hash-SPA accumulators must
// produce byte-identical (Ptr, Ind, Val) output for every semiring and mask
// combination — both visit products in the same (k, t) order and sort row
// patterns before emitting, so even floating-point sums match exactly. Each
// test draws its inputs from a logged seed; rerun a failure with
// GRB_DIFF_SEED=<seed> go test -run TestDifferential ./internal/sparse

// diffSeed returns the seed for a differential test and logs it. Tier-1 runs
// the same cases every time: the default is fixed, GRB_DIFF_SEED=<n> pins
// another, and GRB_DIFF_SEED=random is the only way to draw one from the
// clock.
func diffSeed(t *testing.T) int64 {
	t.Helper()
	return seedOr(t, 20210521)
}

// seedOr is diffSeed with the default seed the caller names.
func seedOr(t *testing.T, seed int64) int64 {
	t.Helper()
	switch s := os.Getenv("GRB_DIFF_SEED"); s {
	case "":
	case "random":
		seed = time.Now().UnixNano()
	default:
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad GRB_DIFF_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("seed=%d (pin with GRB_DIFF_SEED to reproduce)", seed)
	return seed
}

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

// maskVariants enumerates the mask interpretations the harness covers:
// unmasked, value, structural, complemented, and complemented-structural.
func maskVariants(m *CSR[bool]) []struct {
	name string
	mask Mask
} {
	return []struct {
		name string
		mask Mask
	}{
		{"nomask", Mask{}},
		{"value", Mask{M: m}},
		{"structural", Mask{M: m, Structural: true}},
		{"complement", Mask{M: m, Complement: true}},
		{"structural-complement", Mask{M: m, Structural: true, Complement: true}},
	}
}

// diffSpGEMM runs the dense and hash accumulators (and the adaptive router)
// over random shapes for one semiring and requires identical output.
func diffSpGEMM[T comparable](t *testing.T, rng *rand.Rand, mul func(T, T) T, add func(T, T) T, mk func(*rand.Rand) T) {
	t.Helper()
	for trial := 0; trial < 12; trial++ {
		m := 1 + rng.Intn(40)
		k := 1 + rng.Intn(40)
		// Alternate between moderate and very wide/hypersparse outputs so
		// both accumulators see their home regime and the other's.
		n := 1 + rng.Intn(40)
		nnz := 2 * (m + k)
		if trial%2 == 1 {
			n = 500 + rng.Intn(3000)
			nnz = (m + k) / 2
		}
		a := sprayCSR(rng, m, k, nnz, mk)
		b := sprayCSR(rng, k, n, nnz, mk)
		mask := sprayCSR(rng, m, n, (m*n)/3+1, func(r *rand.Rand) bool { return r.Intn(2) == 0 })
		for _, mv := range maskVariants(mask) {
			for _, threads := range []int{1, 3, 8} {
				dense := closureSpGEMM(a, b, mul, add, mv.mask, threads, KernelDense)
				hash := closureSpGEMM(a, b, mul, add, mv.mask, threads, KernelHash)
				auto := closureSpGEMM(a, b, mul, add, mv.mask, threads, KernelAuto)
				if !dense.Valid() || !hash.Valid() || !auto.Valid() {
					t.Fatalf("trial %d %s threads=%d: invalid output", trial, mv.name, threads)
				}
				identicalCSR(t, mv.name+"/hash-vs-dense", hash, dense)
				identicalCSR(t, mv.name+"/auto-vs-dense", auto, dense)
			}
		}
	}
}

func TestDifferentialSpGEMMPlusTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	diffSpGEMM(t, rng,
		func(a, b float64) float64 { return a * b },
		func(a, b float64) float64 { return a + b },
		spikedFloat)
}

func TestDifferentialSpGEMMMinPlus(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	diffSpGEMM(t, rng,
		func(a, b int) int { return a + b },
		func(a, b int) int {
			if a < b {
				return a
			}
			return b
		},
		func(r *rand.Rand) int { return r.Intn(1000) })
}

func TestDifferentialSpGEMMLorLand(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	diffSpGEMM(t, rng,
		func(a, b bool) bool { return a && b },
		func(a, b bool) bool { return a || b },
		func(r *rand.Rand) bool { return r.Intn(2) == 0 })
}

// TestDifferentialSpMVGather checks that the hash-gather pull path matches
// the dense-scatter path bit for bit across masks and thread counts.
func TestDifferentialSpMVGather(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	mul := func(a, x float64) float64 { return a * x }
	add := func(a, b float64) float64 { return a + b }
	for trial := 0; trial < 15; trial++ {
		rows := 1 + rng.Intn(60)
		cols := 1 + rng.Intn(3000) // wide: the hash gather's home regime
		a := sprayCSR(rng, rows, cols, 3*rows, func(r *rand.Rand) float64 { return r.NormFloat64() })
		u := NewVec[float64](cols)
		for j := 0; j < cols; j++ {
			if rng.Intn(8) == 0 {
				u.Ind = append(u.Ind, j)
				u.Val = append(u.Val, rng.NormFloat64())
			}
		}
		mvec := NewVec[bool](rows)
		for i := 0; i < rows; i++ {
			if rng.Intn(2) == 0 {
				mvec.Ind = append(mvec.Ind, i)
				mvec.Val = append(mvec.Val, rng.Intn(2) == 0)
			}
		}
		masks := []struct {
			name string
			mask VMask
		}{
			{"nomask", VMask{}},
			{"value", VMask{M: mvec}},
			{"structural", VMask{M: mvec, Structural: true}},
			{"complement", VMask{M: mvec, Complement: true}},
			{"structural-complement", VMask{M: mvec, Structural: true, Complement: true}},
		}
		for _, mv := range masks {
			for _, threads := range []int{1, 4} {
				dense := closureSpMV(a, u, mul, add, mv.mask, threads, KernelDense)
				hash := closureSpMV(a, u, mul, add, mv.mask, threads, KernelHash)
				auto := closureSpMV(a, u, mul, add, mv.mask, threads, KernelAuto)
				for _, pair := range []struct {
					name string
					got  *Vec[float64]
				}{{"hash", hash}, {"auto", auto}} {
					if len(pair.got.Ind) != len(dense.Ind) {
						t.Fatalf("trial %d %s/%s threads=%d: nnz %d != %d",
							trial, mv.name, pair.name, threads, len(pair.got.Ind), len(dense.Ind))
					}
					for k := range dense.Ind {
						if pair.got.Ind[k] != dense.Ind[k] || pair.got.Val[k] != dense.Val[k] {
							t.Fatalf("trial %d %s/%s threads=%d: entry %d (%d,%v) != (%d,%v)",
								trial, mv.name, pair.name, threads,
								k, pair.got.Ind[k], pair.got.Val[k], dense.Ind[k], dense.Val[k])
						}
					}
				}
			}
		}
	}
}

// TestAdaptiveSelectionRoutes checks that the matrix product obeys the plan
// (the decision table itself is TestPlan): hypersparse work reaches the hash
// SPA, dense work the dense SPA, and the route read back through Exec.Route
// says so.
func TestAdaptiveSelectionRoutes(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	mul := func(a, b int) int { return a * b }
	add := func(a, b int) int { return a + b }

	// Hypersparse: 5000 columns, a handful of flops per row.
	a := sprayCSR(rng, 200, 200, 300, func(r *rand.Rand) int { return 1 + r.Intn(9) })
	b := sprayCSR(rng, 200, 5000, 300, func(r *rand.Rand) int { return 1 + r.Intn(9) })
	var rt Route
	ResetKernelCounts()
	if _, err := SpGEMMSemiEx(SemiGeneric, SpecAuto, a, b, mul, add, Mask{}, Exec{Threads: 4, Grain: 1, Route: &rt}, KernelAuto); err != nil {
		t.Fatal(err)
	}
	if dense, hash := KernelCounts(); hash == 0 || dense != 0 {
		t.Fatalf("hypersparse product routed dense=%d hash=%d, want hash only", dense, hash)
	}
	if want := (Route{Acc: AccHash, Reason: ReasonFewFlops, Workers: 4}); rt != want {
		t.Fatalf("hypersparse product reported route %+v, want %+v", rt, want)
	}

	// Dense regime: every row's flop bound rivals the 40-wide output, so
	// every range does far more flops than it has columns.
	c := sprayCSR(rng, 40, 40, 800, func(r *rand.Rand) int { return 1 + r.Intn(9) })
	ResetKernelCounts()
	if _, err := SpGEMMSemiEx(SemiGeneric, SpecAuto, c, c, mul, add, Mask{}, Exec{Threads: 4, Grain: 1, Route: &rt}, KernelAuto); err != nil {
		t.Fatal(err)
	}
	if dense, hash := KernelCounts(); dense == 0 || hash != 0 {
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

	for _, spec := range []Spec{SpecGeneric, SpecMono} {
		ResetKernelCounts()
		if _, err := SpGEMMSemiEx(SemiPlusTimes, spec, a, b, mul, add, Mask{}, par(threads), KernelDense); err != nil {
			t.Fatal(err)
		}
		span, gotWork := SpanFlops()
		if gotWork != work {
			t.Fatalf("spec %d: work = %d, want the exact flop count %d", spec, gotWork, work)
		}
		if span < pivot || span > work {
			t.Fatalf("spec %d: span = %d, want within [pivot row %d, work %d]", spec, span, pivot, work)
		}
		if span*threads < 2*work {
			t.Fatalf("spec %d: span %d is balanced (work %d / %d threads) despite the unsplittable pivot row", spec, span, work, threads)
		}
	}
	ResetKernelCounts()
	if span, w := SpanFlops(); span != 0 || w != 0 {
		t.Fatalf("ResetKernelCounts left span=%d work=%d", span, w)
	}
}
