package sparse

import (
	"fmt"
	"math/rand"
	"testing"
)

// Monomorphized≡closure differential battery: the family loop bodies
// (monokernels.go) must produce output identical to the scaffolds' closure
// loop bodies — same pattern, same values, so
// floating-point accumulation order must match bit for bit (sameBits, over
// operands spiked with ±0.0 and ±Inf) — across every
// hot semiring × block format × mask interpretation × direction × thread
// count. This harness is what makes the specialization shippable: any
// divergence (a reordered fold, a zero-init instead of first-assign, a mask
// admitted at the wrong point) fails here before it can ship.
//
// Seeds are logged; rerun a failure with GRB_DIFF_SEED=<seed>.

// sprayVec builds an n-vector holding ~n/oneIn random entries in ascending
// index order.
func sprayVec[T any](rng *rand.Rand, n, oneIn int, mk func(*rand.Rand) T) *Vec[T] {
	v := NewVec[T](n)
	for j := 0; j < n; j++ {
		if rng.Intn(oneIn) == 0 {
			v.Ind = append(v.Ind, j)
			v.Val = append(v.Val, mk(rng))
		}
	}
	return v
}

// fullVec builds a completely dense n-vector (every index present), the
// shape whose block view is the full (bitmap-free) dense format.
func fullVec[T any](rng *rand.Rand, n int, mk func(*rand.Rand) T) *Vec[T] {
	v := NewVec[T](n)
	for j := 0; j < n; j++ {
		v.Ind = append(v.Ind, j)
		v.Val = append(v.Val, mk(rng))
	}
	return v
}

// fullCSR builds a completely dense rows×cols matrix: every row stores
// columns 0..cols-1 in order, so the CSR row loop is a textbook GEMV sweep.
func fullCSR[T any](rng *rand.Rand, rows, cols int, mk func(*rand.Rand) T) *CSR[T] {
	var I, J []int
	var X []T
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			I = append(I, i)
			J = append(J, j)
			X = append(X, mk(rng))
		}
	}
	m, err := BuildCSR(rows, cols, I, J, X, func(a, b T) T { return b })
	if err != nil {
		panic(err)
	}
	return m
}

// identicalVec fails unless got and want agree exactly on length, pattern
// and values (sameBits).
func identicalVec[T comparable](t testing.TB, label string, got, want *Vec[T]) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil vector (got=%v want=%v)", label, got == nil, want == nil)
	}
	if got.N != want.N {
		t.Fatalf("%s: size %d != %d", label, got.N, want.N)
	}
	got, want = got.Sorted(), want.Sorted() // the entries, whatever the form
	if len(got.Ind) != len(want.Ind) {
		t.Fatalf("%s: nnz %d != %d", label, len(got.Ind), len(want.Ind))
	}
	for k := range want.Ind {
		if got.Ind[k] != want.Ind[k] || !sameBits(got.Val[k], want.Val[k]) {
			t.Fatalf("%s: entry %d = (%d,%v), want (%d,%v)",
				label, k, got.Ind[k], got.Val[k], want.Ind[k], want.Val[k])
		}
	}
}

// vmaskVariants enumerates the vector-mask interpretations over the output
// dimension n: unmasked, value, structural, complemented and both.
func vmaskVariants(rng *rand.Rand, n int) []struct {
	name string
	mask VMask
} {
	mvec := sprayVec(rng, n, 2, func(r *rand.Rand) bool { return r.Intn(2) == 0 })
	return []struct {
		name string
		mask VMask
	}{
		{"nomask", VMask{}},
		{"value", VMask{M: mvec}},
		{"structural", VMask{M: mvec, Structural: true}},
		{"complement", VMask{M: mvec, Complement: true}},
		{"structural-complement", VMask{M: mvec, Structural: true, Complement: true}},
	}
}

// vecDensities enumerates the operand-density regimes of a frontier of length
// n, which is all that selects its storage: a full frontier gets the full
// (bitmap-free) view, a partial one the bitmap view, and a hypersparse one
// stays on the sparse form where the statistics pick the hash gather, and is
// densified into a bitmap view where KernelDense pins the dense one.
func vecDensities[T any](rng *rand.Rand, n int, mk func(*rand.Rand) T) []struct {
	name string
	vec  *Vec[T]
} {
	return []struct {
		name string
		vec  *Vec[T]
	}{
		{"full", fullVec(rng, n, mk)},
		{"partial", sprayVec(rng, n, 4, mk)},
		{"hypersparse", sprayVec(rng, n, 16, mk)},
	}
}

// loopModes is the loop axis: the semiring's tag, which runs its family loop
// wherever the route admits one, and SemiGeneric, which runs the closure loop.
func loopModes(semi Semi) []struct {
	name string
	semi Semi
} {
	return []struct {
		name string
		semi Semi
	}{{"family", semi}, {"closure", SemiGeneric}}
}

// diffMonoMxV sweeps the pull (SpMV) and push (VxM) products for one hot
// semiring over densities × masks × threads — and the pull over both gather
// pins — and requires the semiring-routed and closure kernels to agree
// exactly.
func diffMonoMxV[T comparable](t *testing.T, rng *rand.Rand, semi Semi,
	mul, add func(T, T) T, mk func(*rand.Rand) T) {
	t.Helper()
	for trial := 0; trial < 6; trial++ {
		rows := 1 + rng.Intn(40)
		cols := 1 + rng.Intn(40)
		a := sprayCSR(rng, rows, cols, 3*(rows+cols), mk)

		// Pull: frontier over cols, mask over rows.
		for _, fv := range vecDensities(rng, cols, mk) {
			for _, mv := range vmaskVariants(rng, rows) {
				for _, threads := range []int{1, 4} {
					for _, hint := range []Kernel{KernelAuto, KernelDense} {
						clos := closureSpMV(a, fv.vec, mul, add, mv.mask, threads, hint)
						got, err := SpMVSemiEx(semi, SpecAuto, a, fv.vec, mul, add, mv.mask, par(threads), hint)
						if err != nil {
							t.Fatalf("pull %s/%s: %v", fv.name, mv.name, err)
						}
						identicalVec(t, fmt.Sprintf("%s/pull/hint=%d/%s/%s", semi, hint, fv.name, mv.name), got, clos)
					}
				}
			}
		}

		// Push: frontier over rows, mask over cols.
		for _, fv := range vecDensities(rng, rows, mk) {
			for _, mv := range vmaskVariants(rng, cols) {
				for _, threads := range []int{1, 4} {
					clos := closureVxM(fv.vec, a, mul, add, mv.mask, threads)
					got, err := VxMSemiEx(semi, SpecAuto, fv.vec, a, mul, add, mv.mask, par(threads))
					if err != nil {
						t.Fatalf("push %s/%s: %v", fv.name, mv.name, err)
					}
					identicalVec(t, semi.String()+"/push/"+fv.name+"/"+mv.name, got, clos)
				}
			}
		}
	}
}

// diffMonoSpGEMM sweeps the matrix product for one hot semiring over masks ×
// accumulator hints × threads; the hash hint exercises the fallback path,
// which must agree too (it runs the identical closures).
func diffMonoSpGEMM[T comparable](t *testing.T, rng *rand.Rand, semi Semi,
	mul, add func(T, T) T, mk func(*rand.Rand) T) {
	t.Helper()
	for trial := 0; trial < 6; trial++ {
		m := 1 + rng.Intn(30)
		k := 1 + rng.Intn(30)
		n := 1 + rng.Intn(30)
		if trial%2 == 1 {
			n = 400 + rng.Intn(1500) // wide outputs: the hash SPA's regime
		}
		a := sprayCSR(rng, m, k, 2*(m+k), mk)
		b := sprayCSR(rng, k, n, 2*(k+n), mk)
		maskM := sprayCSR(rng, m, n, (m*n)/3+1, func(r *rand.Rand) bool { return r.Intn(2) == 0 })
		for _, mv := range maskVariants(maskM) {
			for _, threads := range []int{1, 4} {
				for _, hint := range []Kernel{KernelAuto, KernelDense, KernelHash} {
					clos := closureSpGEMM(a, b, mul, add, mv.mask, threads, hint)
					got, err := SpGEMMSemiEx(semi, SpecAuto, a, b, mul, add, mv.mask, par(threads), hint)
					if err != nil {
						t.Fatalf("mxm %s: %v", mv.name, err)
					}
					identicalCSR(t, fmt.Sprintf("%s/mxm/hint=%d/%s", semi, hint, mv.name), got, clos)
				}
			}
		}
	}
}

// diffMonoAll runs every kernel family for one semiring × element type and
// then asserts the monomorphized path actually engaged — a silent fallback
// would make the whole battery vacuous.
func diffMonoAll[T comparable](t *testing.T, rng *rand.Rand, semi Semi,
	mul, add func(T, T) T, mk func(*rand.Rand) T) {
	t.Helper()
	ResetKernelCounts()
	diffMonoMxV(t, rng, semi, mul, add, mk)
	diffMonoSpGEMM(t, rng, semi, mul, add, mk)
	if mono, _ := MonoCounts(); mono == 0 {
		t.Fatalf("%s: monomorphized kernels never engaged — battery is vacuous", semi)
	}
}

// The op closures mirror the root package's semiring tables (ops.go)
// exactly, tie behaviour included: Min returns its first argument on ties,
// matching the mono loops' keep-accumulator compare.

func monoMin[T int64 | float64](x, y T) T {
	if y < x {
		return y
	}
	return x
}

func TestMonoDifferentialPlusTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	diffMonoAll(t, rng, SemiPlusTimes,
		func(a, b int64) int64 { return a * b },
		func(a, b int64) int64 { return a + b },
		func(r *rand.Rand) int64 { return int64(r.Intn(19) - 9) })
	diffMonoAll(t, rng, SemiPlusTimes,
		func(a, b float64) float64 { return a * b },
		func(a, b float64) float64 { return a + b },
		spikedFloat)
}

func TestMonoDifferentialMinPlus(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	diffMonoAll(t, rng, SemiMinPlus,
		func(a, b int64) int64 { return a + b },
		monoMin[int64],
		func(r *rand.Rand) int64 { return int64(r.Intn(1000)) })
	diffMonoAll(t, rng, SemiMinPlus,
		func(a, b float64) float64 { return a + b },
		monoMin[float64],
		spikedFloat) // Inf + -Inf: a NaN first product, which no min ever replaces
}

func TestMonoDifferentialLorLand(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	diffMonoAll(t, rng, SemiLorLand,
		func(a, b bool) bool { return a && b },
		func(a, b bool) bool { return a || b },
		func(r *rand.Rand) bool { return r.Intn(3) > 0 })
}

func TestMonoDifferentialPlusPair(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	diffMonoAll(t, rng, SemiPlusPair,
		func(a, b int64) int64 { return 1 },
		func(a, b int64) int64 { return a + b },
		func(r *rand.Rand) int64 { return int64(r.Intn(100)) })
	diffMonoAll(t, rng, SemiPlusPair,
		func(a, b float64) float64 { return 1 },
		func(a, b float64) float64 { return a + b },
		func(r *rand.Rand) float64 { return r.NormFloat64() })
}

// TestMonoDifferentialGEMV pins the fully-dense regime: a full matrix times
// a full vector has no fast path of its own — it takes the bitmap-free arm of
// the family row loop over CSR — and must match the closure loop product for
// product.
func TestMonoDifferentialGEMV(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	for trial := 0; trial < 4; trial++ {
		rows := 1 + rng.Intn(24)
		cols := 1 + rng.Intn(24)
		a := fullCSR(rng, rows, cols, func(r *rand.Rand) float64 { return r.NormFloat64() })
		u := fullVec(rng, cols, func(r *rand.Rand) float64 { return r.NormFloat64() })
		mul := func(a, b float64) float64 { return a * b }
		add := func(a, b float64) float64 { return a + b }
		for _, mv := range vmaskVariants(rng, rows) {
			for _, threads := range []int{1, 4} {
				clos := closureSpMV(a, u, mul, add, mv.mask, threads, KernelAuto)
				got, err := SpMVSemiEx(SemiPlusTimes, SpecAuto, a, u, mul, add, mv.mask, par(threads), KernelAuto)
				if err != nil {
					t.Fatalf("full %s: %v", mv.name, err)
				}
				identicalVec(t, "full/"+mv.name, got, clos)
			}
		}
	}
}

// TestMonoRoutingGates checks that the pull product obeys the plan (the
// decision table itself is TestPlan; what the tables resolve is
// TestFamilyLoopTables): the route read back through Exec.Route is the
// planned one, the counters agree with it, and the frontier's bitmap view is
// materialized exactly when the gather is dense and the frontier is not full
// (a full one is its own view: nothing is converted, memoized or counted as
// scratch). The hash rows need operands that are hypersparse in gather work
// (table inserts + lookups < n/2): one entry against a four-entry matrix.
// Each row uses a fresh vector because the view caches on it.
func TestMonoRoutingGates(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	mul := func(a, b float64) float64 { return a * b }
	add := func(a, b float64) float64 { return a + b }
	mk := func(r *rand.Rand) float64 { return r.NormFloat64() }
	a := sprayCSR(rng, 20, 20, 60, mk)
	thin := sprayCSR(rng, 20, 20, 4, mk)
	hyper := func() *Vec[float64] { return &Vec[float64]{N: 20, Ind: []int{7}, Val: []float64{1.5}} }
	partial := NewVec[float64](20) // 15 of 20: above the hash cut, not full
	for j := 0; j < 20; j++ {
		if j%4 != 0 {
			partial.Ind = append(partial.Ind, j)
			partial.Val = append(partial.Val, float64(j))
		}
	}
	for _, tc := range []struct {
		name     string
		a        *CSR[float64]
		vec      *Vec[float64]
		semi     Semi
		hint     Kernel
		want     Route
		wantFull bool
	}{
		{"full/auto", a, fullVec(rng, 20, mk), SemiPlusTimes, KernelAuto, Route{Family: true, Acc: AccDense, Reason: ReasonDenseWork}, true},
		{"partial/auto", a, partial, SemiPlusTimes, KernelAuto, Route{Family: true, Acc: AccDense, Reason: ReasonDenseWork}, false},
		{"sparse frontier/auto", a, hyper(), SemiPlusTimes, KernelAuto, Route{Family: true, Acc: AccDense, Reason: ReasonDenseWork}, false},
		{"full over hypersparse/auto", thin, fullVec(rng, 20, mk), SemiPlusTimes, KernelAuto, Route{Family: true, Acc: AccDense, Reason: ReasonDenseWork}, true},
		{"hypersparse/auto", thin, hyper(), SemiPlusTimes, KernelAuto, Route{Acc: AccHash, Reason: ReasonFewProbes}, false},
		{"hypersparse/dense", thin, hyper(), SemiPlusTimes, KernelDense, Route{Family: true, Acc: AccDense, Reason: ReasonPin}, false},
		{"full/untagged", a, fullVec(rng, 20, mk), SemiGeneric, KernelAuto, Route{Acc: AccDense, Reason: ReasonDenseWork}, true},
	} {
		a := tc.a
		var rt Route
		ResetKernelCounts()
		got, err := SpMVSemiEx(tc.semi, SpecAuto, a, tc.vec, mul, add, VMask{}, Exec{Threads: 2, Grain: 1, Route: &rt}, tc.hint)
		if err != nil {
			t.Fatal(err)
		}
		if tc.want.Workers = 2; rt != tc.want {
			t.Fatalf("%s: route %+v, want %+v", tc.name, rt, tc.want)
		}
		mono, closure := MonoCounts()
		if (mono == 1) != rt.Family || (closure == 1) == rt.Family {
			t.Fatalf("%s: mono=%d closure=%d for route %+v", tc.name, mono, closure, rt)
		}
		dense, hash := KernelCounts()
		if (dense == 1) != (rt.Acc == AccDense) || (hash == 1) != (rt.Acc == AccHash) {
			t.Fatalf("%s: dense=%d hash=%d for route %+v", tc.name, dense, hash, rt)
		}
		dv := tc.vec.view.Load()
		if (dv != nil) != (rt.Acc == AccDense && !tc.wantFull) {
			t.Fatalf("%s: view materialized = %v under route %+v", tc.name, dv != nil, rt)
		}
		if dv != nil && dv.Bit == nil {
			t.Fatalf("%s: a memoized view without a bitmap", tc.name)
		}
		if conv, scratch := FormatConversionCount(), ScratchBytes(); (conv != 0) != (dv != nil) || tc.wantFull && scratch != 0 {
			t.Fatalf("%s: %d conversions, %d scratch bytes with view materialized = %v", tc.name, conv, scratch, dv != nil)
		}
		identicalVec(t, tc.name, got, closureSpMV(a, tc.vec, mul, add, VMask{}, 2, KernelAuto))
	}

	// A named element type resolves to no loop: the closure loop serves it,
	// with correct results.
	type myF float64
	am := sprayCSR(rng, 16, 16, 40, func(r *rand.Rand) myF { return myF(r.Intn(9)) })
	um := fullVec(rng, 16, func(r *rand.Rand) myF { return myF(r.Intn(9)) })
	mulM := func(a, b myF) myF { return a * b }
	addM := func(a, b myF) myF { return a + b }
	ResetKernelCounts()
	got, err := SpMVSemiEx(SemiPlusTimes, SpecAuto, am, um, mulM, addM, VMask{}, par(2), KernelAuto)
	if err != nil {
		t.Fatal(err)
	}
	identicalVec(t, "named-type", got, closureSpMV(am, um, mulM, addM, VMask{}, 2, KernelAuto))
	if mono, _ := MonoCounts(); mono != 0 {
		t.Fatalf("named element type reached a monomorphized kernel (mono=%d)", mono)
	}
}
