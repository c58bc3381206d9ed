package sparse

import (
	"math/rand"
	"testing"

	"github.com/grblas/grb/internal/obsv"
)

// Helpers of the family-loop tests. The family loop bodies (monokernels.go)
// must produce output identical to the scaffold's closure loop bodies, bit
// for bit: the program generator (progen_test.go) holds both to one oracle
// on every product it draws.

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

// The op closures mirror the root package's semiring tables (ops.go)
// exactly, tie behaviour included: Min returns its first argument on ties,
// matching the mono loops' keep-accumulator compare.

func monoMin[T int64 | float64](x, y T) T {
	if y < x {
		return y
	}
	return x
}

// TestMonoDifferential…: the program generator's matrix products
// (progen_test.go) of one semiring's domains, each drawing the tag or
// SemiGeneric under the planner's accumulator, one worker or two, against
// one oracle; a domain whose tagged products never ran the family loop
// fails.
func TestMonoDifferentialPlusTimes(t *testing.T) { monoConfig(t, kPT|kPI) }
func TestMonoDifferentialMinPlus(t *testing.T)   { monoConfig(t, kMP|kMI) }
func TestMonoDifferentialLorLand(t *testing.T)   { monoConfig(t, kLL) }
func TestMonoDifferentialPlusPair(t *testing.T)  { monoConfig(t, kPP) }

func monoConfig(t *testing.T, kits kitSet) {
	runConfig(t, config{kinds: sGEMM, kits: kits, axis: axLoop})
}

// TestMonoDifferentialGEMV: a full matrix times a full vector, the
// bitmap-free arm of the family row loop, is the generator's one- and
// two-position programs, whose three entries a row fill their matrices; the
// pulls draw the loop alone.
func TestMonoDifferentialGEMV(t *testing.T) {
	runConfig(t, config{kinds: sPull | sPullAccum, count: 24, axis: axLoop})
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
	rng := rand.New(rand.NewSource(progSeed(t)))
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
		obsv.ResetCounters()
		got, err := SpMVSemiEx(tc.semi, SpecAuto, a, tc.vec, mul, add, VMask{}, Exec{Threads: 2, Grain: 1, Route: &rt}, tc.hint)
		if err != nil {
			t.Fatal(err)
		}
		if tc.want.Workers = 2; rt != tc.want {
			t.Fatalf("%s: route %+v, want %+v", tc.name, rt, tc.want)
		}
		mono, closure := obsv.MonoKernels.Load(), obsv.ClosureFallbacks.Load()
		if (mono == 1) != rt.Family || (closure == 1) == rt.Family {
			t.Fatalf("%s: mono=%d closure=%d for route %+v", tc.name, mono, closure, rt)
		}
		dense, hash := obsv.DenseRanges.Load(), obsv.HashRanges.Load()
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
		if conv, scratch := obsv.FormatConversions.Load(), obsv.ScratchBytes.Load(); (conv != 0) != (dv != nil) || tc.wantFull && scratch != 0 {
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
	obsv.ResetCounters()
	got, err := SpMVSemiEx(SemiPlusTimes, SpecAuto, am, um, mulM, addM, VMask{}, par(2), KernelAuto)
	if err != nil {
		t.Fatal(err)
	}
	identicalVec(t, "named-type", got, closureSpMV(am, um, mulM, addM, VMask{}, 2, KernelAuto))
	if mono := obsv.MonoKernels.Load(); mono != 0 {
		t.Fatalf("named element type reached a monomorphized kernel (mono=%d)", mono)
	}
}
