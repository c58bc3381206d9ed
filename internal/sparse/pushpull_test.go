package sparse

import (
	"math/rand"
	"testing"
)

// vmaskRef is the reference mask-admission semantics: present-and-true
// (value), present (structural), inverted under complement.
func vmaskRef(mask VMask, j int) bool {
	if mask.M == nil {
		return !mask.Complement
	}
	present, val := false, false
	for k, mj := range mask.M.Ind {
		if mj == j {
			present, val = true, mask.M.Val[k]
			break
		}
	}
	adm := present && (mask.Structural || val)
	if mask.Complement {
		adm = !adm
	}
	return adm
}

// TestVMaskLookupSemantics checks the compiled mask predicate against the
// reference semantics in both forms (bitmap and hash — the planner's
// Route.HashMask) over a dense and a hypersparse mask, for every mask
// interpretation.
func TestVMaskLookupSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	regimes := []struct {
		name   string
		n, nnz int
	}{
		{"dense", 50, 30},
		{"hypersparse", 5000, 12},
	}
	for _, reg := range regimes {
		m := NewVec[bool](reg.n)
		for _, j := range rng.Perm(reg.n)[:reg.nnz] {
			m.Ind = append(m.Ind, j)
			m.Val = append(m.Val, rng.Intn(2) == 0)
		}
		sortVecByIndex(m)
		for _, mv := range []struct {
			name string
			mask VMask
		}{
			{"value", VMask{M: m}},
			{"structural", VMask{M: m, Structural: true}},
			{"complement", VMask{M: m, Complement: true}},
			{"structural-complement", VMask{M: m, Structural: true, Complement: true}},
		} {
			for _, hash := range []bool{false, true} {
				admit := vmaskLookup(mv.mask, reg.n, hash, Exec{}, siteSpMVGather)
				if admit == nil {
					t.Fatalf("%s/%s: nil predicate for a non-nil mask", reg.name, mv.name)
				}
				for j := 0; j < reg.n; j++ {
					if got, want := admit(j), vmaskRef(mv.mask, j); got != want {
						t.Fatalf("%s/%s hash=%v: admit(%d) = %v, want %v", reg.name, mv.name, hash, j, got, want)
					}
				}
			}
		}
	}
	// Nil-mask corners: no mask admits everything (nil predicate), a
	// complemented nil mask admits nothing.
	if admit := vmaskLookup(VMask{}, 10, false, Exec{}, siteSpMVGather); admit != nil {
		t.Fatal("nil mask: expected nil (admit-all) predicate")
	}
	admit := vmaskLookup(VMask{Complement: true}, 10, true, Exec{}, siteSpMVGather)
	if admit == nil {
		t.Fatal("complemented nil mask: expected a predicate")
	}
	for j := 0; j < 10; j++ {
		if admit(j) {
			t.Fatalf("complemented nil mask admitted position %d", j)
		}
	}
}

// sortVecByIndex sorts a vector's parallel (Ind, Val) slices by index —
// sprayed test vectors must satisfy the sorted-pattern invariant.
func sortVecByIndex(v *Vec[bool]) {
	for i := 1; i < len(v.Ind); i++ {
		for k := i; k > 0 && v.Ind[k] < v.Ind[k-1]; k-- {
			v.Ind[k], v.Ind[k-1] = v.Ind[k-1], v.Ind[k] //grblint:ignore snapshotcheck -- test-local vector, normalized before first use
			v.Val[k], v.Val[k-1] = v.Val[k-1], v.Val[k] //grblint:ignore snapshotcheck -- test-local vector, normalized before first use
		}
	}
}

// TestVxMReductionPaths checks that the push gives the same output however
// its output columns are split: the same product is run at one, three and
// eight column ranges, over narrow outputs (the SPA) and very wide ones (the
// hash table, where the products are few), against the pull kernel over the
// transpose as an independent reference.
func TestVxMReductionPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	mul := func(x, a int) int { return x * a }
	add := func(a, b int) int { return a + b }
	mulFlip := func(a, x int) int { return mul(x, a) }
	for trial := 0; trial < 10; trial++ {
		rows := 2 + rng.Intn(50)
		// Alternate narrow outputs (the SPA's regime) and very wide ones
		// (the table's).
		cols := 2 + rng.Intn(30)
		if trial%2 == 1 {
			cols = 2000 + rng.Intn(3000)
		}
		a := sprayCSR(rng, rows, cols, 3*rows, func(r *rand.Rand) int { return 1 + r.Intn(9) })
		u := NewVec[int](rows)
		for i := 0; i < rows; i++ {
			if rng.Intn(3) > 0 {
				u.Ind = append(u.Ind, i)
				u.Val = append(u.Val, 1+rng.Intn(9))
			}
		}
		mvec := NewVec[bool](cols)
		for j := 0; j < cols; j++ {
			if rng.Intn(3) == 0 {
				mvec.Ind = append(mvec.Ind, j)
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
		at := Transpose(a)
		for _, mv := range masks {
			base := closureVxM(u, a, mul, add, mv.mask, 1)
			ref := closureSpMV(at, u, mulFlip, add, mv.mask, 1, KernelAuto)
			for _, pair := range []struct {
				name string
				got  *Vec[int]
			}{
				{"threads=3", closureVxM(u, a, mul, add, mv.mask, 3)},
				{"threads=8", closureVxM(u, a, mul, add, mv.mask, 8)},
				{"pull-reference", ref},
			} {
				if len(pair.got.Ind) != len(base.Ind) {
					t.Fatalf("trial %d %s/%s: nnz %d != %d", trial, mv.name, pair.name, len(pair.got.Ind), len(base.Ind))
				}
				for k := range base.Ind {
					if pair.got.Ind[k] != base.Ind[k] || pair.got.Val[k] != base.Val[k] {
						t.Fatalf("trial %d %s/%s: entry %d (%d,%v) != (%d,%v)", trial, mv.name, pair.name,
							k, pair.got.Ind[k], pair.got.Val[k], base.Ind[k], base.Val[k])
					}
				}
			}
		}
	}
}

// TestChoosePushRouting checks that a product dispatched by ChoosePush (the
// decision table itself is TestPlan) lands on the kernel the plan named: a
// sparse frontier on the push scaffold, a frontier past the cut under a
// sparse non-complemented mask on the pull scaffold, with the same admitted
// result.
func TestChoosePushRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
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
	rng := rand.New(rand.NewSource(diffSeed(t)))
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
	rng := rand.New(rand.NewSource(diffSeed(t)))
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
