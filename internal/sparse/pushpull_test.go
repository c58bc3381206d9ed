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
// reference semantics in both the dense-bitmap and hash regimes, for every
// mask interpretation.
func TestVMaskLookupSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	regimes := []struct {
		name   string
		n, nnz int
	}{
		{"dense", 50, 30},         // nnz ≥ n/threshold: bitmap path
		{"hypersparse", 5000, 12}, // nnz ≪ n/threshold: hash path
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
			admit := vmaskLookup(mv.mask, reg.n)
			if admit == nil {
				t.Fatalf("%s/%s: nil predicate for a non-nil mask", reg.name, mv.name)
			}
			for j := 0; j < reg.n; j++ {
				if got, want := admit(j), vmaskRef(mv.mask, j); got != want {
					t.Fatalf("%s/%s: admit(%d) = %v, want %v", reg.name, mv.name, j, got, want)
				}
			}
		}
	}
	// Nil-mask corners: no mask admits everything (nil predicate), a
	// complemented nil mask admits nothing.
	if admit := vmaskLookup(VMask{}, 10); admit != nil {
		t.Fatal("nil mask: expected nil (admit-all) predicate")
	}
	admit := vmaskLookup(VMask{Complement: true}, 10)
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

// TestVxMReductionPaths checks that the parallel dense reduction and the
// sequential sparse merge produce identical output: the same product is run
// at thread counts that exercise single-SPA, dense-reduction and sparse-merge
// combining, in both output-density regimes, against the pull kernel over
// the transpose as an independent reference.
func TestVxMReductionPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	mul := func(x, a int) int { return x * a }
	add := func(a, b int) int { return a + b }
	mulFlip := func(a, x int) int { return mul(x, a) }
	for trial := 0; trial < 10; trial++ {
		rows := 2 + rng.Intn(50)
		// Alternate narrow outputs (dense reduction regime) and very wide
		// ones (sparse merge regime).
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
			base := VxM(u, a, mul, add, mv.mask, 1)
			ref := SpMVKernel(at, u, mulFlip, add, mv.mask, 1, KernelAuto)
			for _, pair := range []struct {
				name string
				got  *Vec[int]
			}{
				{"threads=3", VxM(u, a, mul, add, mv.mask, 3)},
				{"threads=8", VxM(u, a, mul, add, mv.mask, 8)},
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

// TestChoosePushRouting checks the density heuristic's decision table at the
// constant threshold, boundaries included.
func TestChoosePushRouting(t *testing.T) {
	const dim = 1600 // dim/defaultDirectionThreshold = 100
	maskOf := func(nnz int) *Vec[bool] {
		m := NewVec[bool](dim)
		for j := 0; j < nnz; j++ {
			m.Ind = append(m.Ind, j*(dim/nnz))
			m.Val = append(m.Val, true)
		}
		return m
	}
	sparseMask := maskOf(10)
	cases := []struct {
		name string
		nnzU int
		mask VMask
		want bool
	}{
		{"sparse frontier", 5, VMask{}, true},
		{"dense frontier", 800, VMask{}, false},
		{"just under the boundary", 99, VMask{}, true},
		{"boundary frontier", 100, VMask{}, false}, // nnzU == dim/16 is not sparse
		{"sparse frontier, sparse mask", 5, VMask{M: sparseMask}, false},
		{"sparse frontier, sparse complemented mask", 5, VMask{M: sparseMask, Complement: true}, true},
		{"sparse frontier, mask just under the boundary", 5, VMask{M: maskOf(99)}, false},
		{"sparse frontier, boundary mask", 5, VMask{M: maskOf(100)}, true}, // nnz(m) == dim/16 does not veto
		{"dense frontier, boundary mask", 800, VMask{M: maskOf(100)}, false},
	}
	for _, tc := range cases {
		if got := ChoosePush(tc.nnzU, dim, tc.mask, dim); got != tc.want {
			t.Errorf("%s: ChoosePush = %v, want %v", tc.name, got, tc.want)
		}
	}
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
	VxM(u, a, mul, add, VMask{}, 2)
	SpMVKernel(a, u, mul, add, VMask{}, 2, KernelAuto)
	SpMVKernel(a, u, mul, add, VMask{}, 2, KernelAuto)
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
