package sparse

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// Write-back oracle: a map-based reference for the element-wise vector
// kernels and for the accum ∘ mask ∘ replace write-back, swept over the
// operand pattern classes that select the kernels' sharing and fast paths
// (see DESIGN.md, "Vector write-back: sharing and exact allocation"). The
// binary operators are non-commutative on purpose: a fast path that swaps
// its operands cannot pass. Rerun a failure with GRB_DIFF_SEED=<seed>.

func refMap(v *Vec[int]) map[int]int {
	m := make(map[int]int, len(v.Ind))
	for k, i := range v.Ind {
		m[i] = v.Val[k]
	}
	return m
}

func refVec(n int, m map[int]int) *Vec[int] {
	out := &Vec[int]{N: n}
	for i := range m {
		out.Ind = append(out.Ind, i)
	}
	sort.Ints(out.Ind)
	for _, i := range out.Ind {
		out.Val = append(out.Val, m[i])
	}
	return out
}

// refUnion is eWiseAdd and the accumulator step: a's side is f's first
// operand, one-sided entries pass through.
func refUnion(a, b map[int]int, f func(int, int) int) map[int]int {
	out := make(map[int]int)
	for i, x := range a {
		out[i] = x
		if y, ok := b[i]; ok {
			out[i] = f(x, y)
		}
	}
	for i, y := range b {
		if _, ok := a[i]; !ok {
			out[i] = y
		}
	}
	return out
}

func refIntersect(a, b map[int]int, f func(int, int) int) map[int]int {
	out := make(map[int]int)
	for i, x := range a {
		if y, ok := b[i]; ok {
			out[i] = f(x, y)
		}
	}
	return out
}

// refAssignScalar is the candidate Z of a scalar assign to idx (nil = all).
func refAssignScalar(n int, c map[int]int, val int, idx []int, accum func(int, int) int) map[int]int {
	out := make(map[int]int)
	for i, x := range c {
		out[i] = x
	}
	if idx == nil {
		for i := 0; i < n; i++ {
			idx = append(idx, i)
		}
	}
	for _, i := range idx {
		out[i] = val
		if x, ok := c[i]; ok && accum != nil {
			out[i] = accum(x, val)
		}
	}
	return out
}

// refWriteBack is W = mask(C, accum(C, T)) with replace, position by position.
func refWriteBack(n int, c, t map[int]int, accum func(int, int) int, mask VMask, replace bool) map[int]int {
	z := t
	if accum != nil {
		z = refUnion(c, t, accum)
	}
	out := make(map[int]int)
	for i := 0; i < n; i++ {
		admit := true
		if mask.M != nil {
			v, present := mask.M.Get(i)
			admit = present && (mask.Structural || v)
		}
		if admit != mask.Complement {
			if x, ok := z[i]; ok {
				out[i] = x
			}
		} else if x, ok := c[i]; ok && !replace {
			out[i] = x
		}
	}
	return out
}

func randPattern(rng *rand.Rand, n, nnz int) []int {
	ind := rng.Perm(n)[:nnz]
	sort.Ints(ind)
	return ind
}

func randVals(rng *rand.Rand, n int) []int {
	val := make([]int, n)
	for k := range val {
		val[k] = rng.Intn(19) - 9
	}
	return val
}

func randIntVec(rng *rand.Rand, n, nnz int) *Vec[int] {
	return &Vec[int]{N: n, Ind: randPattern(rng, n, nnz), Val: randVals(rng, nnz)}
}

type vecPair struct {
	name string
	a, b *Vec[int]
}

// writeBackPairs enumerates the operand pattern classes at size n.
func writeBackPairs(rng *rand.Rand, n int) []vecPair {
	sparse := func() *Vec[int] { return randIntVec(rng, n, rng.Intn(n/2+1)) }
	full := func() *Vec[int] { return randIntVec(rng, n, n) }
	pairs := []vecPair{
		{"empty-empty", NewVec[int](n), NewVec[int](n)},
		{"empty-sparse", NewVec[int](n), sparse()},
		{"sparse-empty", sparse(), NewVec[int](n)},
		{"sparse-sparse", sparse(), sparse()},
		{"full-full", full(), full()},
		{"full-sparse", full(), sparse()},
		{"sparse-full", sparse(), full()},
	}
	if n > 0 {
		pairs = append(pairs, vecPair{"single-single", randIntVec(rng, n, 1), randIntVec(rng, n, 1)},
			vecPair{"single-sparse", randIntVec(rng, n, 1), sparse()})
	}
	s := sparse()
	separate := &Vec[int]{N: n, Ind: append([]int(nil), s.Ind...), Val: randVals(rng, len(s.Ind))}
	shared := &Vec[int]{N: n, Ind: s.Ind, Val: randVals(rng, len(s.Ind))}
	return append(pairs, vecPair{"same-separate", s, separate}, vecPair{"same-shared", s, shared})
}

// writeBackMasks enumerates nil/value/structural × complement at size n; the
// value masks mix stored trues and falses.
func writeBackMasks(rng *rand.Rand, n int) []VMask {
	masks := []VMask{{}, {Complement: true}}
	for _, nnz := range []int{0, rng.Intn(n/2 + 1), n} {
		m := &Vec[bool]{N: n, Ind: randPattern(rng, n, nnz), Val: make([]bool, nnz)}
		for k := range m.Val {
			m.Val[k] = rng.Intn(2) == 0
		}
		for _, structural := range []bool{false, true} {
			for _, comp := range []bool{false, true} {
				masks = append(masks, VMask{M: m, Structural: structural, Complement: comp})
			}
		}
	}
	return masks
}

func describeMask(m VMask) string {
	if m.M == nil {
		return fmt.Sprintf("nil/comp=%v", m.Complement)
	}
	return fmt.Sprintf("nnz=%d/struct=%v/comp=%v", m.M.NNZ(), m.Structural, m.Complement)
}

func TestVecWriteBackOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	minus := func(x, y int) int { return x - y }
	first := func(x, _ int) int { return x }
	ops := []struct {
		name string
		f    func(int, int) int
	}{{"nil", nil}, {"minus", minus}, {"first", first}}
	eq := func(x, y int) bool { return x == y }

	for _, n := range []int{0, 1, 2, 17, 64} {
		for _, p := range writeBackPairs(rng, n) {
			a, b := p.a, p.b
			a0, b0 := a.Clone(), b.Clone()
			am, bm := refMap(a), refMap(b)
			check := func(what string, got *Vec[int], want map[int]int) {
				t.Helper()
				DebugCheckVec(got, what)
				if !got.Valid() || !VecEqualFunc(got, refVec(n, want), eq) {
					t.Fatalf("n=%d %s %s:\n a=%v\n b=%v\n got  %v %v\n want %v", n, p.name, what, a, b, got.Ind, got.Val, refVec(n, want))
				}
				if !VecEqualFunc(a, a0, eq) || !VecEqualFunc(b, b0, eq) {
					t.Fatalf("n=%d %s %s: an operand was written through", n, p.name, what)
				}
			}

			for _, op := range ops[1:] {
				check("EWiseAddV/"+op.name, EWiseAddV(BinGeneric, a, b, op.f), refUnion(am, bm, op.f))
				check("EWiseMultV/"+op.name, EWiseMultV(BinGeneric, a, b, op.f), refIntersect(am, bm, op.f))
			}
			applied, indexed, selected := map[int]int{}, map[int]int{}, map[int]int{}
			for i, x := range am {
				applied[i] = 3 - x
				indexed[i] = x - 2*i + 5
				if (x+i)%3 != 0 {
					selected[i] = x
				}
			}
			check("ApplyV", ApplyV(a, func(x int) int { return 3 - x }), applied)
			check("ApplyIndexV", ApplyIndexV(a, func(x, i, _ int, s int) int { return x - 2*i + s }, 5), indexed)
			check("SelectV", SelectV(a, func(x, i, _ int, s int) bool { return (x+i)%s != 0 }, 3), selected)

			var idx []int
			if n > 0 {
				idx = rng.Perm(n)[:rng.Intn(n)+1]
				idx = append(idx, idx[0]) // a repeated index assigns once
			}
			for _, op := range ops {
				for _, region := range [][]int{nil, idx} {
					z, err := AssignScalarV(a, 7, region, op.f)
					if err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("AssignScalarV/%s/all=%v", op.name, region == nil), z, refAssignScalar(n, am, 7, region, op.f))
				}
			}

			for _, mask := range writeBackMasks(rng, n) {
				for _, replace := range []bool{false, true} {
					for _, op := range ops {
						tag := fmt.Sprintf("%s/replace=%v/accum=%s", describeMask(mask), replace, op.name)
						z := AccumMergeV(a, b, op.f)
						check("write-back/"+tag, MaskApplyV(a, z, mask, replace), refWriteBack(n, am, bm, op.f, mask, replace))
						if mask.M == nil || mask.Complement {
							continue
						}
						// Fused masked scalar assign: T is the all-7 full vector.
						all := refAssignScalar(n, nil, 7, nil, nil)
						check("AssignScalarMaskedV/"+tag, AssignScalarMaskedV(a, 7, op.f, mask, replace),
							refWriteBack(n, am, all, op.f, mask, replace))
					}
				}
			}
		}
	}
}

// allocatedBytes returns the heap bytes one warmed call of f allocates (the
// least of three, so a stray runtime allocation cannot fail a pin).
func allocatedBytes(f func()) uint64 {
	f()
	best := ^uint64(0)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestVecKernelAllocationPins holds the element-wise kernels and the pull
// product to "one output, allocated once": allocation deltas around a warmed
// call, no wall clock. These localize what the end-to-end alloc_kb_per_op
// bound is too coarse to attribute.
func TestVecKernelAllocationPins(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	n := 1 << 16
	fullVec := func() *Vec[float64] {
		v := &Vec[float64]{N: n, Ind: make([]int, n), Val: make([]float64, n)}
		for i := range v.Ind {
			v.Ind[i], v.Val[i] = i, rng.Float64()
		}
		return v
	}
	u, v := fullVec(), fullVec()
	pin := func(what string, limit int, f func()) {
		t.Helper()
		if got := allocatedBytes(f); got > uint64(limit) {
			t.Errorf("%s allocated %d bytes, want <= %d", what, got, limit)
		}
	}
	var sink *Vec[float64]
	pin("ApplyV on a full vector (one value array)", 8*n+256, func() {
		sink = ApplyV(u, func(x float64) float64 { return -x })
	})
	pin("same-pattern EWiseAddV (one value array)", 8*n+256, func() {
		sink = EWiseAddV(BinGeneric, u, v, func(x, y float64) float64 { return x - y })
	})

	// Every row stores its diagonal, so the product has n entries.
	I, J, X := make([]int, 0, 5*n), make([]int, 0, 5*n), make([]float64, 0, 5*n)
	for i := 0; i < n; i++ {
		I, J, X = append(I, i), append(J, i), append(X, 1)
		for k := 0; k < 4; k++ {
			I, J, X = append(I, i), append(J, rng.Intn(n)), append(X, rng.Float64())
		}
	}
	a, err := BuildCSR(n, n, I, J, X, func(x, y float64) float64 { return x + y })
	if err != nil {
		t.Fatal(err)
	}
	times := func(x, y float64) float64 { return x * y }
	plus := func(x, y float64) float64 { return x + y }
	before, _ := MonoCounts()
	pin("unmasked mono plus-times SpMV, one thread, cached view (output only)", 16*n+1024, func() {
		sink, err = SpMVSemiEx(SemiPlusTimes, SpecAuto, a, u, times, plus, VMask{}, Exec{Threads: 1}, KernelAuto)
		if err != nil {
			t.Fatal(err)
		}
	})
	if after, _ := MonoCounts(); after == before {
		t.Fatal("the product did not take the monomorphized route; the pin measured the wrong kernel")
	}
	if sink.NNZ() != n || cap(sink.Ind) != n || cap(sink.Val) != n {
		t.Fatalf("SpMV output has %d entries in capacity %d/%d, want exactly %d", sink.NNZ(), cap(sink.Ind), cap(sink.Val), n)
	}
	pin("the same product on a fresh vector (output only: a full vector is its own view)", 16*n+1024, func() {
		w := &Vec[float64]{N: n, Ind: u.Ind, Val: u.Val}
		sink, err = SpMVSemiEx(SemiPlusTimes, SpecAuto, a, w, times, plus, VMask{}, Exec{Threads: 1}, KernelAuto)
		if err != nil {
			t.Fatal(err)
		}
	})
	pin("accumulated into a full c (one value array and a block buffer, no stored t)", 8*n+16*accumBlock+1024, func() {
		sink, err = SpMVAccumEx(SemiPlusTimes, a, u, times, plus, VMask{}, v, plus, BinGeneric, Exec{Threads: 1}, KernelAuto)
		if err != nil {
			t.Fatal(err)
		}
	})
	if &sink.Ind[0] != &v.Ind[0] {
		t.Fatal("the accumulated product does not share c's index array")
	}

	present := make([]bool, n)
	for i := 0; i < n; i += 3 {
		present[i] = true
	}
	// Each rounds up to a whole 8 KB page; growing by append cost twice this.
	pin("GatherVec (Ind and Val, each allocated once at the count)", 16*((n+2)/3)+2*8192+256, func() {
		sink = GatherVec(u.Val, present)
	})
}
