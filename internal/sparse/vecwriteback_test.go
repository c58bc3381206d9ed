package sparse

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"
)

// Write-back oracle: a map-based reference for the element-wise vector
// kernels and for the accum ∘ mask ∘ replace write-back, swept over the
// operand pattern classes that select the kernels' sharing and fast paths
// (see DESIGN.md, "Vector write-back: sharing and exact allocation"). The
// binary operators are non-commutative on purpose: a fast path that swaps
// its operands cannot pass. Rerun a failure with GRB_DIFF_SEED=<seed>.

func refMap(v *Vec[int]) map[int]int {
	I, X := v.VecTuples(nil, nil)
	m := make(map[int]int, len(I))
	for k, i := range I {
		m[i] = X[k]
	}
	return m
}

// inForm returns v in the resident form named: as built (sorted), a bitmap
// of its own holding the same entries, or — when v stores every position
// (formFits) — a full vector of its own.
func inForm[T any](v *Vec[T], form string) *Vec[T] {
	switch {
	case form == "full" && formFits(v, form):
		return &Vec[T]{N: v.N, Val: slices.Clone(v.Sorted().Val)}
	case form != "bitmap":
		return v
	}
	b := &Vec[T]{N: v.N, Val: make([]T, v.N), Bit: make([]bool, v.N), nb: uint32(v.NNZ())}
	s := v.Sorted()
	for k, i := range s.Ind {
		b.Val[i], b.Bit[i] = s.Val[k], true
	}
	return b
}

// vecForms are the resident forms; "full" is named only for a vector that
// can take it (formFits).
var vecForms = []string{"sorted", "bitmap", "full"}

// formPairs is every pair of forms for two operands.
var formPairs = func() (pairs [][2]string) {
	for _, f := range vecForms {
		for _, g := range vecForms {
			pairs = append(pairs, [2]string{f, g})
		}
	}
	return pairs
}()

// formFits reports whether inForm(v, form) is a form of its own: a full form
// needs every position stored.
func formFits[T any](v *Vec[T], form string) bool {
	return form != "full" || v.dense() && v.N > 0
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

// TestVecWriteBackOracle runs every case with each operand, the mask and
// the superseded output in each resident form, the output both granted
// (Exec.Spare is the operand it supersedes, as in d = d min f) and not.
// A kernel that reads Ind takes the sorted door itself, so every kernel is
// handed bitmaps as they are.
func TestVecWriteBackOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	minus := func(x, y int) int { return x - y }
	first := func(x, _ int) int { return x }
	ops := []struct {
		name string
		f    func(int, int) int
	}{{"nil", nil}, {"minus", minus}, {"first", first}}
	same := func(x, y *Vec[int]) bool {
		return VecEqualFunc(x.Sorted(), y.Sorted(), func(x, y int) bool { return x == y })
	}
	inPlace := func(got, c *Vec[int]) bool { return len(got.Val) > 0 && len(c.Val) > 0 && &got.Val[0] == &c.Val[0] }

	for _, n := range []int{0, 1, 2, 17, 64} {
		for _, p := range writeBackPairs(rng, n) {
			am, bm := refMap(p.a), refMap(p.b)
			for _, form := range formPairs {
				if !formFits(p.a, form[0]) || !formFits(p.b, form[1]) {
					continue
				}
				a, b := inForm(p.a, form[0]), inForm(p.b, form[1])
				a0, b0 := a.Clone(), b.Clone()
				name := fmt.Sprintf("n=%d %s %s", n, p.name, form)
				// check holds got to want; keep is the operands the kernel
				// must not have written (a granted one is superseded).
				check := func(what string, got *Vec[int], want map[int]int, keep ...*Vec[int]) {
					t.Helper()
					DebugCheckVec(got, what)
					if (got.Bit == nil && !got.full() && !got.Valid()) || !same(got, refVec(n, want)) {
						t.Fatalf("%s %s:\n a=%v\n b=%v\n got  %v\n want %v", name, what, p.a, p.b, got.Sorted(), refVec(n, want))
					}
					for _, k := range keep {
						if (k == a && !same(a, a0)) || (k == b && !same(b, b0)) {
							t.Fatalf("%s %s: an operand was written through", name, what)
						}
					}
				}
				// grant clones v, in its form, as the superseded output the
				// step hands the kernel; spare(l) is an unrelated l-entry one.
				grant := func(v *Vec[int]) (*Vec[int], Exec) {
					c := v.Clone()
					return c, Exec{Spare: c} //grblint:ignore snapshotcheck -- the test plays the step that grants
				}
				spare := func(l int) Exec {
					return Exec{Spare: &Vec[int]{N: n, Val: randVals(rng, l)}} //grblint:ignore snapshotcheck -- as above
				}
				for _, op := range ops[1:] {
					union, inter := refUnion(am, bm, op.f), refIntersect(am, bm, op.f)
					check("EWiseAddV/"+op.name, EWiseAddV(BinGeneric, a, b, op.f, Exec{}), union, a, b)
					check("EWiseMultV/"+op.name, EWiseMultV(BinGeneric, a, b, op.f, Exec{}), inter, a, b)
					check("EWiseAddV/spare/"+op.name, EWiseAddV(BinGeneric, a, b, op.f, spare(len(union))), union, a, b)
					check("EWiseMultV/spare/"+op.name, EWiseMultV(BinGeneric, a, b, op.f, spare(len(inter))), inter, a, b)
					ga, ea := grant(a)
					got := EWiseAddV(BinGeneric, ga, b, op.f, ea)
					check("EWiseAddV/granted a/"+op.name, got, union, b)
					if a.Bit != nil && a.NNZ() > 0 && !inPlace(got, ga) {
						t.Fatalf("%s EWiseAddV/granted a: wrote the bitmap in place %v", name, inPlace(got, ga))
					}
					if a.Bit == nil && b.Bit == nil && (a.NNZ()+b.NNZ())*bitmapCut >= n && 0 < a.NNZ() && a.NNZ() < n && len(union) < n &&
						b.NNZ() > 0 && !samePattern(a.Ind, b.Ind) && b.NNZ() < n && got.Bit == nil {
						t.Fatalf("%s EWiseAddV/granted a: a sorted accumulator past the cut stayed sorted", name)
					}
					gb, eb := grant(b)
					check("EWiseAddV/granted b/"+op.name, EWiseAddV(BinGeneric, a, gb, op.f, eb), union, a)
					ga, ea = grant(a)
					check("EWiseMultV/granted a/"+op.name, EWiseMultV(BinGeneric, ga, b, op.f, ea), inter, b)
					gb, eb = grant(b)
					check("EWiseMultV/granted b/"+op.name, EWiseMultV(BinGeneric, a, gb, op.f, eb), inter, a)
				}
				if form[1] == "sorted" {
					applied, indexed, selected := map[int]int{}, map[int]int{}, map[int]int{}
					for i, x := range am {
						applied[i] = 3 - x
						indexed[i] = x - 2*i + 5
						if (x+i)%3 != 0 {
							selected[i] = x
						}
					}
					check("ApplyV", ApplyV(a, func(x int) int { return 3 - x }), applied, a)
					check("ApplyIndexV", ApplyIndexV(a, func(x, i, _ int, s int) int { return x - 2*i + s }, 5), indexed, a)
					check("SelectV", SelectV(a, func(x, i, _ int, s int) bool { return (x+i)%s != 0 }, 3), selected, a)

					var idx []int
					if n > 0 {
						idx = rng.Perm(n)[:rng.Intn(n)+1]
						idx = append(idx, idx[0]) // a repeated index assigns once
					}
					for _, op := range ops {
						for _, region := range [][]int{nil, idx} {
							z, err := AssignScalarV(a, 7, region, op.f, Exec{})
							if err != nil {
								t.Fatal(err)
							}
							check(fmt.Sprintf("AssignScalarV/%s/all=%v", op.name, region == nil), z, refAssignScalar(n, am, 7, region, op.f), a)
							// Granted its own superseded array, a full c is
							// written in place: each position read before it
							// is written. So is a bitmap's n slots.
							c, e := grant(a)
							if z, err = AssignScalarV(c, 7, region, op.f, e); err != nil {
								t.Fatal(err)
							}
							check(fmt.Sprintf("AssignScalarV/granted/%s/all=%v", op.name, region == nil), z, refAssignScalar(n, am, 7, region, op.f))
							if inPlace(z, c) != (n > 0 && region == nil && (a.NNZ() == n || a.Bit != nil)) {
								t.Fatalf("%s AssignScalarV/granted: wrote in place %v", name, inPlace(z, c))
							}
						}
					}
				}

				for _, mask := range writeBackMasks(rng, n) {
					for _, mform := range vecForms {
						if mask.M != nil && formFits(mask.M, mform) {
							mask.M = inForm(mask.M, mform)
						} else if mform != "sorted" {
							continue
						}
						for _, replace := range []bool{false, true} {
							for _, op := range ops {
								tag := fmt.Sprintf("%s/%s/replace=%v/accum=%s", describeMask(mask), mform, replace, op.name)
								check("write-back/"+tag, MaskApplyV(a, AccumMergeV(a, b, op.f), mask, replace),
									refWriteBack(n, am, bm, op.f, mask, replace), a, b)
								if mask.M == nil {
									continue
								}
								// Fused masked scalar assign: T is the all-7 full vector.
								want := refWriteBack(n, am, refAssignScalar(n, nil, 7, nil, nil), op.f, mask, replace)
								got, err := AssignScalarMaskedV(a, 7, op.f, mask, replace, Exec{})
								if err != nil {
									t.Fatal(err)
								}
								check("AssignScalarMaskedV/"+tag, got, want, a)
								c, e := grant(a)
								if got, err = AssignScalarMaskedV(c, 7, op.f, mask, replace, e); err != nil {
									t.Fatal(err)
								}
								check("AssignScalarMaskedV/granted/"+tag, got, want)
								if n > 0 && c.Bit != nil && !mask.Complement && !replace && !inPlace(got, c) {
									t.Fatalf("%s AssignScalarMaskedV/granted/%s: wrote the bitmap in place %v", name, tag, inPlace(got, c))
								}
								if n > 0 && c.Bit == nil && c.dense() && !replace && (!inPlace(got, c) || !got.full()) {
									t.Fatalf("%s AssignScalarMaskedV/granted/%s: a dense c was not written in place in the full form", name, tag)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestVecHeaderSize: every vector result allocates a Vec header, which stays
// in the 96-byte size class — a bitmap's count and the holds' mark and
// readers take one word between them, and the full form adds no field. At
// 104 bytes the header fell in the 112-byte class.
func TestVecHeaderSize(t *testing.T) {
	if got := unsafe.Sizeof(Vec[float64]{}); got > 96 {
		t.Errorf("a Vec header is %d bytes, want <= 96", got)
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
		sink = EWiseAddV(BinGeneric, u, v, func(x, y float64) float64 { return x - y }, Exec{})
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
	if !sink.full() {
		t.Fatal("the product accumulated into a full c is not in the full form")
	}

	exact := func(what string, v *Vec[float64], want int) {
		t.Helper()
		if v.NNZ() != want || cap(v.Ind) != want || cap(v.Val) != want {
			t.Errorf("%s: %d entries in capacity %d/%d, want exactly %d", what, v.NNZ(), cap(v.Ind), cap(v.Val), want)
		}
	}
	// Every third position: send's pattern in PageRank, complemented by deg's.
	third := &Vec[float64]{N: n}
	present := make([]bool, n)
	for i := 0; i < n; i += 3 {
		present[i] = true
		third.Ind, third.Val = append(third.Ind, i), append(third.Val, rng.Float64())
	}
	thirdMask := &Vec[bool]{N: n, Ind: third.Ind, Val: make([]bool, len(third.Ind))}
	for k := range thirdMask.Val {
		thirdMask.Val[k] = k%2 == 0
	}
	pin("complemented fused scalar assign (full: one Val, no Ind)", 8*n+256, func() {
		sink, _ = AssignScalarMaskedV(third, 0, nil, VMask{M: thirdMask, Structural: true, Complement: true}, false, Exec{})
	})
	if !sink.full() || cap(sink.Val) != n {
		t.Errorf("complemented fused scalar assign: full form %v, capacity %d, want a full vector of capacity %d", sink.full(), cap(sink.Val), n)
	}
	pin("MaskApplyV under a valued complement (counted: one Ind and one Val)", 16*n+256, func() {
		sink = MaskApplyV(v, u, VMask{M: thirdMask, Complement: true}, true)
	})
	exact("MaskApplyV under a valued complement", sink, n-(len(third.Ind)+1)/2)
	// Two entries in each stored row, so that the entries do not bound the rows.
	next := make([]int, len(third.Ind))
	for k, i := range third.Ind {
		next[k] = (i + 1) % n
	}
	b, err := BuildCSR(n, n, append(third.Ind, third.Ind...), append(next, third.Ind...), append(third.Val, third.Val...), nil)
	if err != nil {
		t.Fatal(err)
	}
	exact("ReduceRows, one worker, a third of the rows stored", ReduceRows(MonPlus, b, plus, Exec{Threads: 1}), len(third.Ind))
	// The copy-outs count their hits first: the first half of a third-full
	// vector, and a column stored in every third row.
	col, err := BuildCSR(n, n, third.Ind, make([]int, len(third.Ind)), third.Val, nil)
	if err != nil {
		t.Fatal(err)
	}
	half := make([]int, n/2)
	for i := range half {
		half[i] = i
	}
	if sink, err = ExtractV(third, half); err != nil {
		t.Fatal(err)
	}
	exact("ExtractV of half the positions", sink, (n/2+2)/3)
	if sink, err = ExtractColV(col, nil, 0); err != nil {
		t.Fatal(err)
	}
	exact("ExtractColV of a column stored in every third row", sink, len(third.Ind))

	// Each rounds up to a whole 8 KB page; growing by append cost twice this.
	pin("GatherVec (Ind and Val, each allocated once at the count)", 16*((n+2)/3)+2*8192+256, func() {
		sink = GatherVec(u.Val, present)
	})
}

// TestProductsReadEitherForm holds the pull and the push, over each
// accumulator and loop, to the same bits whether the frontier and the mask
// are sorted, bitmaps or full: a bitmap frontier is the dense gather's own
// view and fills the hash gather's table from its flags, a full one is its
// own view and fills the table from its values, the push reads its sorted
// view, and a bitmap or full mask is the closure loop's predicate as it is,
// a structural bitmap the family loops' too. Then the push under a budget
// with room for its SPA and not for a bitmap mask's n-byte admit array
// beside it: a valued mask must take its free predicate and the closure
// loop, not fail; a structural one needs no admit array, and keeps the
// family loop.
func TestProductsReadEitherForm(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	mk := func(r *rand.Rand) float64 { return float64(r.Intn(9) - 4) }
	mul, add := func(x, y float64) float64 { return x * y }, func(x, y float64) float64 { return x + y }
	for _, n := range []int{1, 17, 300} {
		a := sprayCSR(rng, n, n, 3*n, mk)
		fullMask := fullVec(rng, n, func(r *rand.Rand) bool { return r.Intn(3) > 0 })
		masks := append(vmaskVariants(rng, n), struct {
			name string
			mask VMask
		}{"full-value", VMask{M: fullMask}}, struct {
			name string
			mask VMask
		}{"full-structural-complement", VMask{M: fullMask, Structural: true, Complement: true}})
		for _, u := range []*Vec[float64]{sprayVec(rng, n, 3, mk), sprayVec(rng, n, 40, mk), fullVec(rng, n, mk)} {
			for _, mv := range masks {
				for _, hint := range []Kernel{KernelDense, KernelHash} {
					for _, loop := range loopModes(SemiPlusTimes) {
						label := fmt.Sprintf("n=%d nnz(u)=%d %s hint=%d %s", n, u.NNZ(), mv.name, hint, loop.name)
						pull, err := SpMVSemiEx(loop.semi, SpecAuto, a, u, mul, add, mv.mask, Exec{}, hint)
						if err != nil {
							t.Fatal(err)
						}
						push, err := vxmSemi(loop.semi, u, a, mul, add, mv.mask, Exec{}, hint)
						if err != nil {
							t.Fatal(err)
						}
						for _, uf := range vecForms {
							if !formFits(u, uf) {
								continue
							}
							for _, mf := range vecForms {
								m := mv.mask
								if m.M != nil && formFits(m.M, mf) {
									m.M = inForm(m.M, mf)
								} else if mf != "sorted" {
									continue
								}
								got, err := SpMVSemiEx(loop.semi, SpecAuto, a, inForm(u, uf), mul, add, m, Exec{}, hint)
								if err != nil {
									t.Fatal(err)
								}
								identicalVec(t, label+" pull u="+uf+" mask="+mf, got, pull)
								if got, err = vxmSemi(loop.semi, inForm(u, uf), a, mul, add, m, Exec{}, hint); err != nil {
									t.Fatal(err)
								}
								identicalVec(t, label+" push u="+uf+" mask="+mf, got, push)
							}
						}
					}
				}
			}
		}
		if n < 17 {
			continue
		}
		u := sprayVec(rng, n, 3, mk)
		spa := int64(n) * 9 // a float64 and a mark per column
		for _, mv := range vmaskVariants(rng, n)[1:] {
			want, err := vxmSemi(SemiPlusTimes, u, a, mul, add, mv.mask, Exec{}, KernelDense)
			if err != nil {
				t.Fatal(err)
			}
			m := mv.mask
			m.M = inForm(m.M, "bitmap")
			var rt Route
			e := Exec{Tx: NewBudget(spa + int64(n) - 1).Tx(), Route: &rt}
			got, err := vxmSemi(SemiPlusTimes, u, a, mul, add, m, e, KernelDense)
			e.Close()
			if err != nil {
				t.Fatalf("n=%d %s: the budgeted push failed: %v", n, mv.name, err)
			}
			switch {
			case mv.mask.Structural && (!rt.Family || rt.Reason == ReasonBudgetMask):
				t.Fatalf("n=%d %s: route %+v, want the family loop over the mask's own flags", n, mv.name, rt)
			case !mv.mask.Structural && (rt.Family || rt.Reason != ReasonBudgetMask):
				t.Fatalf("n=%d %s: route %+v, want the closure loop for a refused admit array", n, mv.name, rt)
			}
			identicalVec(t, fmt.Sprintf("n=%d %s budgeted", n, mv.name), got, want)
		}
	}
}
