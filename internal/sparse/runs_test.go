package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// oneRow is v as a 1×n matrix over the same storage.
func oneRow[T any](v *Vec[T]) *CSR[T] {
	return &CSR[T]{Rows: 1, Cols: v.N, Ptr: []int{0, len(v.Ind)}, Ind: v.Ind, Val: v.Val}
}

// row0 is the first row of m as a vector over the same storage.
func row0[T any](m *CSR[T]) *Vec[T] {
	ind, val := m.Row(0)
	return &Vec[T]{N: m.Cols, Ind: ind, Val: val}
}

// TestVectorIsOneRowMatrix holds every vector kernel to row 0 of its matrix
// twin on the 1×n matrix: the sharing fast paths of the vector side (same
// backing array, equal pattern, one side full, one side empty — the classes
// writeBackPairs enumerates) and the run kernel behind them must agree with
// the run kernel under rowwise.
func TestVectorIsOneRowMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(seedOr(t, 20)))
	ops := []struct {
		name string
		f    func(int, int) int
	}{{"nil", nil}, {"minus", func(x, y int) int { return x - 2*y }}} // not commutative: operand order shows
	for _, n := range []int{1, 2, 9, 64} {
		for _, p := range writeBackPairs(rng, n) {
			for _, threads := range []int{1, 2, 4} {
				tag := fmt.Sprintf("n=%d/%s/threads=%d", n, p.name, threads)
				a, b := p.a, p.b
				A, B := oneRow(a), oneRow(b)
				minus := ops[1].f
				identicalVec(t, "EWiseAdd/"+tag, EWiseAddV(BinGeneric, a, b, minus, Exec{}), row0(EWiseAddM(A, B, minus, par(threads))))
				identicalVec(t, "EWiseMult/"+tag, EWiseMultV(BinGeneric, a, b, minus, Exec{}), row0(EWiseMultM(A, B, minus, par(threads))))
				keep := func(v, i, j, s int) bool { return (v+i+j+s)%3 != 0 } // a vector index arrives as i, a column as j
				identicalVec(t, "Select/"+tag, SelectV(a, keep, 1), row0(SelectM(A, keep, 1, par(threads))))
				for _, size := range []int{0, n / 2, n, n + 3} {
					identicalVec(t, fmt.Sprintf("Resize(%d)/%s", size, tag), a.Resize(size), row0(A.Resize(1, size)))
				}

				// Pending updates: sets, deletes and repeated coordinates.
				vt := make([]VTuple[int], rng.Intn(2*n+1))
				mt := make([]Tuple[int], len(vt))
				for k := range vt {
					vt[k] = VTuple[int]{Idx: rng.Intn(n), Val: rng.Intn(100), Del: rng.Intn(3) == 0}
					mt[k] = Tuple[int]{Col: vt[k].Idx, Val: vt[k].Val, Del: vt[k].Del}
				}
				gotV, errV := MergeVTuples(a, vt)
				gotM, errM := MergeTuples(A, mt)
				if errV != nil || errM != nil {
					t.Fatalf("MergeTuples/%s: %v, %v", tag, errV, errM)
				}
				identicalVec(t, "MergeTuples/"+tag, gotV, row0(gotM))

				// An index list that is a shuffled subset with one repeat: the
				// shared rule for a repeated target is part of the contract.
				idx := rng.Perm(n)[:1+rng.Intn(n)]
				idx = append(idx, idx[0])
				u := randIntVec(rng, len(idx), rng.Intn(len(idx)+1))
				for _, op := range ops {
					for _, region := range [][]int{nil, idx} {
						src := u
						if region == nil {
							src = b
						}
						what := fmt.Sprintf("/%s/accum=%s/all=%v", tag, op.name, region == nil)
						gotV, errV := AssignV(a, src, region, op.f, Exec{})
						gotM, errM := AssignM(A, oneRow(src), nil, region, op.f)
						if errV != nil || errM != nil {
							t.Fatalf("Assign%s: %v, %v", what, errV, errM)
						}
						identicalVec(t, "Assign"+what, gotV, row0(gotM))
						gotV, errV = AssignScalarV(a, 7, region, op.f, Exec{})
						gotM, errM = AssignScalarM(A, 7, []int{0}, region, op.f)
						if errV != nil || errM != nil {
							t.Fatalf("AssignScalar%s: %v, %v", what, errV, errM)
						}
						identicalVec(t, "AssignScalar"+what, gotV, row0(gotM))
					}
					identicalVec(t, "AccumMerge/"+tag+"/"+op.name,
						AccumMergeV(a, b, op.f), row0(AccumMergeM(A, B, op.f, par(threads))))
				}

				for _, mask := range writeBackMasks(rng, n) {
					mm := Mask{Structural: mask.Structural, Complement: mask.Complement}
					if mask.M != nil {
						mm.M = oneRow(mask.M)
					}
					for _, replace := range []bool{false, true} {
						identicalVec(t, fmt.Sprintf("MaskApply/%s/%s/replace=%v", tag, describeMask(mask), replace),
							MaskApplyV(a, b, mask, replace), row0(MaskApplyM(A, B, mm, replace, par(threads))))
					}
				}
			}
		}
	}
}

// TestAssignVAllIndices: GrB_ALL is the index list 0..N-1 without the list —
// the same candidate, and no allocation that grows with N.
func TestAssignVAllIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(seedOr(t, 21)))
	minus := func(x, y int) int { return x - 2*y }
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		c, u := randIntVec(rng, n, rng.Intn(n+1)), randIntVec(rng, n, rng.Intn(n+1))
		for _, accum := range []func(int, int) int{nil, minus} {
			got, err := AssignV(c, u, nil, accum, Exec{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := AssignV(c, u, fullPattern(n), accum, Exec{})
			if err != nil {
				t.Fatal(err)
			}
			identicalVec(t, fmt.Sprintf("trial %d accum=%v", trial, accum != nil), got, want)
		}
	}
	var sink *Vec[int]
	bytesAt := func(n int) uint64 {
		c, u := randIntVec(rng, n, 50), randIntVec(rng, n, 50)
		return allocatedBytes(func() { sink, _ = AssignV(c, u, nil, minus, Exec{}) })
	}
	if small, large := bytesAt(1<<10), bytesAt(1<<20); large > small+256 {
		t.Errorf("AssignV over all indices allocates %d bytes at N=2^10 and %d at N=2^20; want no growth with N", small, large)
	}
	_ = sink
}

// TestExtractMAllocations: an extract allocates its result, its range
// buffers and one inverse of the column list — a count that does not grow
// with either list (it was a slice per listed column and a sort buffer per
// row).
func TestExtractMAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(seedOr(t, 22)))
	a := randCSR(rng, 1000, 1000, 0.02)
	for _, shuffled := range []bool{false, true} {
		rows, cols := rng.Perm(a.Rows)[:600], rng.Perm(a.Cols)[:600]
		if !shuffled { // the EgoNet shape: one ascending list, both ways
			sort.Ints(cols)
			rows = cols
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := ExtractM(a, rows, cols, Exec{}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 16 {
			t.Errorf("ExtractM of 600 rows × 600 columns (shuffled=%v): %.0f allocations, want <= 16", shuffled, allocs)
		}
	}
}

// TestExtractMInvertsShortAndLongLists holds ExtractM, and the sorted
// inverse row by row, to the counting-sort inverse, bit for bit, on lists
// short enough to sort (empty, one index, a few unsorted with repeats) and
// as long as Cols (a permutation, and a draw with repeats), over spiked
// float values; ExtractM must take each of invertList's paths somewhere.
func TestExtractMInvertsShortAndLongLists(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	took := map[bool]int{}
	for _, cols := range []int{1, 7, 64, 300, 5000} {
		a := sprayCSR(rng, 40, cols, min(8*cols, 400), spikedFloat)
		rows := rng.Perm(a.Rows)[:25]
		draw := make([]int, cols)
		for j := range draw {
			draw[j] = rng.Intn(cols)
		}
		lists := [][]int{{}, {rng.Intn(cols)}, rng.Perm(cols), draw}
		if cols > 4 {
			lists = append(lists, []int{cols - 1, 2, 0, 2, cols - 1})
		}
		for _, list := range lists {
			got, err := ExtractM(a, rows, list, Exec{})
			if err != nil {
				t.Fatal(err)
			}
			byInverse := func(inv inverse) *CSR[float64] {
				return rowwise(len(rows), len(list), 1, func(lo, hi int) int { return (hi - lo) * len(list) },
					func(i int, ind []int, val []float64) ([]int, []float64) {
						return gatherRun(ind, val, a.run(rows[i]), inv)
					})
			}
			want := byInverse(countInverse(list, cols))
			label := fmt.Sprintf("cols=%d len=%d", cols, len(list))
			identicalCSR(t, label+" ExtractM", got, want)
			identicalCSR(t, label+" sorted inverse", byInverse(sortInverse(list)), want)
			took[invertList(list, cols, listedWork(a.Ptr, rows, 0, math.MaxInt)).key != nil]++
		}
	}
	if took[true] == 0 || took[false] == 0 {
		t.Fatalf("ExtractM sorted %d lists and counted %d; the test must reach both", took[true], took[false])
	}
}
