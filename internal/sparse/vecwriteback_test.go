package sparse

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

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
	rng := rand.New(rand.NewSource(progSeed(t)))
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
