package sparse

import (
	"math/rand"
	"testing"
)

// Masked SpMV/VxM kernels checked against the unmasked kernel plus a
// post-filter, across mask flag combinations.
func TestSpMVMaskedAgainstPostFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	add := func(a, b int) int { return a + b }
	mul := func(a, b int) int { return a * b }
	for trial := 0; trial < 20; trial++ {
		m := 2 + rng.Intn(12)
		n := 2 + rng.Intn(12)
		a := randCSR(rng, m, n, 0.4)
		u := randVec(rng, n, 0.5)
		mask := &Vec[bool]{N: m}
		for i := 0; i < m; i++ {
			if rng.Float64() < 0.5 {
				mask.Ind = append(mask.Ind, i)
				mask.Val = append(mask.Val, rng.Intn(2) == 0)
			}
		}
		for _, structural := range []bool{false, true} {
			for _, comp := range []bool{false, true} {
				mk := VMask{M: mask, Structural: structural, Complement: comp}
				got := closureSpMV(a, u, mul, add, mk, 2, KernelAuto)
				full := closureSpMV(a, u, mul, add, VMask{}, 1, KernelAuto)
				want := MaskApplyV(NewVec[int](m), full, mk, true)
				if !VecEqualFunc(got, want, func(a, b int) bool { return a == b }) {
					t.Fatalf("masked SpMV mismatch (s=%v c=%v)", structural, comp)
				}
				got2 := closureVxM(u, Transpose(a), mul, add, mk, 2)
				want2 := MaskApplyV(NewVec[int](m), closureVxM(u, Transpose(a), mul, add, VMask{}, 1), mk, true)
				if !VecEqualFunc(got2, want2, func(a, b int) bool { return a == b }) {
					t.Fatalf("masked VxM mismatch (s=%v c=%v)", structural, comp)
				}
			}
		}
	}
}

func TestExtractVKernel(t *testing.T) {
	u, _ := BuildVec(6, []int{0, 2, 5}, []int{10, 30, 60}, nil)
	// nil = all
	all, err := ExtractV(u, nil)
	if err != nil || !VecEqualFunc(u, all, func(a, b int) bool { return a == b }) {
		t.Fatalf("ExtractV(all): %v", err)
	}
	// reorder + repeat
	sub, err := ExtractV(u, []int{5, 5, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N != 4 || sub.NNZ() != 3 {
		t.Fatalf("sub: N=%d nnz=%d", sub.N, sub.NNZ())
	}
	if v, _ := sub.Get(0); v != 60 {
		t.Fatal("sub(0)")
	}
	if v, _ := sub.Get(1); v != 60 {
		t.Fatal("sub(1)")
	}
	if _, ok := sub.Get(2); ok {
		t.Fatal("sub(2) should be empty (u(1) missing)")
	}
	if v, _ := sub.Get(3); v != 30 {
		t.Fatal("sub(3)")
	}
	if _, err := ExtractV(u, []int{9}); err != ErrIndexOutOfBounds {
		t.Fatalf("bounds: %v", err)
	}
}

func TestAssignScalarVKernel(t *testing.T) {
	c, _ := BuildVec(5, []int{0, 2, 4}, []int{1, 3, 5}, nil)
	// no accum: all region positions set
	z, err := AssignScalarV(c, 9, []int{1, 2}, nil, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]int{0: 1, 1: 9, 2: 9, 4: 5}
	if z.NNZ() != len(want) {
		t.Fatalf("nnz=%d", z.NNZ())
	}
	for i, wv := range want {
		if v, ok := z.Get(i); !ok || v != wv {
			t.Fatalf("z(%d)=%d,%v want %d", i, v, ok, wv)
		}
	}
	// accum combines where present
	z2, err := AssignScalarV(c, 9, []int{2, 3}, func(a, b int) int { return a + b }, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := z2.Get(2); v != 12 {
		t.Fatalf("accum z(2)=%d", v)
	}
	if v, _ := z2.Get(3); v != 9 {
		t.Fatalf("accum z(3)=%d", v)
	}
	if _, err := AssignScalarV(c, 9, []int{7}, nil, Exec{}); err != ErrIndexOutOfBounds {
		t.Fatalf("bounds: %v", err)
	}
}

func TestSelectVAndApplyVKernels(t *testing.T) {
	u, _ := BuildVec(8, []int{1, 3, 5, 7}, []int{-1, 4, -9, 16}, nil)
	pos := SelectV(u, func(v int, i, j int, s int) bool { return v > s }, 0)
	if pos.NNZ() != 2 {
		t.Fatalf("pos nnz=%d", pos.NNZ())
	}
	neg := SelectV(u, func(v int, i, j int, s int) bool { return v <= s }, 0)
	if pos.NNZ()+neg.NNZ() != u.NNZ() {
		t.Fatal("select does not partition vector")
	}
	idx := ApplyIndexV(u, func(v int, i, j int, s int) int { return i*10 + j }, 0)
	for k, i := range idx.Ind {
		if idx.Val[k] != i*10 {
			t.Fatalf("index apply saw wrong coords: %d -> %d", i, idx.Val[k])
		}
	}
	dbl := ApplyV(u, func(v int) int { return v * 2 })
	for k := range dbl.Val {
		if dbl.Val[k] != 2*u.Val[k] {
			t.Fatal("apply value wrong")
		}
	}
}

func TestAccumMergeV(t *testing.T) {
	c, _ := BuildVec(4, []int{0, 2}, []int{1, 3}, nil)
	tv, _ := BuildVec(4, []int{1, 2}, []int{10, 20}, nil)
	// nil accum: result is t
	z := AccumMergeV[int](c, tv, nil)
	if !VecEqualFunc(z, tv, func(a, b int) bool { return a == b }) {
		t.Fatal("nil accum should return t")
	}
	z2 := AccumMergeV(c, tv, func(a, b int) int { return a + b })
	if v, _ := z2.Get(0); v != 1 {
		t.Fatal("c-only entry lost")
	}
	if v, _ := z2.Get(1); v != 10 {
		t.Fatal("t-only entry lost")
	}
	if v, _ := z2.Get(2); v != 23 {
		t.Fatal("merge wrong")
	}
}
