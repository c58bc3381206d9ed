package grb

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/grblas/grb/internal/sparse"
)

// TestKernelMaskedYield pins the rule MxM and the matrix–vector products
// share: the kernel's masked result is the object's next state iff there is
// no accumulator, there is a mask, and nothing of C is kept.
func TestKernelMaskedYield(t *testing.T) {
	for _, tc := range []struct {
		accum, masked, replace bool
		nnzC                   int
		y, want                yield
	}{
		{false, true, true, 5, yieldsZ, yieldsC},
		{false, true, false, 0, yieldsZ, yieldsC},
		{false, true, true, 0, yieldsT, yieldsC},
		{false, true, false, 5, yieldsZ, yieldsZ}, // C's unmasked entries stay
		{true, true, true, 0, yieldsZ, yieldsZ},   // the accumulator reads C
		{false, false, true, 0, yieldsZ, yieldsZ}, // nothing masked in the kernel
		{false, false, false, 5, yieldsT, yieldsT},
	} {
		if got := kernelMasked(tc.y, tc.accum, tc.masked, tc.replace, tc.nnzC); got != tc.want {
			t.Errorf("kernelMasked(%v, accum=%v, masked=%v, replace=%v, nnz=%d) = %v, want %v",
				tc.y, tc.accum, tc.masked, tc.replace, tc.nnzC, got, tc.want)
		}
	}
}

// TestMatVecMaskedWriteBack holds the masked matrix–vector products to the
// write-back they skip: pushed and pulled, under a structural mask, a valued
// mask that stores falses and complemented masks, with and without replace
// and into an empty and a non-empty w, the result must be MaskApplyV of w's
// old state and the unmasked product — the yieldsZ path's answer. The cells
// with replace or an empty w return the kernel's own masked result; a
// non-empty w without replace still writes back, or its rejected entries
// would be lost.
func TestMatVecMaskedWriteBack(t *testing.T) {
	setMode(t, Blocking)
	rng := rand.New(rand.NewSource(29))
	const n = 96
	var I, J []Index
	for k := 0; k < 4*n; k++ {
		I, J = append(I, rng.Intn(n)), append(J, rng.Intn(n))
	}
	small := func(r *rand.Rand) float64 { return float64(1 + r.Intn(7)) } // sums stay exact
	af := mustMatrix(t, n, n, I, J, pick(rng, len(I), small))
	ab := mustMatrix(t, n, n, I, J, pick(rng, len(I), func(r *rand.Rand) bool { return r.Intn(4) != 0 }))
	var ui, mi, wi []Index
	for i := 0; i < n; i++ {
		if rng.Intn(5) == 0 {
			ui = append(ui, i)
		}
		if rng.Intn(2) == 0 {
			mi = append(mi, i)
		}
		if rng.Intn(3) == 0 {
			wi = append(wi, i)
		}
	}
	mask := mustVector(t, n, mi, pick(rng, len(mi), func(r *rand.Rand) bool { return r.Intn(3) != 0 }))
	uf := mustVector(t, n, ui, pick(rng, len(ui), small))
	ub := mustVector(t, n, ui, pick(rng, len(ui), func(*rand.Rand) bool { return true }))
	wf := mustVector(t, n, wi, pick(rng, len(wi), small))
	wb := mustVector(t, n, wi, pick(rng, len(wi), func(r *rand.Rand) bool { return r.Intn(2) == 0 }))
	for _, mv := range dirMaskVariants()[1:] {
		for _, replace := range []bool{false, true} {
			for _, dir := range []Direction{DirPush, DirPull} {
				d := Descriptor{Structure: mv.structural, Complement: mv.complement, Replace: replace, Dir: dir}
				label := fmt.Sprintf("%s replace=%v dir=%v", mv.name, replace, dir)
				checkMaskedVxM(t, "plus_times "+label, d, mask, PlusTimes[float64](), uf, af, wf)
				checkMaskedVxM(t, "lor_land "+label, d, mask, LOrLAnd(), ub, ab, wb)
			}
		}
	}
}

// pick draws count values.
func pick[T any](rng *rand.Rand, count int, draw func(*rand.Rand) T) []T {
	x := make([]T, count)
	for k := range x {
		x[k] = draw(rng)
	}
	return x
}

// checkMaskedVxM runs w⟨mask⟩ = u ⊕.⊗ A under d into an empty w and into a
// copy of wOld, and compares each with MaskApplyV(w, u ⊕.⊗ A, mask, replace).
func checkMaskedVxM[T comparable](t *testing.T, label string, d Descriptor, mask *Vector[bool],
	sr Semiring[T, T, T], u *Vector[T], a *Matrix[T], wOld *Vector[T]) {
	t.Helper()
	n := ck1(wOld.Size())
	tv := ck1(NewVector[T](n))
	ck(VxM(tv, nil, nil, sr, u, a, &Descriptor{Dir: d.Dir}))
	tsnap, msnap := ck1(tv.snapshot()), ck1(mask.snapshot())
	vm := sparse.VMask{M: msnap, Structural: d.Structure, Complement: d.Complement}
	for _, w := range []*Vector[T]{ck1(NewVector[T](n)), ck1(wOld.Dup())} {
		old := ck1(w.snapshot())
		want := sparse.MaskApplyV(old, tsnap, vm, d.Replace)
		ck(VxM(w, mask, nil, sr, u, a, &d))
		gi, gx := ck2(w.ExtractTuples())
		if len(gi) != len(want.Ind) {
			t.Fatalf("%s, |w| = %d: nvals %d, want %d", label, len(old.Ind), len(gi), len(want.Ind))
		}
		for k := range gi {
			if gi[k] != want.Ind[k] || gx[k] != want.Val[k] {
				t.Fatalf("%s, |w| = %d: entry %d = (%d)=%v, want (%d)=%v",
					label, len(old.Ind), k, gi[k], gx[k], want.Ind[k], want.Val[k])
			}
		}
	}
}
