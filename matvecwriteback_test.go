package grb

import "testing"

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
