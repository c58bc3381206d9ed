package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// cutOps are Table IV's positional select operators as SelectM calls them,
// written as the grb layer defines them (col − row, never row + s).
var cutOps = map[Cut]func(i, j, s int) bool{
	CutTriL:    func(i, j, s int) bool { return j-i <= s },
	CutTriU:    func(i, j, s int) bool { return j-i >= s },
	CutDiag:    func(i, j, s int) bool { return j-i == s },
	CutOffdiag: func(i, j, s int) bool { return j-i != s },
	CutRowLE:   func(i, _, s int) bool { return i <= s },
	CutRowGT:   func(i, _, s int) bool { return i > s },
	CutColLE:   func(_, j, s int) bool { return j <= s },
	CutColGT:   func(_, j, s int) bool { return j > s },
}

// TestSelectCutMatchesClosure holds SelectCutM to SelectM with the same
// operator as a closure, bit for bit, for every cut at bool and float64:
// square, rectangular and hypersparse matrices with empty rows, every s
// from far outside the dimensions to ±MaxInt, at one and four workers.
func TestSelectCutMatchesClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(progSeed(t)))
	spiked := spikedFloat
	coin := func(r *rand.Rand) bool { return r.Intn(2) == 0 }
	for _, shape := range []struct{ rows, cols, nnz int }{
		{0, 0, 0}, {1, 1, 1}, {7, 7, 30}, {9, 31, 120}, {40, 6, 90}, {33, 33, 1000}, {5000, 5000, 40},
	} {
		f := sprayCSR(rng, max(shape.rows, 1), max(shape.cols, 1), shape.nnz, spiked)
		b := sprayCSR(rng, max(shape.rows, 1), max(shape.cols, 1), shape.nnz, coin)
		if shape.rows == 0 {
			f, b = NewCSR[float64](0, 0), NewCSR[bool](0, 0)
		}
		n := max(shape.rows, shape.cols)
		ss := []int{math.MinInt, math.MinInt + 1, -2 * n, -n, -1, 0, 1, n, 2 * n, math.MaxInt - 1, math.MaxInt}
		for range 6 {
			ss = append(ss, rng.Intn(2*n+3)-n-1)
		}
		for c, op := range cutOps {
			keepF := func(_ float64, i, j, s int) bool { return op(i, j, s) }
			keepB := func(_ bool, i, j, s int) bool { return op(i, j, s) }
			for _, s := range ss {
				for _, threads := range []int{1, 4} {
					tag := fmt.Sprintf("cut %d %dx%d nnz=%d s=%d threads=%d", c, f.Rows, f.Cols, f.NNZ(), s, threads)
					gotF := SelectCutM(f, c, s, par(threads))
					identicalCSR(t, "float64 "+tag, gotF, SelectM(f, keepF, s, par(threads)))
					identicalCSR(t, "bool "+tag, SelectCutM(b, c, s, par(threads)), SelectM(b, keepB, s, par(threads)))
					if cap(gotF.Ind) != gotF.NNZ() || cap(gotF.Val) != gotF.NNZ() {
						t.Fatalf("%s: capacities %d, %d for %d entries", tag, cap(gotF.Ind), cap(gotF.Val), gotF.NNZ())
					}
				}
			}
		}
	}
}
