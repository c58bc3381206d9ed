package grb

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/grblas/grb/internal/sparse"
)

// TestPlusMonoidMatchesUntaggedTwin holds the reductions' family loops to
// the closure loops they replace: PlusMonoid and its untagged twin
// NewMonoid(Plus, 0) must give the same bits for a row reduction
// (ReduceRows), a reduction to one value (ReduceAll) and a vector reduction
// (ReduceVec), at 1, 2 and 4 workers, over signed zeros, NaN payloads, ±Inf,
// empty rows and an empty operand.
//
// Where two NaNs of different payloads meet in one add, Go does not define
// which payload the sum carries — the compiler may commute the operands, and
// does under -race — so no fold here meets two: a payload NaN shares its row
// with finite values only, and the whole-operand reductions hold one payload
// and +Inf but no -Inf, whose sum with +Inf is a NaN of its own.
func TestPlusMonoidMatchesUntaggedTwin(t *testing.T) {
	setMode(t, NonBlocking)
	tagged, twin := PlusMonoid[float64](), ck1(NewMonoid(Plus[float64], 0))
	literal := Monoid[float64]{Op: Plus[float64]}
	if tagged.mon != sparse.MonPlus || twin.mon != sparse.MonGeneric || literal.mon != sparse.MonGeneric {
		t.Fatalf("tags: PlusMonoid %v, NewMonoid %v, literal %v", tagged.mon, twin.mon, literal.mon)
	}
	rng := rand.New(rand.NewSource(27))
	negZero, inf := math.Copysign(0, -1), math.Inf(1)
	payloads := []float64{math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff80000000abc00)}
	spiked := func(spikes ...float64) func() float64 {
		return func() float64 {
			if rng.Intn(3) == 0 {
				return spikes[rng.Intn(len(spikes))]
			}
			return rng.NormFloat64()
		}
	}
	const n = 64
	// rows: every third row empty, row 1 all -0.0, rows 4, 13, 22, ... one
	// payload NaN each (two payloads in turn) among finite values, the rest
	// spiked with ±0.0 and ±Inf.
	var rI, rJ []Index
	var rX []float64
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			continue
		}
		draw := spiked(0, negZero, inf, -inf)
		switch {
		case i == 1:
			draw = func() float64 { return negZero }
		case i%9 == 4:
			draw = spiked(0, negZero)
		}
		cols := rng.Perm(n)[:2+rng.Intn(12)]
		for k, j := range cols {
			x := draw()
			if i%9 == 4 && k == len(cols)/2 {
				x = payloads[i/9%2]
			}
			rI, rJ, rX = append(rI, i), append(rJ, j), append(rX, x)
		}
	}
	// whole: the operands of the reductions to one value — finite values
	// spiked with ±0.0, whose sum's rounding follows the fold order; the same
	// spiked with +Inf and one payload NaN midway; and all -0.0. Position p is
	// matrix entry (p/n, p%n) and entry p of an n²-vector.
	var wP []Index
	var fX, wX, zX []float64
	var wXI []int64
	finite, draw := spiked(0, negZero), spiked(0, negZero, inf)
	for k, p := range rng.Perm(n * n)[:8*n] {
		x := draw()
		if k == 4*n {
			x = payloads[0]
		}
		wP, fX, wX, zX = append(wP, p), append(fX, finite()), append(wX, x), append(zX, negZero)
		wXI = append(wXI, rng.Int63()-rng.Int63()) // sums that wrap
	}
	wI, wJ := make([]Index, len(wP)), make([]Index, len(wP))
	for k, p := range wP {
		wI[k], wJ[k] = p/n, p%n
	}

	for _, threads := range []int{1, 2, 4} {
		ctx := ck1(NewContext(NonBlocking, nil, WithThreads(threads), withChunk(1)))
		in := InContext(ctx)
		matrix := func(I, J []Index, X []float64) *Matrix[float64] {
			m := ck1(NewMatrix[float64](n, n, in))
			ck(m.Build(I, J, X, nil))
			return m
		}
		rowSums := func(m Monoid[float64], a *Matrix[float64]) *Vector[float64] {
			w := ck1(NewVector[float64](n, in))
			ck(MatrixReduceToVector(w, nil, nil, m, a, nil))
			return w
		}
		rows, zeros, empty := matrix(rI, rJ, rX), matrix(wI, wJ, zX), matrix(nil, nil, nil)
		for _, tc := range []struct {
			name string
			a    *Matrix[float64]
		}{{"spiked rows", rows}, {"-0.0", zeros}, {"empty", empty}} {
			sameBitVectors(t, tc.name+" row sums", threads, rowSums(tagged, tc.a), rowSums(twin, tc.a))
		}
		for _, tc := range []struct {
			name    string
			I, J, P []Index
			X       []float64
		}{{"finite", wI, wJ, wP, fX}, {"spiked", wI, wJ, wP, wX}, {"-0.0", wI, wJ, wP, zX}, {"empty", nil, nil, nil, nil}} {
			a := matrix(tc.I, tc.J, tc.X)
			sameBits(t, tc.name+" matrix sum", threads, ck1(MatrixReduce(tagged, a)), ck1(MatrixReduce(twin, a)))
			u := ck1(NewVector[float64](n*n, in))
			ck(u.Build(tc.P, tc.X, nil))
			sameBits(t, tc.name+" vector sum", threads, ck1(VectorReduce(tagged, u)), ck1(VectorReduce(twin, u)))
		}
		wholeInt := ck1(NewMatrix[int64](n, n, in))
		ck(wholeInt.Build(wI, wJ, wXI, nil))
		if got, want := ck1(MatrixReduce(PlusMonoid[int64](), wholeInt)),
			ck1(MatrixReduce(ck1(NewMonoid(Plus[int64], 0)), wholeInt)); got != want {
			t.Errorf("int64 matrix sum, %d workers: %d, want %d", threads, got, want)
		}
		ck(ctx.Free())
	}
}

// sameBits fails the test unless got and want are one float64 bit pattern.
func sameBits(t *testing.T, label string, threads int, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s, %d workers: %v (%#x), want %v (%#x)", label, threads,
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// sameBitVectors fails the test unless got and want store the same positions
// with the same float64 bit patterns.
func sameBitVectors(t *testing.T, label string, threads int, got, want *Vector[float64]) {
	t.Helper()
	gi, gx := ck2(got.ExtractTuples())
	wi, wx := ck2(want.ExtractTuples())
	if len(gi) != len(wi) {
		t.Fatalf("%s, %d workers: nvals %d, want %d", label, threads, len(gi), len(wi))
	}
	for k := range wi {
		if gi[k] != wi[k] {
			t.Fatalf("%s, %d workers: entry %d at %d, want %d", label, threads, k, gi[k], wi[k])
		}
		sameBits(t, label, threads, gx[k], wx[k])
	}
}

// TestFloatReductionsAreThreadInvariant: a float sum folds in one order at
// every worker count — MatrixReduce in fixed blocks of entries, each column
// of MatrixReduceToVector(DescT0) in row order — so 400 000 standard normals
// reduce to the same bits at 1, 2 and 4 threads under the chunk hook at 1,
// and as a default-chunk context does. The values are finite: an Inf would
// swamp every order.
func TestFloatReductionsAreThreadInvariant(t *testing.T) {
	setMode(t, NonBlocking)
	rng := rand.New(rand.NewSource(21))
	const rows, cols, perRow = 2000, 1000, 200
	var I, J []Index
	var X []float64
	for i := 0; i < rows; i++ {
		for _, j := range rng.Perm(cols)[:perRow] {
			I, J, X = append(I, i), append(J, j), append(X, rng.NormFloat64())
		}
	}
	reduce := func(opts ...ContextOption) (float64, []Index, []float64) {
		ctx := ck1(NewContext(NonBlocking, nil, opts...))
		defer func() { ck(ctx.Free()) }()
		a := ck1(NewMatrix[float64](rows, cols, InContext(ctx)))
		ck(a.Build(I, J, X, nil))
		w := ck1(NewVector[float64](cols, InContext(ctx)))
		ck(MatrixReduceToVector(w, nil, nil, PlusMonoid[float64](), a, DescT0))
		wi, wx := ck2(w.ExtractTuples())
		return ck1(MatrixReduce(PlusMonoid[float64](), a)), wi, wx
	}
	sum, wantI, wantX := reduce(WithThreads(1))
	for _, threads := range []int{1, 2, 4} {
		got, gotI, gotX := reduce(WithThreads(threads), withChunk(1))
		sameBits(t, "400 000-entry matrix sum", threads, got, sum)
		if !slices.Equal(gotI, wantI) {
			t.Fatalf("column sums, %d workers: pattern differs", threads)
		}
		for k := range wantX {
			sameBits(t, fmt.Sprintf("column %d's sum", wantI[k]), threads, gotX[k], wantX[k])
		}
	}
}
