package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// TestBinFamilyMatchesClosure holds every entry of binLoops to the closure
// loop it replaces: each element-wise kernel, tagged and untagged, over every
// pattern pairing (full×full, full×sparse, sparse×full, one sparse pattern
// twice, sparse×sparse, empty), and the pull's accumulate into a full c at 1,
// 2 and 4 workers, must give the same bits. Values are spiked with ±0.0, ±Inf
// and a NaN payload; both sides carry the one payload, and c none beside the
// product's Inf - Inf and 0 × Inf, so no op meets two payloads, whose sum or
// product Go leaves to the compiler's operand order.
func TestBinFamilyMatchesClosure(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(progSeed(t)))
	nan := math.Float64frombits(0x7ff8000000000001)
	draw := func(r *rand.Rand) float64 {
		if r.Intn(10) == 0 {
			return nan
		}
		return spikedFloat(r)
	}
	const n = 300
	fa, fb := fullVec(rng, n, draw), fullVec(rng, n, draw)
	sa, sb := sprayVec(rng, n, 3, draw), sprayVec(rng, n, 3, draw)
	twin := &Vec[float64]{N: n, Ind: sa.Ind, Val: make([]float64, len(sa.Ind))}
	for k := range twin.Val {
		twin.Val[k] = draw(rng)
	}
	pairs := []struct {
		name string
		x, y *Vec[float64]
	}{
		{"full×full", fa, fb}, {"full×sparse", fa, sb}, {"sparse×full", sa, fb},
		{"one sparse pattern", sa, twin}, {"sparse×sparse", sa, sb}, {"empty×sparse", NewVec[float64](n), sb},
	}
	g := sprayCSR(rng, n, n, 6*n, spikedFloat)
	u, c := sprayVec(rng, n, 2, spikedFloat), fullVec(rng, n, spikedFloat)
	times := func(x, y float64) float64 { return x * y }
	plus := func(x, y float64) float64 { return x + y }
	for _, tc := range []struct {
		name string
		op   Bin
		f    func(x, y float64) float64
	}{
		{"times", BinTimes, times},
		{"plus", BinPlus, plus},
	} {
		if ewFamily[float64, float64, float64](tc.op) == nil {
			t.Fatalf("%s: binLoops holds no loop over float64", tc.name)
		}
		for _, p := range pairs {
			identicalVec(t, tc.name+" add "+p.name, EWiseAddV(tc.op, p.x, p.y, tc.f, Exec{}), EWiseAddV(BinGeneric, p.x, p.y, tc.f, Exec{}))
			identicalVec(t, tc.name+" mult "+p.name, EWiseMultV(tc.op, p.x, p.y, tc.f, Exec{}), EWiseMultV(BinGeneric, p.x, p.y, tc.f, Exec{}))
		}
		for _, threads := range []int{1, 2, 4} {
			got, err := SpMVAccumEx(SemiPlusTimes, g, u, times, plus, VMask{}, c, tc.f, tc.op, par(threads), KernelAuto)
			if err != nil {
				t.Fatal(err)
			}
			want, err := SpMVAccumEx(SemiPlusTimes, g, u, times, plus, VMask{}, c, tc.f, BinGeneric, par(threads), KernelAuto)
			if err != nil {
				t.Fatal(err)
			}
			identicalVec(t, tc.name+" accumulate into a full c", got, want)
		}
	}

	// First[float64, bool] moves x's values; y is a pattern.
	first := func(x float64, _ bool) float64 { return x }
	if ewFamily[float64, bool, float64](BinFirst) == nil {
		t.Fatal("first: binLoops holds no loop over (float64, bool)")
	}
	bools := func(v *Vec[float64]) *Vec[bool] {
		return &Vec[bool]{N: n, Ind: v.Ind, Val: make([]bool, len(v.Ind))}
	}
	for _, p := range pairs {
		y := bools(p.y)
		identicalVec(t, "first "+p.name, EWiseMultV(BinFirst, p.x, y, first, Exec{}), EWiseMultV(BinGeneric, p.x, y, first, Exec{}))
	}
}
