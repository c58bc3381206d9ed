package grb

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/grblas/grb/internal/sparse"
)

// TestBinaryOpTagsByCodeIdentity pins what binOf recognises: the predefined
// instantiations binCodes lists, by the code their function values point at,
// without allocating — and nothing else: a closure with the same arithmetic,
// Times over a named type and a wrapper around Times[float64] stay untagged.
func TestBinaryOpTagsByCodeIdentity(t *testing.T) {
	setMode(t, NonBlocking)
	type Score float64
	type f64op = BinaryOp[float64, float64, float64]
	userTimes := f64op(func(x, y float64) float64 { return x * y })
	wrapTimes := f64op(func(x, y float64) float64 { return Times(x, y) })
	userFirst := BinaryOp[float64, bool, float64](func(x float64, _ bool) float64 { return x })
	for _, tc := range []struct {
		name      string
		got, want sparse.Bin
	}{
		{"Times[float64]", binOf(Times[float64]), sparse.BinTimes},
		{"First[float64, bool]", binOf(First[float64, bool]), sparse.BinFirst},
		{"Plus[float64]", binOf(Plus[float64]), sparse.BinPlus},
		{"a BinaryOp variable holding Times[float64]", binOf(f64op(Times[float64])), sparse.BinTimes},

		{"a closure with Times' arithmetic", binOf(userTimes), sparse.BinGeneric},
		{"a wrapper around Times[float64]", binOf(wrapTimes), sparse.BinGeneric},
		{"Times[Score]", binOf(BinaryOp[Score, Score, Score](Times[Score])), sparse.BinGeneric},
		{"Times[int64]", binOf(BinaryOp[int64, int64, int64](Times[int64])), sparse.BinGeneric},
		{"Times[float32]", binOf(BinaryOp[float32, float32, float32](Times[float32])), sparse.BinGeneric},
		{"First[float64, float64]", binOf(f64op(First[float64, float64])), sparse.BinGeneric},
		{"Min[float64], whose one traffic is a sparse union", binOf(f64op(Min[float64])), sparse.BinGeneric},
		{"Max[float64]", binOf(f64op(Max[float64])), sparse.BinGeneric},
		{"nil", binOf(f64op(nil)), sparse.BinGeneric},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: tag %d, want %d", tc.name, tc.got, tc.want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { binOf(userTimes); binOf(f64op(Min[float64])) }); allocs != 0 {
		t.Errorf("binOf allocates %v times a call pair", allocs)
	}

	// Operands spiked with ±0.0, ±Inf and one NaN payload (no op meets two
	// payloads: see TestPlusMonoidMatchesUntaggedTwin).
	const n = 256
	rng := rand.New(rand.NewSource(30))
	payload := math.Float64frombits(0x7ff8000000000001)
	spikes := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), payload}
	draw := func(spiked bool) float64 {
		if spiked && rng.Intn(6) == 0 {
			return spikes[rng.Intn(len(spikes))]
		}
		return rng.NormFloat64()
	}
	vector := func(oneIn int, spiked bool) *Vector[float64] {
		v := ck1(NewVector[float64](n))
		for i := 0; i < n; i++ {
			if rng.Intn(oneIn) == 0 {
				ck(v.SetElement(draw(spiked), i))
			}
		}
		return v
	}
	full, sparse1 := vector(1, true), vector(3, true)
	dangling := ck1(NewVector[bool](n))
	for i := 0; i < n; i += 3 {
		ck(dangling.SetElement(true, i))
	}
	// Times and Plus over float64 meet their arithmetic in every element-wise
	// kernel and accumulating pull of the program generator (progen_test.go);
	// First over (float64, bool), a mixed instantiation, meets it here.
	for _, p := range []struct {
		name string
		u    *Vector[float64]
	}{{"full", full}, {"sparse", sparse1}} {
		first := func(op BinaryOp[float64, bool, float64]) *Vector[float64] {
			w := ck1(NewVector[float64](n))
			ck(EWiseMultVector(w, nil, nil, op, p.u, dangling, nil))
			return w
		}
		sameBitVectors(t, "First vs closure "+p.name, 1, first(First[float64, bool]), first(userFirst))
	}
}

// TestCancelProbeAllocatesNothing pins the cancellation probe at zero
// allocations: an operation in a WithCancel + WithDeadline context allocates
// what it does in a plain one.
func TestCancelProbeAllocatesNothing(t *testing.T) {
	setMode(t, NonBlocking)
	plain := ck1(NewContext(NonBlocking, nil))
	cancelable := ck1(NewContext(NonBlocking, nil, WithCancel(), WithDeadline(time.Now().Add(time.Hour))))
	if got, want := vxmAddAllocs(cancelable), vxmAddAllocs(plain); got != want {
		t.Errorf("a cancelable context allocates %v times a VxM + EWiseAddVector, a plain one %v", got, want)
	}
}

// TestBudgetTxAllocatesNothing pins the budget transaction at zero
// allocations: it lives on the output's sequence, whose steps run one at a
// time, so a budgeted step opens it in place.
func TestBudgetTxAllocatesNothing(t *testing.T) {
	setMode(t, NonBlocking)
	plain := ck1(NewContext(NonBlocking, nil))
	budgeted := ck1(NewContext(NonBlocking, nil, WithMemoryLimit(1<<30)))
	if got, want := vxmAddAllocs(budgeted), vxmAddAllocs(plain); got != want {
		t.Errorf("a budgeted context allocates %v times a VxM + EWiseAddVector, a plain one %v", got, want)
	}
}

// vxmAddAllocs is what a VxM, an EWiseAddVector and a Wait allocate in ctx
// over n = 64.
func vxmAddAllocs(ctx *Context) float64 {
	const n = 64
	in := InContext(ctx)
	idx, vals := make([]Index, n), make([]float64, n)
	for i := range idx {
		idx[i], vals[i] = i, float64(i+1)
	}
	u, w := ck1(NewVector[float64](n, in)), ck1(NewVector[float64](n, in))
	ck(u.Build(idx, vals, nil))
	a := ck1(NewMatrix[float64](n, n, in))
	ck(a.Build(idx, idx, vals, nil))
	step := func() {
		ck(VxM(w, nil, nil, PlusTimes[float64](), u, a, nil))
		ck(EWiseAddVector(w, nil, nil, Plus[float64], w, u, nil))
		ck(w.Wait(Materialize))
	}
	step()
	return testing.AllocsPerRun(100, step)
}
