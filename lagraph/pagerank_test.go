package lagraph

import (
	"math"
	"runtime"
	"strings"
	"testing"

	grb "github.com/grblas/grb"
	"github.com/grblas/grb/gen"
)

// pagerankGraphs are the shapes PageRank's branches depend on: no dangling
// vertex (the dangling reduce is skipped), some, and a skewed multigraph.
func pagerankGraphs() []struct {
	name  string
	g     gen.Graph
	iters int // rounds to tol 1e-9, read off the ten-call formulation
} {
	var k4 gen.Graph
	k4.N = 4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				k4.Src, k4.Dst = append(k4.Src, i), append(k4.Dst, j)
			}
		}
	}
	return []struct {
		name  string
		g     gen.Graph
		iters int
	}{
		{"K4", k4, 1},
		{"ring: no dangling vertex", gen.Ring(10), 1},
		{"star: no dangling vertex either", gen.Star(9), 131},
		{"path: one dangling end", gen.Path(12), 60},
		{"erdos-renyi", gen.ErdosRenyi(50, 300, 21), 22},
		{"rmat-8", gen.Graph500RMAT(8, 8, 3), 17},
	}
}

// TestPageRankAgainstDenseReference holds the ranks to the straight-line
// power iteration within 1e-12 after the same number of rounds, and the
// early exit to the round it took before the iteration was rewritten around
// the vxm accumulator.
func TestPageRankAgainstDenseReference(t *testing.T) {
	initLib(t)
	for _, tc := range pagerankGraphs() {
		a := weighted(t, tc.g, gen.UnitWeights[float64](tc.g))
		for _, tol := range []float64{0, 1e-9} {
			res, err := PageRank(a, 0.85, tol, 200)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			wantIters := tc.iters
			if tol == 0 {
				wantIters = 200 // never below tolerance: every round runs
			}
			if res.Iterations != wantIters {
				t.Errorf("%s tol=%g: stopped after %d iterations, want %d", tc.name, tol, res.Iterations, wantIters)
			}
			want := refPageRank(tc.g.N, tc.g.Src, tc.g.Dst, 0.85, res.Iterations)
			if nv := ck1(res.Ranks.Nvals()); nv != tc.g.N {
				t.Fatalf("%s: %d ranks for %d vertices", tc.name, nv, tc.g.N)
			}
			for v := range want {
				if got, _ := ck2(res.Ranks.ExtractElement(v)); math.Abs(got-want[v]) > 1e-12 {
					t.Fatalf("%s tol=%g: rank(%d) = %v, reference %v", tc.name, tol, v, got, want[v])
				}
			}
		}
	}
}

// TestPageRankOpsPerIteration pins the iteration at the seven calls the API's
// accumulator allows — eWiseMult, eWiseMult + reduce for the dangling mass,
// assign, vxm with accumulator, eWiseAdd, reduce — so that a later edit
// cannot quietly grow it back. It counts operation events, one per call —
// the two reductions to a Go value included: seven, or five without a
// dangling vertex, whose eWiseMult + reduce are skipped; and two fewer with
// a tol that is not positive, under which the change is never measured.
func TestPageRankOpsPerIteration(t *testing.T) {
	initLib(t)
	grb.EnableMetrics(true)
	defer func() {
		grb.EnableMetrics(false)
		grb.ResetMetrics()
	}()
	ops := func(a *grb.Matrix[float64], tol float64, iters int) int64 {
		grb.ResetMetrics()
		if _, err := PageRank(a, 0.85, tol, iters); err != nil {
			t.Fatal(err)
		}
		var n int64
		for op, m := range grb.Metrics() {
			if !strings.HasPrefix(op, "sequence(") {
				n += m.Count
			}
		}
		return n
	}
	for _, tc := range []struct {
		name string
		g    gen.Graph
		tol  float64
		want int64
	}{
		{"a dangling vertex", gen.Path(12), 1e-300, 7},
		{"a dangling vertex, tol 0: delta is not measured", gen.Path(12), 0, 5},
		{"none, tol 0: the dangling mass is skipped too", gen.Ring(10), 0, 3},
	} {
		a := weighted(t, tc.g, gen.UnitWeights[float64](tc.g))
		ck(a.Wait(grb.Materialize))
		if got := (ops(a, tc.tol, 12) - ops(a, tc.tol, 2)) / 10; got != tc.want {
			t.Errorf("%s: %d operations per iteration, want %d", tc.name, got, tc.want)
		}
	}
}

// TestPageRankWithoutTolMatchesMeasuredLoop: a tol that is not positive
// skips the change's eWiseAdd and reduce, and nothing else — the ranks and
// Iterations are the bits of the loop that measured it every round,
// pageRankMeasured.
func TestPageRankWithoutTolMatchesMeasuredLoop(t *testing.T) {
	initLib(t)
	for _, tc := range pagerankGraphs() {
		a := weighted(t, tc.g, gen.UnitWeights[float64](tc.g))
		for _, tol := range []float64{0, -1, math.NaN()} {
			got := ck1(PageRank(a, 0.85, tol, 40))
			want := ck1(pageRankMeasured(a, 0.85, tol, 40))
			if got.Iterations != want.Iterations {
				t.Fatalf("%s tol=%g: %d iterations, the measured loop %d", tc.name, tol, got.Iterations, want.Iterations)
			}
			gi, gx := ck2(got.Ranks.ExtractTuples())
			wi, wx := ck2(want.Ranks.ExtractTuples())
			if len(gi) != len(wi) {
				t.Fatalf("%s tol=%g: %d ranks, the measured loop %d", tc.name, tol, len(gi), len(wi))
			}
			for k := range wi {
				if gi[k] != wi[k] || math.Float64bits(gx[k]) != math.Float64bits(wx[k]) {
					t.Fatalf("%s tol=%g: rank(%d) = %v, the measured loop (%d) = %v", tc.name, tol, gi[k], gx[k], wi[k], wx[k])
				}
			}
		}
	}
}

// pageRankMeasured is PageRank as it was before a tol that is not positive
// skipped the change: every round computes diff = |rnew − r| and reduces it.
func pageRankMeasured(a *grb.Matrix[float64], damping float64, tol float64, maxIter int) (*PageRankResult, error) {
	n, opt, err := dimAndCtx(a)
	if err != nil {
		return nil, err
	}
	newVec := func() *grb.Vector[float64] { return ck1(grb.NewVector[float64](n, opt)) }
	deg, send, r, rnew, w, dang, diff := newVec(), newVec(), newVec(), newVec(), newVec(), newVec(), newVec()
	ck(grb.MatrixReduceToVector(deg, nil, nil, grb.PlusMonoid[float64](), a, nil))
	ck(grb.VectorApply(send, nil, nil, func(d float64) float64 { return damping / d }, deg, nil))
	degMask := ck1(grb.AsVectorMaskFunc(deg, func(float64) bool { return true }))
	ck(grb.VectorAssignScalar(send, degMask, nil, 0, grb.All, grb.DescSC))
	dangling := ck1(grb.NewVector[bool](n, opt))
	ck(grb.VectorAssignScalar(dangling, degMask, nil, true, grb.All, grb.DescSC))
	ndangling := ck1(dangling.Nvals())
	ck(grb.VectorAssignScalar(r, nil, nil, 1/float64(n), grb.All, nil))
	ck(grb.VectorApply(rnew, nil, nil, grb.Identity[float64], r, nil))
	absDiff := func(x, y float64) float64 { return math.Abs(x - y) }
	for iter := 1; iter <= maxIter; iter++ {
		ck(grb.EWiseMultVector(w, nil, nil, grb.Times[float64], r, send, nil))
		dmass := 0.0
		if ndangling > 0 {
			ck(grb.EWiseMultVector(dang, nil, nil, grb.First[float64, bool], r, dangling, nil))
			dmass = ck1(grb.VectorReduce(grb.PlusMonoid[float64](), dang))
		}
		base := (1-damping)/float64(n) + damping*dmass/float64(n)
		ck(grb.VectorAssignScalar(rnew, nil, nil, base, grb.All, nil))
		ck(grb.VxM(rnew, nil, grb.Plus[float64], grb.PlusTimes[float64](), w, a, nil))
		ck(grb.EWiseAddVector(diff, nil, nil, absDiff, rnew, r, nil))
		delta := ck1(grb.VectorReduce(grb.PlusMonoid[float64](), diff))
		r, rnew = rnew, r
		if delta < tol {
			return &PageRankResult{Ranks: r, Iterations: iter}, nil
		}
	}
	return &PageRankResult{Ranks: r, Iterations: maxIter}, nil
}

// TestPageRankReusesItsVectors pins what an iteration allocates once the
// loop's objects write into the storage their outputs supersede: the
// marginal bytes of an iteration — 20 rounds less 10, over 10 — stay below
// one full vector at n = 4 096. With fresh storage per output they were
// about four.
func TestPageRankReusesItsVectors(t *testing.T) {
	initLib(t)
	g := gen.Graph500RMAT(12, 8, 5).Symmetrize()
	a := weighted(t, g, gen.UnitWeights[float64](g))
	bytes := func(iters int) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := PageRank(a, 0.85, 0, iters); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	bytes(2) // the transpose cache and the first drains' one-off costs
	perIter := float64(min(bytes(20), bytes(20))-min(bytes(10), bytes(10))) / 10
	vector := float64(g.N * 8)
	t.Logf("n = %d: %.0f bytes an iteration, %.2f full vectors", g.N, perIter, perIter/vector)
	if perIter >= vector {
		t.Errorf("an iteration allocates %.0f bytes, want below one full vector (%.0f)", perIter, vector)
	}
}
