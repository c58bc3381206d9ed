package lagraph

import (
	"runtime"
	"slices"
	"testing"

	grb "github.com/grblas/grb"
	"github.com/grblas/grb/gen"
)

// traversalCalls are the calls the traverse-large workload makes — BFSLevels,
// SSSP and a 10-iteration PageRank with tol 0 — on the symmetrized rmat-14
// graph with that workload's weights, in a one-thread context, each run once
// so that the transposes are cached on the shared snapshots. wgt is the
// weighted graph and hub its highest-degree vertex.
func traversalCalls(tb testing.TB) (calls []namedCall, wgt *grb.Matrix[float64], hub int) {
	initLib(tb)
	g := gen.Graph500RMAT(14, 8, 42).Symmetrize()
	ctx := ck1(grb.NewContext(grb.NonBlocking, nil, grb.WithThreads(1)))
	pat := ck1(grb.MatrixFromTuples(g.N, g.N, g.Src, g.Dst, gen.BoolWeights(g), grb.LOr, grb.InContext(ctx)))
	wgt = ck1(grb.MatrixFromTuples(g.N, g.N, g.Src, g.Dst, gen.UniformWeights(g, 1, 2, 7), grb.Plus[float64], grb.InContext(ctx)))
	deg := make([]int, g.N)
	for _, v := range g.Src {
		if deg[v]++; deg[v] > deg[hub] {
			hub = v
		}
	}
	calls = []namedCall{
		{"BFS", func() { ck(ck1(BFSLevels(pat, 1)).Free()) }},
		{"SSSP", func() { ck(ck1(SSSP(wgt, 1)).Free()) }},
		{"PageRank", func() { ck(ranksRead(ck1(PageRank(wgt, 0.85, 0, 10))).Free()) }},
	}
	for _, c := range calls {
		c.run()
	}
	return calls, wgt, hub
}

type namedCall struct {
	name string
	run  func()
}

// BenchmarkAlgorithmBytes reports the bytes and allocations of one call of
// each traversal the traverse-large workload runs (traversalCalls), and of
// what serve's ego handler pays for an answer: the 2-hop EgoNet of the
// highest-degree vertex, completed, and its tuples copied out. It is the
// per-algorithm byte map, reproducible with
//
//	go test ./lagraph -run '^$' -bench AlgorithmBytes -benchtime 5x
//
// and TestTraversalBytes holds the three traversals to a ceiling.
func BenchmarkAlgorithmBytes(b *testing.B) {
	calls, wgt, hub := traversalCalls(b)
	ego := namedCall{"EgoAnswer", func() {
		sub, _ := ck2(EgoNet(wgt, hub, 2))
		ck(sub.Wait(grb.Materialize))
		_, _, _, err := sub.ExtractTuples()
		ck(err)
		ck(sub.Free())
	}}
	ego.run()
	for _, alg := range append(calls, ego) {
		b.Run(alg.name, func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range b.N {
				alg.run()
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(b.N), "KB/op")
		})
	}
}

// TestTraversalBytes gates traverse-large's byte map: each traversal call
// (traversalCalls) allocates at most its ceiling, the KB it measured when the
// push handed its SPA over and the masked pull wrote a bitmap, + 2 % (BFS
// 325.4, SSSP 986.0, PageRank 944.6; 519.1, 1 290 and 944.3 before).
func TestTraversalBytes(t *testing.T) {
	calls, _, _ := traversalCalls(t)
	ceiling := map[string]uint64{"BFS": 332, "SSSP": 1006, "PageRank": 964}
	for _, c := range calls {
		if got := bestBytes(c.run); got > ceiling[c.name]<<10 {
			t.Errorf("%s over rmat-14 allocates %.1f KB, ceiling %d KB", c.name, float64(got)/1024, ceiling[c.name])
		} else {
			t.Logf("%s over rmat-14: %.1f KB", c.name, float64(got)/1024)
		}
	}
}

// TestPageRankAllocatesNoIterationVector: from the first iteration on, the
// loop writes every full vector into the storage it supersedes, so
// iterations 2 and 3 together allocate less than one n-entry float64 array.
// Were rnew a Dup of r, which pins r's storage, iteration 2 would allocate
// one afresh. The graph is rmat-14: at rmat-12 a 1 024-row accumulate
// block's 16 KB buffer alone was half a vector an iteration and filled the
// margin; the 256-row block's 4 KB leaves 0.16 of one there.
func TestPageRankAllocatesNoIterationVector(t *testing.T) {
	initLib(t)
	g := gen.Graph500RMAT(14, 8, 5).Symmetrize()
	a := weighted(t, g, gen.UnitWeights[float64](g))
	bytes := func(iters int) uint64 {
		best := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ck(ck1(PageRank(a, 0.85, 0, iters)).Ranks.Free())
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	bytes(1) // the transpose cache
	one, three := bytes(1), bytes(3)
	vector := uint64(g.N * 8)
	t.Logf("n = %d: %d bytes at maxIter 1, %d at maxIter 3 (%.2f vectors more)", g.N, one, three, float64(three-one)/float64(vector))
	if three >= one+vector {
		t.Errorf("iterations 2 and 3 allocate %d bytes, want below one n-entry float64 array (%d)", three-one, vector)
	}
}

// ranksRead completes res's ranks and returns them. With a tol that is not
// positive nothing in PageRank reads the last iteration's product, which
// stays pending on the ranks: a Free before any read would discard it
// unrun.
func ranksRead(res *PageRankResult) *grb.Vector[float64] {
	ck(res.Ranks.Wait(grb.Materialize))
	return res.Ranks
}

// bestBytes is the fewest heap bytes one of three calls of run allocates.
func bestBytes(run func()) uint64 {
	best := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestAccumulatorsAreUpdatedInPlace: on rmat-14 in a one-thread context,
// BFS's levels and visited and SSSP's d become bitmaps once they pass the
// cut between the forms and are then updated in place, so neither algorithm
// copies its accumulator per level or round any more. Measured: BFS 536 KB
// and SSSP 1 291 KB a call (BenchmarkAlgorithmBytes), where rebuilding the
// sorted accumulator cost 972 and 1 658. The bounds, 600 and 1 400 KB, leave
// 12 % and 8 % of slack — less than one n-entry bitmap (147 KB) each, and
// far below the copies.
func TestAccumulatorsAreUpdatedInPlace(t *testing.T) {
	initLib(t)
	g := gen.Graph500RMAT(14, 8, 42).Symmetrize()
	ctx := ck1(grb.NewContext(grb.NonBlocking, nil, grb.WithThreads(1)))
	pat := ck1(grb.MatrixFromTuples(g.N, g.N, g.Src, g.Dst, gen.BoolWeights(g), grb.LOr, grb.InContext(ctx)))
	wgt := ck1(grb.MatrixFromTuples(g.N, g.N, g.Src, g.Dst, gen.UniformWeights(g, 1, 2, 7), grb.Plus[float64], grb.InContext(ctx)))
	for _, tc := range []struct {
		name  string
		run   func()
		limit uint64
	}{
		{"BFS", func() { ck(ck1(BFSLevels(pat, 1)).Free()) }, 600 << 10},
		{"SSSP", func() { ck(ck1(SSSP(wgt, 1)).Free()) }, 1400 << 10},
	} {
		tc.run() // the transposes
		if got := bestBytes(tc.run); got > tc.limit {
			t.Errorf("%s over rmat-14 allocates %d KB, want <= %d KB", tc.name, got>>10, tc.limit>>10)
		} else {
			t.Logf("%s over rmat-14: %d KB", tc.name, got>>10)
		}
	}
}

// TestPageRankAllocatesNoIndexArray: PageRank's full vectors — r, rnew, w,
// send after send⟨¬deg⟩ = 0 — are values alone, with no n-int index array.
// A 10-iteration call (tol 0, its ranks read) over rmat-14 in a one-thread
// context allocates 7.3 n-entry arrays of 8 bytes (939 KB); with r's 0..n−1 pattern
// built by the scalar assign and send's by the complemented one it was 8.4,
// and 10.4 (1 331 KB) while tol 0 still stored |rnew − r|. The bound, 8,
// leaves 9 % of slack and no room for an index array.
func TestPageRankAllocatesNoIndexArray(t *testing.T) {
	initLib(t)
	g := gen.Graph500RMAT(14, 8, 42).Symmetrize()
	ctx := ck1(grb.NewContext(grb.NonBlocking, nil, grb.WithThreads(1)))
	wgt := ck1(grb.MatrixFromTuples(g.N, g.N, g.Src, g.Dst, gen.UniformWeights(g, 1, 2, 7), grb.Plus[float64], grb.InContext(ctx)))
	run := func() { ck(ranksRead(ck1(PageRank(wgt, 0.85, 0, 10))).Free()) }
	run() // the transpose
	got, array := bestBytes(run), uint64(8*g.N)
	t.Logf("PageRank over rmat-14: %d KB, %.2f n-entry arrays", got>>10, float64(got)/float64(array))
	if got > 8*array {
		t.Errorf("PageRank over rmat-14 allocates %d KB, want <= %d KB (8 n-entry arrays)", got>>10, 8*array>>10)
	}
}

// TestTraversalAllocations is the allocation ceiling of a BFS and an SSSP
// over rmat-10 in a one-thread context, the two queries serve-small sends
// most: the frontier SSSP's four calls a round cost more allocations than the
// full-round one's two (89 → 120 from vertex 1), and the presized push
// pattern and masked pull output pay for them in the mix (BFS 142 → 109). A
// BFS level's masked product is the frontier's next state, with no
// write-back pass (BFS 109 → 99).
func TestTraversalAllocations(t *testing.T) {
	initLib(t)
	g := gen.Graph500RMAT(10, 8, 42).Symmetrize()
	ctx := ck1(grb.NewContext(grb.NonBlocking, nil, grb.WithThreads(1)))
	pat := ck1(adjacency(t, g).ViewInContext(ctx))
	wgt := ck1(weighted(t, g, gen.UniformWeights(g, 1, 2, 7)).ViewInContext(ctx))
	bfs := func() { ck(ck1(BFSLevels(pat, 1)).Free()) }
	sssp := func() { ck(ck1(SSSP(wgt, 1)).Free()) }
	bfs() // cache the transposes
	sssp()
	for _, tc := range []struct {
		name    string
		run     func()
		ceiling float64
	}{{"BFS", bfs, 99}, {"SSSP", sssp, 126}} {
		least := testing.AllocsPerRun(1, tc.run)
		for i := 0; i < 4; i++ {
			least = min(least, testing.AllocsPerRun(1, tc.run))
		}
		if least > tc.ceiling {
			t.Errorf("%s over rmat-10 allocates %v times, ceiling %v", tc.name, least, tc.ceiling)
		}
	}
}

// TestLeafEgoAllocatesLittle: the 1-hop ego net of a degree-1 vertex of
// rmat-16 extracts a 2×2 submatrix, and allocates what such an answer holds.
// Its column list is inverted by sorting, not by an (n+1)-entry counting
// sort, which alone was 532 of the 535 KB it allocated.
func TestLeafEgoAllocatesLittle(t *testing.T) {
	initLib(t)
	g := gen.Graph500RMAT(16, 8, 42).Symmetrize()
	deg := make([]int, g.N)
	for _, v := range g.Src {
		deg[v]++
	}
	leaf := slices.Index(deg, 1)
	ctx := ck1(grb.NewContext(grb.NonBlocking, nil, grb.WithThreads(1)))
	a := ck1(grb.MatrixFromTuples(g.N, g.N, g.Src, g.Dst, gen.UniformWeights(g, 1, 2, 7), grb.Plus[float64], grb.InContext(ctx)))
	ego := func() {
		sub, verts := ck2(EgoNet(a, leaf, 1))
		ck(sub.Wait(grb.Materialize))
		if len(verts) != 2 {
			t.Fatalf("the ego net of a degree-1 vertex has %d vertices, want 2", len(verts))
		}
		ck(sub.Free())
	}
	ego()
	got := bestBytes(ego)
	if got > 16<<10 {
		t.Errorf("the 1-hop ego net of a degree-1 vertex allocates %d bytes, want < 16 KB", got)
	}
	t.Logf("the 1-hop ego net of vertex %d allocates %d bytes", leaf, got)
}
