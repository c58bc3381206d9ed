package lagraph

import (
	"math"
	"math/rand"
	"testing"

	grb "github.com/grblas/grb"
	"github.com/grblas/grb/gen"
)

// ssspFullRounds is SSSP as it stood before the frontier: every round
// multiplies all of d and the loop stops at the first round that changes
// nothing, pattern and values compared with != — the oracle the frontier
// form must match bit for bit, and in whether it converges.
func ssspFullRounds(a *grb.Matrix[float64], src int) (*grb.Vector[float64], error) {
	n, opt, err := dimAndCtx(a)
	if err != nil {
		return nil, err
	}
	d, err := grb.NewVector[float64](n, opt)
	if err != nil {
		return nil, err
	}
	if err := d.SetElement(0, src); err != nil {
		return nil, err
	}
	for iter := 0; iter <= n; iter++ {
		prev, err := d.Dup()
		if err != nil {
			return nil, err
		}
		if err := grb.VxM(d, nil, grb.Min[float64], grb.MinPlus[float64](), d, a, nil); err != nil {
			return nil, err
		}
		pi, px := ck2(prev.ExtractTuples())
		di, dx := ck2(d.ExtractTuples())
		same := len(pi) == len(di)
		for k := 0; same && k < len(pi); k++ {
			same = pi[k] == di[k] && px[k] == dx[k]
		}
		if same {
			return d, nil
		}
	}
	return nil, &grb.Error{Info: grb.InvalidValue, Msg: "no convergence"}
}

// sameSSSP runs the frontier SSSP and the full-round oracle from src and
// fails unless both converge to the same pattern and the same bits, or
// both report InvalidValue.
func sameSSSP(t *testing.T, name string, a *grb.Matrix[float64], src int) *grb.Vector[float64] {
	t.Helper()
	got, gerr := SSSP(a, src)
	want, werr := ssspFullRounds(a, src)
	if werr != nil || gerr != nil {
		if grb.Code(werr) != grb.InvalidValue || grb.Code(gerr) != grb.InvalidValue {
			t.Fatalf("%s src %d: frontier error %v, full rounds %v", name, src, gerr, werr)
		}
		return nil
	}
	gi, gx := ck2(got.ExtractTuples())
	wi, wx := ck2(want.ExtractTuples())
	if len(gi) != len(wi) {
		t.Fatalf("%s src %d: frontier reached %d vertices, full rounds %d", name, src, len(gi), len(wi))
	}
	for k := range gi {
		if gi[k] != wi[k] || math.Float64bits(gx[k]) != math.Float64bits(wx[k]) {
			t.Fatalf("%s src %d: d(%d) = %v (%#x), full rounds d(%d) = %v (%#x)", name, src,
				gi[k], gx[k], math.Float64bits(gx[k]), wi[k], wx[k], math.Float64bits(wx[k]))
		}
	}
	return got
}

// TestSSSPFrontierMatchesFullRounds holds the frontier iteration to the
// full-round Bellman-Ford it replaced, through math.Float64bits, at one, two
// and four threads (chunk 1, so the products do fork), on generated graphs
// with zero weights, with negative weights but no negative cycle (integer
// weights w(i,j) + p(i) - p(j), exact in float64, cycle sums those of w ≥ 0),
// and with +Inf weights — where a vertex reached only through a +Inf edge
// keeps a stored +Inf.
func TestSSSPFrontierMatchesFullRounds(t *testing.T) {
	initLib(t)
	rng := rand.New(rand.NewSource(26))
	type battery struct {
		name string
		g    gen.Graph
		w    []float64
	}
	var graphs []battery
	for trial := 0; trial < 4; trial++ {
		g := gen.ErdosRenyi(40+rng.Intn(60), 150+rng.Intn(300), rng.Int63())
		zero, neg, inf := make([]float64, g.NumEdges()), make([]float64, g.NumEdges()), make([]float64, g.NumEdges())
		p := make([]float64, g.N)
		for i := range p {
			p[i] = float64(rng.Intn(21))
		}
		for k := range g.Src {
			zero[k] = float64(rng.Intn(3)) // a third of the edges weigh 0
			neg[k] = float64(rng.Intn(10)) + p[g.Src[k]] - p[g.Dst[k]]
			inf[k] = neg[k]
			if rng.Intn(8) == 0 {
				inf[k] = math.Inf(1)
			}
		}
		graphs = append(graphs, battery{"zero", g, zero}, battery{"negative", g, neg}, battery{"+Inf", g, inf})
	}
	rmat := gen.Graph500RMAT(7, 8, 1).Symmetrize()
	graphs = append(graphs, battery{"rmat-7", rmat, gen.UniformWeights(rmat, 1, 2, 7)})
	// Vertex n-1 hangs off source 0 by a +Inf edge alone.
	lone := gen.Graph{N: 6, Src: []int{0, 0, 1, 2, 3, 0}, Dst: []int{1, 2, 3, 3, 4, 5}}
	graphs = append(graphs, battery{"+Inf only", lone, []float64{1, 0, -1, 2, 0.5, math.Inf(1)}})

	for _, threads := range []int{1, 2, 4} {
		ctx := ck1(grb.NewContext(grb.NonBlocking, nil, grb.WithThreads(threads), grb.WithChunk(1)))
		for _, b := range graphs {
			a := ck1(weighted(t, b.g, b.w).ViewInContext(ctx))
			for _, src := range []int{0, b.g.N / 3, b.g.N - 1} {
				sameSSSP(t, b.name, a, src)
			}
		}
		d := sameSSSP(t, "+Inf only", ck1(weighted(t, lone, graphs[len(graphs)-1].w).ViewInContext(ctx)), 0)
		if v, ok := ck2(d.ExtractElement(5)); !ok || !math.IsInf(v, 1) {
			t.Fatalf("threads %d: the vertex behind the +Inf edge has d = %v, stored %v; want a stored +Inf", threads, v, ok)
		}
		ck(ctx.Free())
	}
}

// TestSSSPNaN pins what a NaN does, as the full-round iteration decided it: a
// NaN distance compares unequal to itself, so a run that stores one never
// converges and reports InvalidValue — whether the NaN comes from a NaN weight
// or from +Inf + -Inf, and whether or not the frontier could empty around it
// (a NaN vertex with no way back to itself). A NaN product that the fold order
// discards never becomes a distance, and the run converges as before.
func TestSSSPNaN(t *testing.T) {
	initLib(t)
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name     string
		g        gen.Graph
		w        []float64
		src      int
		converge bool
	}{
		{"NaN weight into a sink", gen.Graph{N: 2, Src: []int{0}, Dst: []int{1}}, []float64{nan}, 0, false},
		{"NaN weight on a cycle", gen.Graph{N: 3, Src: []int{0, 1, 2}, Dst: []int{1, 2, 0}}, []float64{1, nan, 1}, 0, false},
		{"+Inf then -Inf", gen.Graph{N: 3, Src: []int{0, 1}, Dst: []int{1, 2}}, []float64{inf, -inf}, 0, false},
		{"-Inf alone settles", gen.Graph{N: 3, Src: []int{0, 1}, Dst: []int{1, 2}}, []float64{-inf, 5}, 0, true},
		// From 3: vertex 2 is reached at 10; then vertex 0's NaN product
		// comes first in 2's fold and hides vertex 1's 2, every round.
		{"a NaN product the fold discards", gen.Graph{N: 4, Src: []int{3, 3, 3, 0, 1}, Dst: []int{0, 1, 2, 2, 2}},
			[]float64{1, 1, 10, nan, 1}, 3, true},
	} {
		a := weighted(t, tc.g, tc.w)
		_, err := SSSP(a, tc.src)
		if converged := err == nil; converged != tc.converge {
			t.Fatalf("%s: SSSP error %v, want converged = %v", tc.name, err, tc.converge)
		}
		if d := sameSSSP(t, tc.name, a, tc.src); tc.converge && d == nil {
			t.Fatalf("%s: no distances", tc.name)
		}
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
