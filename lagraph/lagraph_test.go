package lagraph

import (
	"math"
	"testing"

	grb "github.com/grblas/grb"
	"github.com/grblas/grb/gen"
)

func initLib(t testing.TB) {
	t.Helper()
	_ = grb.Finalize() //grblint:ignore infocheck -- reset idiom: "not initialized" is expected
	if err := grb.Init(grb.NonBlocking); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = grb.Finalize() }) //grblint:ignore infocheck -- best-effort teardown
}

// adjacency builds a boolean adjacency matrix from a generated graph.
func adjacency(t *testing.T, g gen.Graph) *grb.Matrix[bool] {
	t.Helper()
	a, err := grb.NewMatrix[bool](g.N, g.N)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() > 0 {
		if err := a.Build(g.Src, g.Dst, gen.BoolWeights(g), grb.LOr); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func weighted(t *testing.T, g gen.Graph, w []float64) *grb.Matrix[float64] {
	t.Helper()
	a, err := grb.NewMatrix[float64](g.N, g.N)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() > 0 {
		if err := a.Build(g.Src, g.Dst, w, grb.Plus[float64]); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func TestBFSLevelsPath(t *testing.T) {
	initLib(t)
	a := adjacency(t, gen.Path(5))
	levels, err := BFSLevels(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		v, ok, err := levels.ExtractElement(i)
		if err != nil || !ok {
			t.Fatalf("level(%d) missing: %v", i, err)
		}
		if v != i {
			t.Fatalf("level(%d) = %d, want %d", i, v, i)
		}
	}
}

func TestBFSLevelsDisconnected(t *testing.T) {
	initLib(t)
	g := gen.Path(3)
	g.N = 5 // vertices 3,4 isolated
	a := adjacency(t, g)
	levels, err := BFSLevels(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	nv := ck1(levels.Nvals())
	if nv != 3 {
		t.Fatalf("reached %d vertices, want 3", nv)
	}
}

func TestBFSParentsStar(t *testing.T) {
	initLib(t)
	a := adjacency(t, gen.Star(6))
	parents, err := BFSParents(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	p0, ok := ck2(parents.ExtractElement(0))
	if !ok || p0 != 0 {
		t.Fatalf("parent(0) = %d,%v want 0", p0, ok)
	}
	for i := 1; i < 6; i++ {
		p, ok := ck2(parents.ExtractElement(i))
		if !ok || p != 0 {
			t.Fatalf("parent(%d) = %d,%v want 0", i, p, ok)
		}
	}
}

func TestSSSPPathWeights(t *testing.T) {
	initLib(t)
	g := gen.Path(4)
	a := weighted(t, g, []float64{1, 2, 3})
	d, err := SSSP(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 3, 6}
	for i, wv := range want {
		v, ok := ck2(d.ExtractElement(i))
		if !ok || v != wv {
			t.Fatalf("d(%d) = %v,%v want %v", i, v, ok, wv)
		}
	}
}

func TestPageRankRing(t *testing.T) {
	initLib(t)
	g := gen.Ring(10)
	a := weighted(t, g, gen.UnitWeights[float64](g))
	res, err := PageRank(a, 0.85, 1e-9, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Perfect symmetry: every vertex has rank 1/n.
	for i := 0; i < 10; i++ {
		v, ok := ck2(res.Ranks.ExtractElement(i))
		if !ok || math.Abs(v-0.1) > 1e-6 {
			t.Fatalf("rank(%d) = %v, want 0.1", i, v)
		}
	}
}

func TestTriangleCountComplete(t *testing.T) {
	initLib(t)
	// K4 has C(4,3) = 4 triangles.
	g := gen.CompleteBipartite(1, 1) // placeholder, build K4 manually
	_ = g
	var src, dst []int
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				src = append(src, i)
				dst = append(dst, j)
			}
		}
	}
	k4 := gen.Graph{N: 4, Src: src, Dst: dst}
	a := adjacency(t, k4)
	nt, err := TriangleCount(a)
	if err != nil {
		t.Fatal(err)
	}
	if nt != 4 {
		t.Fatalf("triangles = %d, want 4", nt)
	}
}

func TestSSSPNegativeEdges(t *testing.T) {
	initLib(t)
	// 0→1 (4), 0→2 (1), 2→1 (-2): shortest 0→1 is -1 via 2.
	g := gen.Graph{N: 3, Src: []int{0, 0, 2}, Dst: []int{1, 2, 1}}
	a := weighted(t, g, []float64{4, 1, -2})
	d, err := SSSP(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := ck2(d.ExtractElement(1))
	if !ok || v != -1 {
		t.Fatalf("d(1) = %v,%v want -1", v, ok)
	}
}

func TestSSSPNegativeCycleDetected(t *testing.T) {
	initLib(t)
	// 0→1 (1), 1→0 (-2): a negative cycle reachable from the source.
	g := gen.Graph{N: 2, Src: []int{0, 1}, Dst: []int{1, 0}}
	a := weighted(t, g, []float64{1, -2})
	if _, err := SSSP(a, 0); grb.Code(err) != grb.InvalidValue {
		t.Fatalf("negative cycle: %v", err)
	}
}

func TestBFSAgreesWithSSSPUnitWeights(t *testing.T) {
	initLib(t)
	g := gen.Graph500RMAT(7, 8, 1).Symmetrize()
	ab := adjacency(t, g)
	aw := weighted(t, g, gen.UnitWeights[float64](g))
	levels, err := BFSLevels(ab, 0)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := SSSP(aw, 0)
	if err != nil {
		t.Fatal(err)
	}
	li, lx := ck2(levels.ExtractTuples())
	di, dx := ck2(dist.ExtractTuples())
	if len(li) != len(di) {
		t.Fatalf("reachable sets differ: %d vs %d", len(li), len(di))
	}
	for k := range li {
		if li[k] != di[k] || float64(lx[k]) != dx[k] {
			t.Fatalf("vertex %d: level %d vs dist %v", li[k], lx[k], dx[k])
		}
	}
}
