package lagraph

import (
	"container/heap"
	"math"
	"testing"

	"github.com/grblas/grb/gen"
)

// Cross-validation of every algorithm against a classical non-GraphBLAS
// reference implementation on random graphs.

type pqItem struct {
	v int
	d float64
}
type pq []pqItem

func (p pq) Len() int           { return len(p) }
func (p pq) Less(i, j int) bool { return p[i].d < p[j].d }
func (p pq) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x any)        { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() any          { old := *p; x := old[len(old)-1]; *p = old[:len(old)-1]; return x }

// refDijkstra is the golden SSSP for nonnegative weights.
func refDijkstra(n int, adj [][]int, w [][]float64, src int) []float64 {
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	h := &pq{{src, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(pqItem)
		if it.d > dist[it.v] {
			continue
		}
		for k, u := range adj[it.v] {
			nd := it.d + w[it.v][k]
			if nd < dist[u] {
				dist[u] = nd
				heap.Push(h, pqItem{u, nd})
			}
		}
	}
	return dist
}

func TestSSSPAgainstDijkstra(t *testing.T) {
	initLib(t)
	g := gen.ErdosRenyi(60, 400, 5)
	wts := gen.UniformWeights(g, 0.5, 10, 5)
	a := weighted(t, g, wts)
	adj := make([][]int, g.N)
	ww := make([][]float64, g.N)
	for k := range g.Src {
		adj[g.Src[k]] = append(adj[g.Src[k]], g.Dst[k])
		ww[g.Src[k]] = append(ww[g.Src[k]], wts[k])
	}
	for _, src := range []int{0, 13, 42} {
		d, err := SSSP(a, src)
		if err != nil {
			t.Fatal(err)
		}
		want := refDijkstra(g.N, adj, ww, src)
		for v := 0; v < g.N; v++ {
			gv, ok := ck2(d.ExtractElement(v))
			if math.IsInf(want[v], 1) {
				if ok {
					t.Fatalf("src %d: vertex %d unreachable but got %v", src, v, gv)
				}
				continue
			}
			if !ok || math.Abs(gv-want[v]) > 1e-9 {
				t.Fatalf("src %d: d(%d) = %v,%v want %v", src, v, gv, ok, want[v])
			}
		}
	}
}

// refTriangles brute-force counts triangles.
func refTriangles(n int, src, dst []int) int64 {
	has := make(map[[2]int]bool, len(src))
	for k := range src {
		has[[2]int{src[k], dst[k]}] = true
	}
	adj := make([][]int, n)
	for k := range src {
		if src[k] < dst[k] {
			adj[src[k]] = append(adj[src[k]], dst[k])
		}
	}
	var count int64
	for u := 0; u < n; u++ {
		for i := 0; i < len(adj[u]); i++ {
			for j := i + 1; j < len(adj[u]); j++ {
				if has[[2]int{adj[u][i], adj[u][j]}] {
					count++
				}
			}
		}
	}
	return count
}

func TestTriangleCountAgainstBruteForce(t *testing.T) {
	initLib(t)
	for _, seed := range []int64{1, 2, 3} {
		g := gen.ErdosRenyi(40, 300, seed).Symmetrize()
		a := adjacency(t, g)
		got, err := TriangleCount(a)
		if err != nil {
			t.Fatal(err)
		}
		want := refTriangles(g.N, g.Src, g.Dst)
		if got != want {
			t.Fatalf("seed %d: triangles = %d, want %d", seed, got, want)
		}
	}
}

// refPageRank is the plain dense power iteration.
func refPageRank(n int, src, dst []int, damping float64, iters int) []float64 {
	outdeg := make([]float64, n)
	for _, s := range src {
		outdeg[s]++
	}
	r := make([]float64, n)
	for i := range r {
		r[i] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		next := make([]float64, n)
		dangling := 0.0
		for v := 0; v < n; v++ {
			if outdeg[v] == 0 {
				dangling += r[v]
			}
		}
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		for i := range next {
			next[i] = base
		}
		for k := range src {
			next[dst[k]] += damping * r[src[k]] / outdeg[src[k]]
		}
		r = next
	}
	return r
}

func TestPageRankAgainstPowerIteration(t *testing.T) {
	initLib(t)
	g := gen.ErdosRenyi(50, 300, 21)
	a := weighted(t, g, gen.UnitWeights[float64](g))
	res, err := PageRank(a, 0.85, 1e-12, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := refPageRank(g.N, g.Src, g.Dst, 0.85, 100)
	for v := 0; v < g.N; v++ {
		gv, ok := ck2(res.Ranks.ExtractElement(v))
		if !ok || math.Abs(gv-want[v]) > 1e-8 {
			t.Fatalf("rank(%d) = %v,%v want %v", v, gv, ok, want[v])
		}
	}
}

// adjList is g's out-neighbour lists, in edge order.
func adjList(g gen.Graph) [][]int {
	adj := make([][]int, g.N)
	for k := range g.Src {
		adj[g.Src[k]] = append(adj[g.Src[k]], g.Dst[k])
	}
	return adj
}

// refBFS is plain queue BFS.
func refBFS(n int, adj [][]int, src int) []int {
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	q := []int{src}
	for len(q) > 0 {
		v := q[0]
		q = q[1:]
		for _, u := range adj[v] {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				q = append(q, u)
			}
		}
	}
	return dist
}

func TestBFSAgainstQueueBFS(t *testing.T) {
	initLib(t)
	g := gen.Graph500RMAT(9, 8, 13).Symmetrize()
	a := adjacency(t, g)
	adj := adjList(g)
	for _, src := range []int{0, 7, 100} {
		levels, err := BFSLevels(a, src)
		if err != nil {
			t.Fatal(err)
		}
		want := refBFS(g.N, adj, src)
		for v := 0; v < g.N; v++ {
			gv, ok := ck2(levels.ExtractElement(v))
			if want[v] < 0 {
				if ok {
					t.Fatalf("vertex %d unreachable but level %d", v, gv)
				}
				continue
			}
			if !ok || gv != want[v] {
				t.Fatalf("level(%d) = %d,%v want %d", v, gv, ok, want[v])
			}
		}
		// parent tree validity on the same graph
		parents, err := BFSParents(a, src)
		if err != nil {
			t.Fatal(err)
		}
		pi, px := ck2(parents.ExtractTuples())
		if len(pi) != 0 {
			reached := 0
			for _, w := range want {
				if w >= 0 {
					reached++
				}
			}
			if len(pi) != reached {
				t.Fatalf("parents cover %d vertices, want %d", len(pi), reached)
			}
		}
		for k := range pi {
			v, p := pi[k], px[k]
			if v == src {
				if p != src {
					t.Fatalf("parent(src) = %d", p)
				}
				continue
			}
			if want[p] != want[v]-1 {
				t.Fatalf("parent(%d)=%d at level %d, vertex at %d", v, p, want[p], want[v])
			}
		}
	}
}
