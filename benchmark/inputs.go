package main

import (
	"container/heap"
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"github.com/grblas/grb/gen"
)

// must aborts on an error the benchmark cannot continue past: a failure of
// the harness itself, never a wrong answer from the program (those are
// counted as failed operations).
func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func must1[A any](a A, err error) A { must(err); return a }

func must2[A, B any](a A, b B, err error) (A, B) { must(err); return a, b }

func must3[A, B, C any](a A, b B, c C, err error) (A, B, C) { must(err); return a, b, c }

// inputGraph is a generated edge list plus the plain-Go adjacency the
// oracles walk. The program under test only ever sees Src/Dst/W.
type inputGraph struct {
	gen.Graph
	W      []float64 // one weight in [1, 2) per edge
	genS   float64   // seconds gen took
	ptr    []int     // adjacency: neighbours of v are adj[ptr[v]:ptr[v+1]]
	adj    []int
	adjW   []float64
	degPos []int // vertices with at least one out-edge: the query sources
}

const (
	// graphSeed is the R-MAT generator's seed, the same for every --seed: a
	// graph that changed with the seed put 2 % of spread between seeds on
	// allocs_per_op and more on the timings, which runs on one host cannot
	// tell from a regression. --seed drives what is asked of the graph, not
	// the graph.
	graphSeed = 42
	// weightSeed is the seed serve.FromGen draws edge weights with; the
	// oracles must see the weights the server serves.
	weightSeed = 7
)

// genRMAT generates the R-MAT graph of a workload.
func genRMAT(scale int, symmetric bool) *inputGraph {
	t0 := time.Now()
	g := gen.Graph500RMAT(scale, 8, graphSeed)
	if symmetric {
		g = g.Symmetrize()
	}
	in := &inputGraph{Graph: g, genS: time.Since(t0).Seconds()}
	in.W = gen.UniformWeights(g, 1, 2, weightSeed)
	return in
}

// index builds the oracle adjacency; it is benchmark bookkeeping and runs
// outside every timed region.
func (g *inputGraph) index() {
	g.ptr = make([]int, g.N+1)
	for _, s := range g.Src {
		g.ptr[s+1]++
	}
	for v := 0; v < g.N; v++ {
		g.ptr[v+1] += g.ptr[v]
	}
	g.adj = make([]int, len(g.Src))
	g.adjW = make([]float64, len(g.Src))
	next := append([]int(nil), g.ptr[:g.N]...)
	for k, s := range g.Src {
		g.adj[next[s]] = g.Dst[k]
		g.adjW[next[s]] = g.W[k]
		next[s]++
	}
}

// sources draws count query sources among the vertices that have edges: an
// isolated source makes a trivial query, and R-MAT leaves enough isolated
// vertices to make the latency distribution bimodal.
func (g *inputGraph) sources(count int, rng *rand.Rand) []int {
	if g.degPos == nil {
		seen := make([]bool, g.N)
		for _, s := range g.Src {
			if !seen[s] {
				seen[s] = true
				g.degPos = append(g.degPos, s)
			}
		}
	}
	out := make([]int, count)
	for i := range out {
		out[i] = g.degPos[rng.Intn(len(g.degPos))]
	}
	return out
}

// bfsOracle is a queue BFS; level -1 marks an unreachable vertex.
func (g *inputGraph) bfsOracle(src int) []int {
	level := make([]int, g.N)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.adj[g.ptr[v]:g.ptr[v+1]] {
			if level[u] < 0 {
				level[u] = level[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return level
}

type distItem struct {
	v int
	d float64
}
type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// dijkstraOracle returns shortest distances; +Inf marks unreachable.
func (g *inputGraph) dijkstraOracle(src int) []float64 {
	dist := make([]float64, g.N)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	h := &distHeap{{src, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if it.d > dist[it.v] {
			continue
		}
		for k := g.ptr[it.v]; k < g.ptr[it.v+1]; k++ {
			if nd := it.d + g.adjW[k]; nd < dist[g.adj[k]] {
				dist[g.adj[k]] = nd
				heap.Push(h, distItem{g.adj[k], nd})
			}
		}
	}
	return dist
}

// triangleOracle counts triangles of a symmetric graph: for every u, mark
// its neighbours, then for each neighbour v < u count v's neighbours w < v
// that are marked.
func (g *inputGraph) triangleOracle() int64 {
	mark := make([]int, g.N)
	var count int64
	for u := 0; u < g.N; u++ {
		nu := g.adj[g.ptr[u]:g.ptr[u+1]]
		for _, v := range nu {
			mark[v] = u + 1
		}
		for _, v := range nu {
			if v >= u {
				continue
			}
			for _, w := range g.adj[g.ptr[v]:g.ptr[v+1]] {
				if w < v && mark[w] == u+1 {
					count++
				}
			}
		}
	}
	return count
}

// squareNnzOracle counts the stored entries of A·A's pattern.
func (g *inputGraph) squareNnzOracle() int {
	mark := make([]int, g.N)
	nnz := 0
	for i := 0; i < g.N; i++ {
		for _, k := range g.adj[g.ptr[i]:g.ptr[i+1]] {
			for _, j := range g.adj[g.ptr[k]:g.ptr[k+1]] {
				if mark[j] != i+1 {
					mark[j] = i + 1
					nnz++
				}
			}
		}
	}
	return nnz
}

// checkLevels compares a sparse level vector against the BFS oracle.
func (g *inputGraph) checkLevels(src int, idx, levels []int) error {
	want := g.bfsOracle(src)
	reached := 0
	for _, l := range want {
		if l >= 0 {
			reached++
		}
	}
	if len(idx) != reached || len(levels) != len(idx) {
		return fmt.Errorf("bfs src=%d: reached %d vertices, oracle %d", src, len(idx), reached)
	}
	for k, v := range idx {
		if v < 0 || v >= g.N || want[v] != levels[k] {
			return fmt.Errorf("bfs src=%d: vertex %d level %d, oracle disagrees", src, v, levels[k])
		}
	}
	return nil
}

// checkDist compares a sparse distance vector against Dijkstra to 1e-9.
func (g *inputGraph) checkDist(src int, idx []int, dist []float64) error {
	want := g.dijkstraOracle(src)
	reached := 0
	for _, d := range want {
		if !math.IsInf(d, 1) {
			reached++
		}
	}
	if len(idx) != reached || len(dist) != len(idx) {
		return fmt.Errorf("sssp src=%d: reached %d vertices, oracle %d", src, len(idx), reached)
	}
	for k, v := range idx {
		if v < 0 || v >= g.N || math.Abs(want[v]-dist[k]) > 1e-9 {
			return fmt.Errorf("sssp src=%d: vertex %d distance %g, oracle disagrees", src, v, dist[k])
		}
	}
	return nil
}

// checkRanks holds PageRank to its invariants: exactly wantIters iterations
// and ranks summing to 1.
func checkRanks(iters, wantIters int, ranks []float64) error {
	sum := 0.0
	for _, r := range ranks {
		sum += r
	}
	if iters != wantIters || math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("pagerank: %d iterations (want %d), ranks sum to %.12f", iters, wantIters, sum)
	}
	return nil
}

// checkEgo compares an ego-net against the vertices within hops of src and
// the number of edges they induce.
func (g *inputGraph) checkEgo(src, hops int, verts []int, edges int) error {
	level := g.bfsOracle(src)
	in := make([]bool, g.N)
	nv := 0
	for v, l := range level {
		if l >= 0 && l <= hops {
			in[v] = true
			nv++
		}
	}
	ne := 0
	for v := 0; v < g.N; v++ {
		if !in[v] {
			continue
		}
		for _, u := range g.adj[g.ptr[v]:g.ptr[v+1]] {
			if in[u] {
				ne++
			}
		}
	}
	if len(verts) != nv || edges != ne {
		return fmt.Errorf("ego src=%d: %d vertices %d edges, oracle %d and %d", src, len(verts), edges, nv, ne)
	}
	for _, v := range verts {
		if v < 0 || v >= g.N || !in[v] {
			return fmt.Errorf("ego src=%d: vertex %d is outside the %d-hop ball", src, v, hops)
		}
	}
	return nil
}
