// Package gen provides deterministic graph and workload generators for the
// GraphBLAS tests, benchmarks and graph server: Erdős–Rényi and
// RMAT/Kronecker random graphs (the synthetic stand-ins for the paper's
// motivating graph workloads), plus regular topologies (grid, ring, path,
// complete bipartite) whose algorithmic results are known in closed form.
// All generators are seeded and reproducible.
package gen

import (
	"math/rand"
	"sort"
)

// Graph is an edge list over vertices 0..N-1. Edges are directed; use
// Symmetrize for undirected graphs.
type Graph struct {
	N   int
	Src []int
	Dst []int
}

// NumEdges returns the number of (directed) edges.
func (g Graph) NumEdges() int { return len(g.Src) }

// Dedup returns a copy with duplicate edges removed (keeping one copy) and
// edges sorted by (src, dst).
func (g Graph) Dedup() Graph {
	type e struct{ s, d int }
	es := make([]e, len(g.Src))
	for k := range g.Src {
		es[k] = e{g.Src[k], g.Dst[k]}
	}
	sort.Slice(es, func(a, b int) bool {
		if es[a].s != es[b].s {
			return es[a].s < es[b].s
		}
		return es[a].d < es[b].d
	})
	out := Graph{N: g.N}
	for k := range es {
		if k > 0 && es[k] == es[k-1] {
			continue
		}
		out.Src = append(out.Src, es[k].s)
		out.Dst = append(out.Dst, es[k].d)
	}
	return out
}

// NoSelfLoops returns a copy with self-loops removed.
func (g Graph) NoSelfLoops() Graph {
	out := Graph{N: g.N}
	for k := range g.Src {
		if g.Src[k] != g.Dst[k] {
			out.Src = append(out.Src, g.Src[k])
			out.Dst = append(out.Dst, g.Dst[k])
		}
	}
	return out
}

// Symmetrize returns the union of g and its reverse, deduplicated — an
// undirected graph in directed-edge form.
func (g Graph) Symmetrize() Graph {
	out := Graph{N: g.N,
		Src: make([]int, 0, 2*len(g.Src)),
		Dst: make([]int, 0, 2*len(g.Dst))}
	out.Src = append(out.Src, g.Src...)
	out.Dst = append(out.Dst, g.Dst...)
	out.Src = append(out.Src, g.Dst...)
	out.Dst = append(out.Dst, g.Src...)
	return out.Dedup()
}

// ErdosRenyi samples m directed edges uniformly at random (without
// duplicates or self-loops) over n vertices.
func ErdosRenyi(n, m int, seed int64) Graph {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[[2]int]struct{}, m)
	g := Graph{N: n}
	if n < 2 {
		return g
	}
	maxEdges := n * (n - 1)
	if m > maxEdges {
		m = maxEdges
	}
	for len(g.Src) < m {
		s := rng.Intn(n)
		d := rng.Intn(n)
		if s == d {
			continue
		}
		key := [2]int{s, d}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		g.Src = append(g.Src, s)
		g.Dst = append(g.Dst, d)
	}
	return g.Dedup()
}

// Hypersparse samples m distinct directed edges (no self-loops) uniformly
// over n vertices with n ≫ m in mind: most rows are empty, the regime where
// adaptive hash accumulators beat dense O(n) workspaces. Memory and time are
// O(m) regardless of n. Equivalent to ErdosRenyi but guarded against the
// n*(n-1) edge-capacity product overflowing for very large n.
func Hypersparse(n, m int, seed int64) Graph {
	rng := rand.New(rand.NewSource(seed))
	g := Graph{N: n}
	if n < 2 || m <= 0 {
		return g
	}
	// Cap m at the n*(n-1) distinct-edge capacity without computing the
	// product (it overflows for n ~ 2^32 on 64-bit ints).
	if n-1 <= m/n {
		m = n * (n - 1)
	}
	seen := make(map[[2]int]struct{}, m)
	for len(g.Src) < m {
		s := rng.Intn(n)
		d := rng.Intn(n)
		if s == d {
			continue
		}
		key := [2]int{s, d}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		g.Src = append(g.Src, s)
		g.Dst = append(g.Dst, d)
	}
	return g.Dedup()
}

// RMAT generates a Kronecker/RMAT power-law graph with 2^scale vertices and
// approximately edgeFactor * 2^scale edges, using the standard (a, b, c, d)
// recursive quadrant probabilities (Graph500 uses 0.57, 0.19, 0.19, 0.05).
// Duplicate edges and self-loops are removed, so the final edge count is
// slightly below the target.
func RMAT(scale, edgeFactor int, a, b, c float64, seed int64) Graph {
	n := 1 << scale
	m := edgeFactor * n
	rng := rand.New(rand.NewSource(seed))
	g := Graph{N: n, Src: make([]int, m), Dst: make([]int, m)}
	for k := 0; k < m; k++ {
		src, dst := 0, 0
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left quadrant
			case r < a+b:
				dst |= 1 << bit
			case r < a+b+c:
				src |= 1 << bit
			default:
				src |= 1 << bit
				dst |= 1 << bit
			}
		}
		g.Src[k] = src
		g.Dst[k] = dst
	}
	return g.NoSelfLoops().Dedup()
}

// Graph500RMAT generates an RMAT graph with the Graph500 quadrant
// probabilities (0.57, 0.19, 0.19).
func Graph500RMAT(scale, edgeFactor int, seed int64) Graph {
	return RMAT(scale, edgeFactor, 0.57, 0.19, 0.19, seed)
}

// Grid2D builds the 4-neighbour lattice on rows × cols vertices (directed
// both ways; i.e. already symmetric). Vertex (r, c) has index r*cols + c.
func Grid2D(rows, cols int) Graph {
	g := Graph{N: rows * cols}
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.Src = append(g.Src, id(r, c))
				g.Dst = append(g.Dst, id(r, c+1))
				g.Src = append(g.Src, id(r, c+1))
				g.Dst = append(g.Dst, id(r, c))
			}
			if r+1 < rows {
				g.Src = append(g.Src, id(r, c))
				g.Dst = append(g.Dst, id(r+1, c))
				g.Src = append(g.Src, id(r+1, c))
				g.Dst = append(g.Dst, id(r, c))
			}
		}
	}
	return g
}

// Ring builds the directed cycle 0→1→...→n-1→0.
func Ring(n int) Graph {
	g := Graph{N: n}
	for i := 0; i < n; i++ {
		g.Src = append(g.Src, i)
		g.Dst = append(g.Dst, (i+1)%n)
	}
	return g
}

// Path builds the directed path 0→1→...→n-1.
func Path(n int) Graph {
	g := Graph{N: n}
	for i := 0; i+1 < n; i++ {
		g.Src = append(g.Src, i)
		g.Dst = append(g.Dst, i+1)
	}
	return g
}

// CompleteBipartite builds K_{m,n}: edges both ways between the two parts.
// Left part is vertices 0..m-1, right part m..m+n-1.
func CompleteBipartite(m, n int) Graph {
	g := Graph{N: m + n}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			g.Src = append(g.Src, i)
			g.Dst = append(g.Dst, m+j)
			g.Src = append(g.Src, m+j)
			g.Dst = append(g.Dst, i)
		}
	}
	return g
}

// Star builds the star with center 0 and n-1 leaves (edges both ways).
func Star(n int) Graph {
	g := Graph{N: n}
	for i := 1; i < n; i++ {
		g.Src = append(g.Src, 0)
		g.Dst = append(g.Dst, i)
		g.Src = append(g.Src, i)
		g.Dst = append(g.Dst, 0)
	}
	return g
}

// UniformWeights draws one weight in [lo, hi) per edge of g, seeded.
func UniformWeights(g Graph, lo, hi float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, g.NumEdges())
	for k := range w {
		w[k] = lo + (hi-lo)*rng.Float64()
	}
	return w
}

// UnitWeights returns a weight of 1 per edge, for unweighted algorithms
// expressed over numeric semirings.
func UnitWeights[T ~int | ~int32 | ~int64 | ~float32 | ~float64](g Graph) []T {
	w := make([]T, g.NumEdges())
	for k := range w {
		w[k] = 1
	}
	return w
}

// BoolWeights returns a true value per edge, for structural adjacency
// matrices.
func BoolWeights(g Graph) []bool {
	w := make([]bool, g.NumEdges())
	for k := range w {
		w[k] = true
	}
	return w
}
