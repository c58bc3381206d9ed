package main

import (
	grb "github.com/grblas/grb"
	"github.com/grblas/grb/internal/sparse"
)

// The kernel depth of the traced run: the same queries replayed straight on
// internal/sparse, with no grb objects, contexts or deferred sequences. It
// issues the multiply kernels the grb layer would issue, routed the way the
// grb layer routes them (push or pull by sparse.ChoosePush, the cached
// transpose for pull, the context's chunk rule for the thread count), so the
// difference between the algo depth and this one is what the grb layer adds.

// kernelGraph is a graph as the kernels see it.
type kernelGraph struct {
	n       int
	pat     *sparse.CSR[bool]
	wgt     *sparse.CSR[float64]
	threads int
}

// csrOf copies a materialized matrix out through the public export API.
func csrOf[T any](m *grb.Matrix[T]) *sparse.CSR[T] {
	rows := must1(m.Nrows())
	cols := must1(m.Ncols())
	ptr, ind, val := must3(m.MatrixExport(grb.FormatCSR))
	return &sparse.CSR[T]{Rows: rows, Cols: cols, Ptr: ptr, Ind: ind, Val: val}
}

func newKernelGraph(pat *grb.Matrix[bool], wgt *grb.Matrix[float64], threads int) *kernelGraph {
	k := &kernelGraph{threads: threads}
	if pat != nil {
		k.pat = csrOf(pat)
		k.n = k.pat.Rows
		sparse.TransposeCached(k.pat)
	}
	if wgt != nil {
		k.wgt = csrOf(wgt)
		k.n = k.wgt.Rows
		sparse.TransposeCached(k.wgt)
	}
	return k
}

// grbChunk is Context.Chunk's default: the work per thread below which the
// grb layer keeps an operation serial.
const grbChunk = 4096

// exec mirrors Context.threadsFor.
func (k *kernelGraph) exec(work int) sparse.Exec {
	t := k.threads
	if work/grbChunk+1 < t {
		t = work/grbChunk + 1
	}
	return sparse.Exec{Threads: t}
}

// vxm is u ⊕.⊗ A as grb.VxM dispatches it with DirAuto.
func vxm[X, A, Y any](k *kernelGraph, semi sparse.Semi, u *sparse.Vec[X], a *sparse.CSR[A],
	mul func(X, A) Y, add func(Y, Y) Y, mask sparse.VMask) *sparse.Vec[Y] {
	e := k.exec(a.NNZ())
	if sparse.ChoosePush(u.NNZ(), a.Rows, mask, a.Cols) {
		return must1(sparse.VxMSemiEx(semi, sparse.SpecAuto, u, a, mul, add, mask, e))
	}
	at := must1(sparse.TransposeCachedEx(a, e))
	flip := func(a A, x X) Y { return mul(x, a) }
	return must1(sparse.SpMVSemiEx(semi, sparse.SpecAuto, at, u, flip, add, mask, e, sparse.KernelAuto))
}

func lor(a, b bool) bool  { return a || b }
func land(a, b bool) bool { return a && b }

// unionSorted merges two sorted index sets into a structural boolean vector.
func unionSorted(n int, a, b []int) *sparse.Vec[bool] {
	ind := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			ind = append(ind, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			ind = append(ind, b[j])
			j++
		default:
			ind = append(ind, a[i])
			i++
			j++
		}
	}
	val := make([]bool, len(ind))
	for p := range val {
		val[p] = true
	}
	return &sparse.Vec[bool]{N: n, Ind: ind, Val: val}
}

func single[T any](n, i int, v T) *sparse.Vec[T] {
	return &sparse.Vec[T]{N: n, Ind: []int{i}, Val: []T{v}}
}

// frontierSweep advances a boolean frontier from src with the mask "not yet
// reached", for at most maxLevels expansions (0 = until empty), and returns
// the number of levels and of vertices reached.
func frontierSweep[A any](k *kernelGraph, semi sparse.Semi, a *sparse.CSR[A], mul func(bool, A) bool,
	src, maxLevels int) (levels, reached int) {
	frontier := single(k.n, src, true)
	visited := sparse.NewVec[bool](k.n)
	for frontier.NNZ() > 0 {
		levels++
		visited = unionSorted(k.n, visited.Ind, frontier.Ind)
		if maxLevels > 0 && levels > maxLevels {
			break
		}
		mask := sparse.VMask{M: visited, Structural: true, Complement: true}
		t := vxm(k, semi, frontier, a, mul, lor, mask)
		frontier = sparse.MaskApplyV(frontier, t, mask, true)
	}
	return levels, visited.NNZ()
}

// bfs replays lagraph.BFSLevels.
func (k *kernelGraph) bfs(src int) (levels, reached int) {
	return frontierSweep(k, sparse.SemiLorLand, k.pat, land, src, 0)
}

// ego replays the reach computation of lagraph.EgoNet; the induced-subgraph
// extract that follows it is not a multiply and stays in the grb layer's
// self-time.
func (k *kernelGraph) ego(src, hops int) (reached int) {
	_, reached = frontierSweep(k, sparse.SemiGeneric, k.wgt, func(bool, float64) bool { return true }, src, hops)
	return reached
}

// sssp replays lagraph.SSSP: min-plus relaxations until a fixpoint.
func (k *kernelGraph) sssp(src int) (reached int) {
	plus := func(a, b float64) float64 { return a + b }
	minf := func(a, b float64) float64 {
		if b < a {
			return b
		}
		return a
	}
	d := single(k.n, src, 0.0)
	for iter := 0; iter <= k.n; iter++ {
		t := vxm(k, sparse.SemiMinPlus, d, k.wgt, plus, minf, sparse.VMask{})
		next := sparse.AccumMergeV(d, t, minf)
		if sparse.VecEqualFunc(d, next, func(a, b float64) bool { return a == b }) {
			break
		}
		d = next
	}
	return d.NNZ()
}

// pagerank replays the multiplies of lagraph.PageRank: iters products of a
// dense vector with the weights over plus-times.
func (k *kernelGraph) pagerank(iters int) {
	w := &sparse.Vec[float64]{N: k.n, Ind: make([]int, k.n), Val: make([]float64, k.n)}
	for i := range w.Ind {
		w.Ind[i] = i
		w.Val[i] = 1 / float64(k.n)
	}
	times := func(a, b float64) float64 { return a * b }
	plus := func(a, b float64) float64 { return a + b }
	for it := 0; it < iters; it++ {
		vxm(k, sparse.SemiPlusTimes, w, k.wgt, times, plus, sparse.VMask{})
	}
}

// lowerTriangle is tril(A, -1).
func lowerTriangle(a *sparse.CSR[bool]) *sparse.CSR[bool] {
	l := sparse.NewCSR[bool](a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for p, j := range cols {
			if j < i {
				l.Ind = append(l.Ind, j)
				l.Val = append(l.Val, vals[p])
			}
		}
		l.Ptr[i+1] = len(l.Ind)
	}
	return l
}

// triangles replays the masked plus-pair SpGEMM of lagraph.TriangleCount on
// l = tril(A, -1). The semiring there is hand-assembled, so the grb layer
// hands it to the closure kernels untagged.
func (k *kernelGraph) triangles(l *sparse.CSR[bool]) int64 {
	one := func(bool, bool) int64 { return 1 }
	plus := func(a, b int64) int64 { return a + b }
	c := must1(sparse.SpGEMMSemiEx(sparse.SemiGeneric, sparse.SpecAuto, l, l, one, plus,
		sparse.Mask{M: l, Structural: true}, k.exec(2*l.NNZ()), sparse.KernelAuto))
	var sum int64
	for _, v := range c.Val {
		sum += v
	}
	return sum
}

// square replays the unmasked plus-times A·A of spgemm-mid.
func (k *kernelGraph) square() (nnz int) {
	times := func(a, b float64) float64 { return a * b }
	plus := func(a, b float64) float64 { return a + b }
	c := must1(sparse.SpGEMMSemiEx(sparse.SemiPlusTimes, sparse.SpecAuto, k.wgt, k.wgt, times, plus,
		sparse.Mask{}, k.exec(2*k.wgt.NNZ()), sparse.KernelAuto))
	return c.NNZ()
}
