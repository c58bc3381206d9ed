// Package lagraph is a library of graph algorithms built on top of the grb
// public API, in the spirit of the LAGraph project that the GraphBLAS 2.0
// paper names as a primary consumer of the specification. Each algorithm is
// expressed purely in GraphBLAS operations — semiring products, masks,
// accumulators, select/apply with index operators — and therefore doubles as
// an integration test of the underlying implementation.
//
// Conventions: adjacency matrices are square; triangle counting assumes an
// undirected graph and expects a symmetric pattern, which callers can obtain
// with gen.Symmetrize.
package lagraph

import (
	"math"

	grb "github.com/grblas/grb"
)

// dimAndCtx validates that a is square and returns its dimension together
// with the object option that places algorithm intermediates in a's own
// execution context. Inheriting the input's context is what makes the §IV
// serving story work end to end: when a caller hands in a matrix view bound
// to a per-request context (deadline, memory budget, thread cap), every
// intermediate the algorithm allocates — and therefore every operation it
// issues — runs under that context instead of escaping to the library
// default.
func dimAndCtx[T any](a *grb.Matrix[T]) (int, grb.ObjOption, error) {
	n, err := a.Nrows()
	if err != nil {
		return 0, nil, err
	}
	m, err := a.Ncols()
	if err != nil {
		return 0, nil, err
	}
	if n != m {
		return 0, nil, &grb.Error{Info: grb.DimensionMismatch, Msg: "adjacency matrix must be square"}
	}
	ctx, err := a.Context()
	if err != nil {
		return 0, nil, err
	}
	return n, grb.InContext(ctx), nil
}

// BFSLevels performs a breadth-first search over the boolean adjacency
// matrix a from vertex src and returns the level vector: level 0 for src,
// k for vertices first reached after k hops; unreachable vertices have no
// entry. The traversal is the classic GraphBLAS push pattern: a boolean
// frontier advanced by vxm over the lor-land semiring, masked by the
// complement of the visited set.
func BFSLevels(a *grb.Matrix[bool], src grb.Index) (*grb.Vector[int], error) {
	return BFSLevelsDir(a, src, grb.DirAuto)
}

// BFSLevelsDir is BFSLevels with the traversal direction pinned: DirPush
// forces the scatter (vxm) kernel on every level, DirPull forces the masked
// gather over the cached transpose, and DirAuto lets each level route by the
// edges it touches — the direction-optimizing schedule, which typically
// pushes the narrow early and late frontiers and pulls the dense middle ones.
func BFSLevelsDir(a *grb.Matrix[bool], src grb.Index, dir grb.Direction) (*grb.Vector[int], error) {
	n, opt, err := dimAndCtx(a)
	if err != nil {
		return nil, err
	}
	// Replace + structural complemented mask, as in DescRSC, plus the pin.
	desc := &grb.Descriptor{Replace: true, Structure: true, Complement: true, Dir: dir}
	levels, err := grb.NewVector[int](n, opt)
	if err != nil {
		return nil, err
	}
	frontier, err := grb.NewVector[bool](n, opt)
	if err != nil {
		return nil, err
	}
	if err := frontier.SetElement(true, src); err != nil {
		return nil, err
	}
	// visited has levels' pattern. Both become bitmaps as they grow and are
	// then updated in place, which a mask taken off levels itself would
	// prevent: it would pin levels' storage every level.
	visited, err := grb.NewVector[bool](n, opt)
	if err != nil {
		return nil, err
	}
	for depth := 0; ; depth++ {
		nv, err := frontier.Nvals()
		if err != nil {
			return nil, err
		}
		if nv == 0 {
			break
		}
		// levels⟨frontier,structure⟩ = depth; visited⟨frontier,structure⟩ = true
		if err := grb.VectorAssignScalar(levels, frontier, nil, depth, grb.All, grb.DescS); err != nil {
			return nil, err
		}
		if err := grb.VectorAssignScalar(visited, frontier, nil, true, grb.All, grb.DescS); err != nil {
			return nil, err
		}
		// frontier⟨¬visited,structure,replace⟩ = frontier ∨.∧ A
		if err := grb.VxM(frontier, visited, nil, grb.LOrLAnd(), frontier, a, desc); err != nil {
			return nil, err
		}
	}
	return levels, nil
}

// BFSParents performs a breadth-first search returning the parent vector:
// parents(src) = src, and parents(v) is the (minimum-index) predecessor
// through which v was first reached. This algorithm is the paper's §VIII in
// action: the wavefront's values are replaced by their own indices with the
// predefined ROWINDEX index-unary operator before each expansion, so the
// min-first semiring propagates parent identities — no packing of indices
// into values is needed, which is exactly the GraphBLAS 1.X workaround the
// paper's motivation section retires.
func BFSParents(a *grb.Matrix[bool], src grb.Index) (*grb.Vector[int], error) {
	n, opt, err := dimAndCtx(a)
	if err != nil {
		return nil, err
	}
	parents, err := grb.NewVector[int](n, opt)
	if err != nil {
		return nil, err
	}
	wavefront, err := grb.NewVector[int](n, opt)
	if err != nil {
		return nil, err
	}
	if err := wavefront.SetElement(src, src); err != nil {
		return nil, err
	}
	// min-first over (int, bool): product value is the wavefront entry.
	minFirst := grb.Semiring[int, bool, int]{Add: grb.MinMonoid[int](), Mul: grb.First[int, bool]}
	for {
		nv, err := wavefront.Nvals()
		if err != nil {
			return nil, err
		}
		if nv == 0 {
			break
		}
		wmask, err := grb.AsVectorMaskFunc(wavefront, func(int) bool { return true })
		if err != nil {
			return nil, err
		}
		// parents⟨wavefront,structure⟩ = wavefront (record discovered parents)
		if err := grb.VectorAssign(parents, wmask, nil, wavefront, grb.All, grb.DescS); err != nil {
			return nil, err
		}
		// wavefront(i) = i: each frontier vertex becomes its neighbours' parent.
		if err := grb.VectorApplyIndexOp(wavefront, nil, nil, grb.RowIndex[int], wavefront, 0, nil); err != nil {
			return nil, err
		}
		pmask, err := grb.AsVectorMaskFunc(parents, func(int) bool { return true })
		if err != nil {
			return nil, err
		}
		// wavefront⟨¬parents,structure,replace⟩ = wavefront min.first A
		if err := grb.VxM(wavefront, pmask, nil, minFirst, wavefront, a, grb.DescRSC); err != nil {
			return nil, err
		}
	}
	return parents, nil
}

// SSSP computes single-source shortest paths from src over the weighted
// adjacency matrix a using Bellman-Ford iteration on the (min, +) tropical
// semiring, d = d min (d min.+ A) until fixpoint, relaxing each round only
// the edges out of the vertices the round before improved. Edge
// weights may be negative as long as the graph has no negative cycle, which
// is reported as an error after n rounds without convergence; so is a NaN
// distance, which compares unequal to itself and so never settles.
func SSSP(a *grb.Matrix[float64], src grb.Index) (*grb.Vector[float64], error) {
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
	f, err := d.Dup()
	if err != nil {
		return nil, err
	}
	// Each round multiplies only f, the entries of d the round before
	// improved (at first, src):
	//
	//	t = f min.+ A;  kept⟨t ∩ d⟩ = ¬(t < d);  f⟨¬kept, replace⟩ = t;  d min= f
	//
	// kept is where Min(d, t) keeps d — NaN on either side included — so f is
	// exactly what d takes from t, and every round's d is the full multiply's.
	kept, err := grb.NewVector[bool](n, opt)
	if err != nil {
		return nil, err
	}
	minPlus := grb.MinPlus[float64]()
	notBelow := func(x, y float64) bool { return !(x < y) }
	settled := false
	for round := 0; round <= n && !settled; round++ {
		if err := grb.VxM(f, nil, nil, minPlus, f, a, nil); err != nil { // t, in f's place
			return nil, err
		}
		if err := grb.EWiseMultVector(kept, nil, nil, notBelow, f, d, nil); err != nil {
			return nil, err
		}
		if err := grb.VectorAssign(f, kept, nil, f, grb.All, grb.DescRC); err != nil {
			return nil, err
		}
		if err := grb.EWiseAddVector(d, nil, nil, grb.Min[float64], d, f, nil); err != nil {
			return nil, err
		}
		nf, err := f.Nvals()
		if err != nil {
			return nil, err
		}
		settled = nf == 0
	}
	// A NaN distance leaves the frontier as it enters d — nothing is below
	// it — so the frontier can empty around one: look for one.
	nan, err := grb.VectorReduce(grb.Monoid[float64]{Op: keepNaN}, d)
	if err != nil {
		return nil, err
	}
	if !settled || math.IsNaN(nan) {
		return nil, &grb.Error{Info: grb.InvalidValue, Msg: "SSSP: no convergence after n rounds (negative cycle?)"}
	}
	return d, nil
}

// keepNaN folds to a NaN iff a NaN is folded in.
func keepNaN(x, y float64) float64 {
	if math.IsNaN(x) {
		return x
	}
	return y
}

// PageRankResult carries the ranks and the number of iterations used.
type PageRankResult struct {
	Ranks      *grb.Vector[float64]
	Iterations int
}

// PageRank computes the PageRank vector of the weighted adjacency matrix a
// (edge weights are treated as link multiplicities) with the given damping
// factor, iterating until the L1 change falls below tol or maxIter rounds
// (a tol that is not positive runs maxIter rounds and never measures the
// change). Dangling vertices (no out-edges) redistribute their rank
// uniformly.
func PageRank(a *grb.Matrix[float64], damping float64, tol float64, maxIter int) (*PageRankResult, error) {
	n, opt, err := dimAndCtx(a)
	if err != nil {
		return nil, err
	}
	if damping <= 0 || damping >= 1 {
		return nil, &grb.Error{Info: grb.InvalidValue, Msg: "PageRank: damping must be in (0,1)"}
	}
	// Out-degree (row sums); send(i) = damping/outdeg(i) is what each unit of
	// rank on i puts on each of its out-links, folded once outside the loop.
	deg, err := grb.NewVector[float64](n, opt)
	if err != nil {
		return nil, err
	}
	if err := grb.MatrixReduceToVector(deg, nil, nil, grb.PlusMonoid[float64](), a, nil); err != nil {
		return nil, err
	}
	send, err := grb.NewVector[float64](n, opt)
	if err != nil {
		return nil, err
	}
	if err := grb.VectorApply(send, nil, nil, func(d float64) float64 { return damping / d }, deg, nil); err != nil {
		return nil, err
	}
	// dangling⟨¬deg,structure⟩ = true: the vertices with no out-edges, whose
	// rank is spread uniformly. The pattern never changes, so it is built once.
	degMask, err := grb.AsVectorMaskFunc(deg, func(float64) bool { return true })
	if err != nil {
		return nil, err
	}
	// send⟨¬deg,structure⟩ = 0 makes send — and so w below — full, which the
	// product gathers through without a copy or a presence test (LAGraph's
	// PageRank fills d_out the same way). A dangling vertex has no out-edge,
	// so nothing ever reads its slot and the ranks are the same bits.
	if err := grb.VectorAssignScalar(send, degMask, nil, 0, grb.All, grb.DescSC); err != nil {
		return nil, err
	}
	dangling, err := grb.NewVector[bool](n, opt)
	if err != nil {
		return nil, err
	}
	if err := grb.VectorAssignScalar(dangling, degMask, nil, true, grb.All, grb.DescSC); err != nil {
		return nil, err
	}
	ndangling, err := dangling.Nvals()
	if err != nil {
		return nil, err
	}
	r, err := grb.NewVector[float64](n, opt)
	if err != nil {
		return nil, err
	}
	if err := grb.VectorAssignScalar(r, nil, nil, 1/float64(n), grb.All, nil); err != nil {
		return nil, err
	}
	// Every intermediate is wholly overwritten each iteration, so the loop
	// reuses five objects. rnew starts as a copy of r's values over r's own
	// full pattern: the scalar assign below keeps sharing that pattern and
	// writes into rnew's array. A Dup would share r's array and pin it, and
	// the first two iterations would each allocate a fresh one.
	rnew, err := grb.NewVector[float64](n, opt)
	if err != nil {
		return nil, err
	}
	if err := grb.VectorApply(rnew, nil, nil, grb.Identity[float64], r, nil); err != nil {
		return nil, err
	}
	w, err := grb.NewVector[float64](n, opt)
	if err != nil {
		return nil, err
	}
	dang, err := grb.NewVector[float64](n, opt)
	if err != nil {
		return nil, err
	}
	// delta < tol cannot hold unless tol > 0 — delta is a sum of absolute
	// values, or NaN — so without one the loop runs maxIter iterations and
	// never measures delta.
	var diff *grb.Vector[float64]
	if tol > 0 {
		if diff, err = grb.NewVector[float64](n, opt); err != nil {
			return nil, err
		}
	}
	absDiff := func(x, y float64) float64 { return math.Abs(x - y) }
	for iter := 1; iter <= maxIter; iter++ {
		// w = r ⊗ send (damped importance each page sends per out-link)
		if err := grb.EWiseMultVector(w, nil, nil, grb.Times[float64], r, send, nil); err != nil {
			return nil, err
		}
		// Dangling mass: rank parked on vertices with no out-edges.
		dmass := 0.0
		if ndangling > 0 {
			if err := grb.EWiseMultVector(dang, nil, nil, grb.First[float64, bool], r, dangling, nil); err != nil {
				return nil, err
			}
			if dmass, err = grb.VectorReduce(grb.PlusMonoid[float64](), dang); err != nil {
				return nil, err
			}
		}
		// rnew = base; rnew += w +.× A (the accumulator adds the incoming
		// importance in the same call that computes it)
		base := (1-damping)/float64(n) + damping*dmass/float64(n)
		if err := grb.VectorAssignScalar(rnew, nil, nil, base, grb.All, nil); err != nil {
			return nil, err
		}
		if err := grb.VxM(rnew, nil, grb.Plus[float64], grb.PlusTimes[float64](), w, a, nil); err != nil {
			return nil, err
		}
		// delta = Σ |rnew - r|: both are full, so eWiseAdd passes nothing through.
		converged := false
		if diff != nil {
			if err := grb.EWiseAddVector(diff, nil, nil, absDiff, rnew, r, nil); err != nil {
				return nil, err
			}
			delta, err := grb.VectorReduce(grb.PlusMonoid[float64](), diff)
			if err != nil {
				return nil, err
			}
			converged = delta < tol
		}
		r, rnew = rnew, r
		if converged {
			return &PageRankResult{Ranks: r, Iterations: iter}, nil
		}
	}
	return &PageRankResult{Ranks: r, Iterations: maxIter}, nil
}

// TriangleCount counts the triangles of the undirected graph with symmetric
// boolean adjacency a using the Sandia method: with L the strictly lower
// triangle of A (extracted by the GraphBLAS 2.0 select operation with the
// predefined TriL operator, §VIII), the count is Σ (L ⊕.pair L)⟨L⟩ — a
// masked SpGEMM over the plus-pair structural semiring.
func TriangleCount(a *grb.Matrix[bool]) (int64, error) {
	n, opt, err := dimAndCtx(a)
	if err != nil {
		return 0, err
	}
	l, err := grb.NewMatrix[bool](n, n, opt)
	if err != nil {
		return 0, err
	}
	// L = tril(A, -1): the select operation with the Table IV TriL operator.
	if err := grb.MatrixSelect(l, nil, nil, grb.TriL[bool], a, -1, nil); err != nil {
		return 0, err
	}
	c, err := grb.NewMatrix[int64](n, n, opt)
	if err != nil {
		return 0, err
	}
	plusPair := grb.Semiring[bool, bool, int64]{Add: grb.PlusMonoid[int64](), Mul: grb.Oneb[bool, bool, int64]}
	if err := grb.MxM(c, l, nil, plusPair, l, l, grb.DescS); err != nil {
		return 0, err
	}
	return grb.MatrixReduce(grb.PlusMonoid[int64](), c)
}
