package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	grb "github.com/grblas/grb"
	"github.com/grblas/grb/gen"
	"github.com/grblas/grb/internal/sparse"
	"github.com/grblas/grb/lagraph"
	"github.com/grblas/grb/mtx"
)

// The library workloads: no server, one caller, everything in a context of
// one thread, so that an operation is computation on the calling thread and
// its CPU clock can time it. What a second thread buys is the traced run's
// parallel.speedup_t2.

const libThreads = 1

// libBase is what the three library workloads share.
type libBase struct {
	seed   int64
	sz     sizing
	ctx    *grb.Context // WithThreads(libThreads)
	twoCtx *grb.Context // a two-thread context for the traced run; not a child of ctx, which would cap it at one
	peakKB float64      // largest MemoryPeak of a budgeted child, traced run
	t      tally
}

func (b *libBase) tally() *tally { return &b.t }

func (b *libBase) newContext() {
	b.ctx = must1(grb.NewContext(grb.NonBlocking, nil, grb.WithThreads(libThreads)))
}

func (b *libBase) close() {
	if b.twoCtx != nil {
		must(b.twoCtx.Free())
	}
	must(b.ctx.Free())
}

// twoThreads returns the two-thread context, made on first use.
func (b *libBase) twoThreads() *grb.Context {
	if b.twoCtx == nil {
		b.twoCtx = must1(grb.NewContext(grb.NonBlocking, nil, grb.WithThreads(2)))
	}
	return b.twoCtx
}

// requestDepth is the request-ctx depth of a library workload: the algo
// depth's operation in a fresh child context with a memory budget, the shape
// of a server's per-request context.
func (b *libBase) requestDepth(algoIn func(*grb.Context) depthFn) depthFn {
	return func(op int, _ *tracer, _ int) {
		ctx := must1(grb.NewContext(grb.NonBlocking, b.ctx, grb.WithCancel(), grb.WithMemoryLimit(memHighWater)))
		algoIn(ctx)(op, nil, 0)
		b.peakKB = math.Max(b.peakKB, float64(ctx.MemoryPeak())/1024)
		must(ctx.Free())
	}
}

func buildMatrices(g *inputGraph, ctx *grb.Context, wantPattern, wantWeights bool) (*grb.Matrix[bool], *grb.Matrix[float64]) {
	var pattern *grb.Matrix[bool]
	var weights *grb.Matrix[float64]
	if wantPattern {
		pattern = must1(grb.MatrixFromTuples(g.N, g.N, g.Src, g.Dst, gen.BoolWeights(g.Graph), grb.LOr, grb.InContext(ctx)))
		must(pattern.Wait(grb.Materialize))
	}
	if wantWeights {
		weights = must1(grb.MatrixFromTuples(g.N, g.N, g.Src, g.Dst, g.W, grb.Plus[float64], grb.InContext(ctx)))
		must(weights.Wait(grb.Materialize))
	}
	return pattern, weights
}

// ---- traverse-large -------------------------------------------------------

type traverseWL struct {
	libBase
	g       *inputGraph
	pattern *grb.Matrix[bool]
	weights *grb.Matrix[float64]
	srcs    []int
	kept    []traverseResult
	kern    *kernelGraph
	bfsLvls []float64
	prIters []float64
}

type traverseResult struct {
	src    int
	levels *grb.Vector[int]
	dist   *grb.Vector[float64]
	ranks  *grb.Vector[float64]
	iters  int
}

func newTraverse(seed int64, sz sizing) workload {
	return &traverseWL{libBase: libBase{seed: seed, sz: sz}}
}

func (w *traverseWL) describe() string {
	return fmt.Sprintf("graph rmat-%d n=%d edges=%d; context threads=%d", w.sz.scale, w.g.N, len(w.g.Src), libThreads)
}

func (w *traverseWL) setup() {
	w.g = genRMAT(w.sz.scale, true)
	w.newContext()
	w.pattern, w.weights = buildMatrices(w.g, w.ctx, true, true)
	w.srcs = w.g.sources(w.sz.distinct, rand.New(rand.NewSource(w.seed)))
	// Warm-up: one pull-pinned BFS materializes the pattern's cached
	// transpose, one operation does the same for the weights.
	must(must1(lagraph.BFSLevelsDir(w.pattern, w.srcs[0], grb.DirPull)).Free())
	if r, err := w.run(w.pattern, w.weights, w.srcs[0], nil, 0, 0); err != nil {
		must(err)
	} else {
		r.free()
	}
}

func (w *traverseWL) prepare() { w.g.index() }

func (r traverseResult) free() {
	must(r.levels.Free())
	must(r.dist.Free())
	must(r.ranks.Free())
}

// run is one operation: BFS and SSSP from the same source, then PageRank
// with tol 0, which makes it run exactly pagerankIters iterations.
func (w *traverseWL) run(pattern *grb.Matrix[bool], weights *grb.Matrix[float64], src int,
	tr *tracer, op, parent int) (r traverseResult, err error) {
	r.src = src
	tr.time("lagraph.bfs", "lagraph", op, parent, func(int) { r.levels, err = lagraph.BFSLevels(pattern, src) })
	if err != nil {
		return r, err
	}
	tr.time("lagraph.sssp", "lagraph", op, parent, func(int) { r.dist, err = lagraph.SSSP(weights, src) })
	if err != nil {
		return r, err
	}
	var pr *lagraph.PageRankResult
	tr.time("lagraph.pagerank", "lagraph", op, parent, func(int) { pr, err = lagraph.PageRank(weights, 0.85, 0, pagerankIters) })
	if err != nil {
		return r, err
	}
	r.ranks, r.iters = pr.Ranks, pr.Iterations
	return r, nil
}

func (w *traverseWL) src(i int) int { return w.srcs[i%len(w.srcs)] }

func (w *traverseWL) op(_, i int) {
	w.t.attempted.Add(1)
	r, err := w.run(w.pattern, w.weights, w.src(i), nil, 0, 0)
	if err != nil {
		w.t.fail(err)
		return
	}
	if i%w.sz.checkEach == 0 && len(w.kept) < w.sz.maxKept {
		w.kept = append(w.kept, r)
		return
	}
	r.free()
}

func (w *traverseWL) check() {
	for _, r := range w.kept {
		li, lv := must2(r.levels.ExtractTuples())
		di, dv := must2(r.dist.ExtractTuples())
		_, rv := must2(r.ranks.ExtractTuples())
		for _, err := range []error{
			w.g.checkLevels(r.src, li, lv), w.g.checkDist(r.src, di, dv), checkRanks(r.iters, pagerankIters, rv),
		} {
			if err != nil {
				w.t.fail(err)
			}
		}
		r.free()
	}
	w.kept = nil
}

func (w *traverseWL) ladder() ladder {
	w.kern = newKernelGraph(w.pattern, w.weights, libThreads)
	two := w.twoThreads()
	algoIn := func(ctx *grb.Context) depthFn {
		return func(op int, tr *tracer, parent int) {
			p, wt := w.pattern, w.weights
			if ctx != nil {
				p, wt = must1(p.ViewInContext(ctx)), must1(wt.ViewInContext(ctx))
			}
			w.t.attempted.Add(1)
			r, err := w.run(p, wt, w.src(op), tr, op, parent)
			if err != nil {
				w.t.fail(err)
				return
			}
			if tr != nil {
				w.prIters = append(w.prIters, float64(r.iters))
			}
			r.free()
		}
	}
	return ladder{
		depths: [numDepths]depthFn{
			depthRequest: w.requestDepth(algoIn),
			depthAlgo:    algoIn(nil),
			depthKernel: func(op int, tr *tracer, _ int) {
				levels, _ := w.kern.bfs(w.src(op))
				w.kern.sssp(w.src(op))
				w.kern.pagerank(pagerankIters)
				if tr != nil {
					w.bfsLvls = append(w.bfsLvls, float64(levels))
				}
			},
		},
		algoAlt: algoIn(two), altThreads: 2,
		finish: func(tr *tracer, m map[string]float64) {
			m["grb.mem_peak_kb"] = w.peakKB
			m["lagraph.bfs_ms"] = spanMedianMs(tr, "lagraph.bfs")
			m["lagraph.sssp_ms"] = spanMedianMs(tr, "lagraph.sssp")
			m["lagraph.pagerank_ms"] = spanMedianMs(tr, "lagraph.pagerank")
			m["lagraph.bfs_levels"] = mean(w.bfsLvls)
			m["lagraph.pagerank_iters"] = mean(w.prIters)
			m["gen.rmat_medges_s"] = ratio(float64(len(w.g.Src))/1e6, w.g.genS)
		},
	}
}

// ---- spgemm-mid -----------------------------------------------------------

type spgemmWL struct {
	libBase
	g, g2   *inputGraph
	pattern *grb.Matrix[bool]    // rmat-scale pattern, triangle count
	weights *grb.Matrix[float64] // rmat-scale2 weights, A·A
	wantTri int64
	wantNnz int
	kern    *kernelGraph
	kern2   *kernelGraph
	lower   *sparse.CSR[bool]
}

func newSpGEMM(seed int64, sz sizing) workload {
	return &spgemmWL{libBase: libBase{seed: seed, sz: sz}}
}

func (w *spgemmWL) describe() string {
	return fmt.Sprintf("triangles on rmat-%d n=%d edges=%d (%d triangles); A*A on rmat-%d n=%d edges=%d (%d output entries); context threads=%d",
		w.sz.scale, w.g.N, len(w.g.Src), w.wantTri, w.sz.scale2, w.g2.N, len(w.g2.Src), w.wantNnz, libThreads)
}

func (w *spgemmWL) setup() {
	w.g = genRMAT(w.sz.scale, true)
	w.g2 = genRMAT(w.sz.scale2, true)
	w.newContext()
	w.pattern, _ = buildMatrices(w.g, w.ctx, true, false)
	_, w.weights = buildMatrices(w.g2, w.ctx, false, true)
	if _, _, err := w.run(w.pattern, w.weights, nil, 0, 0); err != nil {
		must(err)
	}
}

func (w *spgemmWL) prepare() {
	w.g.index()
	w.g2.index()
	w.wantTri = w.g.triangleOracle()
	w.wantNnz = w.g2.squareNnzOracle()
}

// run is one operation: the triangle count, then A·A materialized.
func (w *spgemmWL) run(pattern *grb.Matrix[bool], weights *grb.Matrix[float64],
	tr *tracer, op, parent int) (tri int64, nnz int, err error) {
	tr.time("lagraph.triangles", "lagraph", op, parent, func(int) { tri, err = lagraph.TriangleCount(pattern) })
	if err != nil {
		return 0, 0, err
	}
	ctx := must1(weights.Context())
	n := must1(weights.Nrows())
	var c *grb.Matrix[float64]
	tr.time("grb.mxm", "grb", op, parent, func(int) {
		if c, err = grb.NewMatrix[float64](n, n, grb.InContext(ctx)); err != nil {
			return
		}
		if err = grb.MxM(c, nil, nil, grb.PlusTimes[float64](), weights, weights, nil); err != nil {
			return
		}
		err = c.Wait(grb.Materialize)
	})
	if err != nil {
		return 0, 0, err
	}
	nnz, err = c.Nvals()
	if err != nil {
		return 0, 0, err
	}
	return tri, nnz, c.Free()
}

// verify holds one operation's answers against the oracles; both are a
// comparison of two numbers, so every operation is checked.
func (w *spgemmWL) verify(tri int64, nnz int, err error) {
	w.t.attempted.Add(1)
	switch {
	case err != nil:
		w.t.fail(err)
	case tri != w.wantTri || nnz != w.wantNnz:
		w.t.fail(fmt.Errorf("spgemm: %d triangles and %d entries in A*A, oracle %d and %d", tri, nnz, w.wantTri, w.wantNnz))
	}
}

func (w *spgemmWL) op(_, _ int) { w.verify(w.run(w.pattern, w.weights, nil, 0, 0)) }

func (w *spgemmWL) check() {}

func (w *spgemmWL) ladder() ladder {
	w.kern = newKernelGraph(w.pattern, nil, libThreads)
	w.kern2 = newKernelGraph(nil, w.weights, libThreads)
	w.lower = lowerTriangle(w.kern.pat)
	two := w.twoThreads()
	algoIn := func(ctx *grb.Context) depthFn {
		return func(op int, tr *tracer, parent int) {
			p, wt := w.pattern, w.weights
			if ctx != nil {
				p, wt = must1(p.ViewInContext(ctx)), must1(wt.ViewInContext(ctx))
			}
			w.verify(w.run(p, wt, tr, op, parent))
		}
	}
	return ladder{
		depths: [numDepths]depthFn{
			depthRequest: w.requestDepth(algoIn),
			depthAlgo:    algoIn(nil),
			depthKernel: func(int, *tracer, int) {
				w.verify(w.kern.triangles(w.lower), w.kern2.square(), nil)
			},
		},
		algoAlt: algoIn(two), altThreads: 2,
		finish: func(tr *tracer, m map[string]float64) {
			m["grb.mem_peak_kb"] = w.peakKB
			m["lagraph.triangles_ms"] = spanMedianMs(tr, "lagraph.triangles")
			m["grb.mxm_ms"] = spanMedianMs(tr, "grb.mxm")
			m["gen.rmat_medges_s"] = ratio(float64(len(w.g.Src)+len(w.g2.Src))/1e6, w.g.genS+w.g2.genS)
		},
	}
}

// ---- ingest ---------------------------------------------------------------

type ingestWL struct {
	libBase
	g      *inputGraph
	text   []byte // Matrix Market text of the directed graph, some edges twice
	setI   []int  // the seeded setElement calls
	setJ   []int
	setX   []float64
	want   map[[2]int]float64 // the transposed, merged tuples
	kept   []ingestResult
	blobKB float64
}

type ingestResult struct {
	ptr, ind []int
	val      []float64
}

func newIngest(seed int64, sz sizing) workload {
	return &ingestWL{libBase: libBase{seed: seed, sz: sz}}
}

func (w *ingestWL) describe() string {
	return fmt.Sprintf("directed rmat-%d n=%d edges=%d (+%d repeated), %d KB of Matrix Market text, %d setElement per op; context threads=%d",
		w.sz.scale, w.g.N, len(w.g.Src), w.dups(), len(w.text)/1024, w.sz.setElems, libThreads)
}

// dups is the number of edges the text repeats, so that Build's dup
// operator has something to do.
func (w *ingestWL) dups() int { return len(w.g.Src) / 100 }

func (w *ingestWL) setup() {
	w.g = genRMAT(w.sz.scale, false)
	w.newContext()
	d := w.dups()
	var buf bytes.Buffer
	must(mtx.Write(&buf, w.g.N, w.g.N,
		append(append([]int(nil), w.g.Src...), w.g.Src[:d]...),
		append(append([]int(nil), w.g.Dst...), w.g.Dst[:d]...),
		append(append([]float64(nil), w.g.W...), w.g.W[:d]...)))
	w.text = buf.Bytes()
	rng := rand.New(rand.NewSource(w.seed))
	for k := 0; k < w.sz.setElems; k++ {
		w.setI = append(w.setI, rng.Intn(w.g.N))
		w.setJ = append(w.setJ, rng.Intn(w.g.N))
		w.setX = append(w.setX, rng.Float64())
	}
	if _, err := w.run(w.ctx, nil, 0, 0); err != nil {
		must(err)
	}
}

// prepare computes what every operation must export: the text's entries
// summed where repeated, overwritten by the setElement calls, transposed.
func (w *ingestWL) prepare() {
	w.want = make(map[[2]int]float64, len(w.g.Src))
	for k := range w.g.Src {
		w.want[[2]int{w.g.Dst[k], w.g.Src[k]}] += w.g.W[k]
	}
	for k := 0; k < w.dups(); k++ {
		w.want[[2]int{w.g.Dst[k], w.g.Src[k]}] += w.g.W[k]
	}
	for k := range w.setI {
		w.want[[2]int{w.setJ[k], w.setI[k]}] = w.setX[k]
	}
}

// run is one operation of the write path, every object in ctx.
func (w *ingestWL) run(ctx *grb.Context, tr *tracer, op, parent int) (r ingestResult, err error) {
	in := grb.InContext(ctx)
	var c *mtx.Coord
	tr.time("mtx.read", "mtx", op, parent, func(int) { c, err = mtx.Read(bytes.NewReader(w.text)) })
	if err != nil {
		return r, err
	}
	a, err := grb.NewMatrix[float64](c.Rows, c.Cols, in)
	if err != nil {
		return r, err
	}
	tr.time("grb.build", "grb", op, parent, func(int) {
		if err = a.Build(c.I, c.J, c.X, grb.Plus[float64]); err == nil {
			err = a.Wait(grb.Materialize)
		}
	})
	if err != nil {
		return r, err
	}
	tr.time("grb.merge", "grb", op, parent, func(int) {
		for k := range w.setI {
			if err = a.SetElement(w.setX[k], w.setI[k], w.setJ[k]); err != nil {
				return
			}
		}
		err = a.Wait(grb.Materialize)
	})
	if err != nil {
		return r, err
	}
	at, err := grb.NewMatrix[float64](c.Cols, c.Rows, in)
	if err != nil {
		return r, err
	}
	tr.time("grb.transpose", "grb", op, parent, func(int) {
		if err = grb.Transpose(at, nil, nil, a, nil); err == nil {
			err = at.Wait(grb.Materialize)
		}
	})
	if err != nil {
		return r, err
	}
	var blob []byte
	tr.time("grb.serialize", "grb", op, parent, func(int) { blob, err = at.SerializeBytes() })
	if err != nil {
		return r, err
	}
	w.blobKB = float64(len(blob)) / 1024
	var back *grb.Matrix[float64]
	tr.time("grb.deserialize", "grb", op, parent, func(int) { back, err = grb.MatrixDeserialize[float64](blob, in) })
	if err != nil {
		return r, err
	}
	tr.time("grb.export", "grb", op, parent, func(int) { r.ptr, r.ind, r.val, err = back.MatrixExport(grb.FormatCSR) })
	if err != nil {
		return r, err
	}
	for _, m := range []*grb.Matrix[float64]{a, at, back} {
		if err := m.Free(); err != nil {
			return r, err
		}
	}
	return r, nil
}

func (w *ingestWL) op(_, i int) {
	w.t.attempted.Add(1)
	r, err := w.run(w.ctx, nil, 0, 0)
	switch {
	case err != nil:
		w.t.fail(err)
	case i%w.sz.checkEach == 0 && len(w.kept) < w.sz.maxKept:
		w.kept = append(w.kept, r)
	}
}

func (w *ingestWL) check() {
	for _, r := range w.kept {
		if err := w.checkExport(r); err != nil {
			w.t.fail(err)
		}
	}
	w.kept = nil
}

func (w *ingestWL) checkExport(r ingestResult) error {
	if len(r.ind) != len(w.want) || len(r.ptr) != w.g.N+1 {
		return fmt.Errorf("ingest: exported %d entries in %d rows, oracle %d in %d", len(r.ind), len(r.ptr)-1, len(w.want), w.g.N)
	}
	for i := 0; i+1 < len(r.ptr); i++ {
		for p := r.ptr[i]; p < r.ptr[i+1]; p++ {
			want, ok := w.want[[2]int{i, r.ind[p]}]
			if !ok || math.Abs(want-r.val[p]) > 1e-9 {
				return fmt.Errorf("ingest: exported (%d,%d)=%g, oracle disagrees", i, r.ind[p], r.val[p])
			}
		}
	}
	return nil
}

// kernel is the write path on internal/sparse alone: build, merge,
// transpose. Parsing and the serialized form live above the kernels.
func (w *ingestWL) kernel(c *mtx.Coord) {
	plus := func(a, b float64) float64 { return a + b }
	a := must1(sparse.BuildCSR(c.Rows, c.Cols, c.I, c.J, c.X, plus))
	tuples := make([]sparse.Tuple[float64], len(w.setI))
	for k := range tuples {
		tuples[k] = sparse.Tuple[float64]{Row: w.setI[k], Col: w.setJ[k], Val: w.setX[k]}
	}
	sparse.Transpose(must1(sparse.MergeTuples(a, tuples)))
}

func (w *ingestWL) ladder() ladder {
	coord := must1(mtx.Read(bytes.NewReader(w.text)))
	algoIn := func(ctx *grb.Context) depthFn {
		return func(op int, tr *tracer, parent int) {
			w.t.attempted.Add(1)
			if _, err := w.run(ctx, tr, op, parent); err != nil {
				w.t.fail(err)
			}
		}
	}
	return ladder{
		depths: [numDepths]depthFn{
			depthRequest: w.requestDepth(algoIn),
			depthAlgo:    algoIn(w.ctx),
			depthKernel:  func(int, *tracer, int) { w.kernel(coord) },
		},
		algoAlt: algoIn(w.twoThreads()), altThreads: 2,
		finish: func(tr *tracer, m map[string]float64) {
			// mtx.allocs_per_edge needs a reading around the parse alone.
			before := readUsage()
			must1(mtx.Read(bytes.NewReader(w.text)))
			readCost := readUsage().since(before)
			entries := float64(len(coord.I))
			textMB := float64(len(w.text)) / (1 << 20)
			blobMB := w.blobKB / 1024
			perS := func(amount float64, span string) float64 { return ratio(amount, spanMedianMs(tr, span)/1e3) }
			m["grb.mem_peak_kb"] = w.peakKB
			m["mtx.read_mb_s"] = perS(textMB, "mtx.read")
			m["mtx.allocs_per_edge"] = readCost.mallocs / entries
			m["grb.build_medges_s"] = perS(entries/1e6, "grb.build")
			m["grb.merge_ms"] = spanMedianMs(tr, "grb.merge")
			m["grb.transpose_ms"] = spanMedianMs(tr, "grb.transpose")
			m["grb.serialize_mb_s"] = perS(blobMB, "grb.serialize")
			m["grb.deserialize_mb_s"] = perS(blobMB, "grb.deserialize")
			m["grb.export_ms"] = spanMedianMs(tr, "grb.export")
			m["gen.rmat_medges_s"] = ratio(float64(len(w.g.Src))/1e6, w.g.genS)
		},
	}
}
