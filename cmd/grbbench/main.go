// grbbench regenerates every table and figure of "Introduction to GraphBLAS
// 2.0" (IPDPSW 2021) against this implementation, printing one section per
// artifact. Since the paper is an API specification, the artifacts are
// (a) the worked examples of Figs. 1–3 and Tables I–IV, reproduced exactly,
// and (b) the performance motivations of §II (native index operators vs. the
// GraphBLAS 1.X packed-values workaround) and §IV (context-bounded thread
// scaling), reproduced as measured series.
//
// A further section, "hyper", measures the adaptive hash/dense accumulator
// selection on a hypersparse workload (n = 1e6 ≫ nnz ≈ 4e5); the -kernel
// flag pins the accumulator instead of sweeping all three.
//
// The "traversal" section measures direction-optimizing BFS: the same
// level-synchronous traversal pinned to the push (scatter) kernel, the pull
// (masked gather) kernel, and the adaptive router, over hypersparse and RMAT
// graphs; the -dir flag pins one direction instead of sweeping all three,
// and -json writes the measured series — plus the per-op metrics profile
// (grb.Metrics) collected over the whole run — to a machine-readable file.
//
// Usage: grbbench [-run fig1,...,hyper,traversal] [-scale N]
//
//	[-kernel auto|dense|hash] [-dir auto|push|pull] [-json F]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	grb "github.com/grblas/grb"
	"github.com/grblas/grb/gen"
	"github.com/grblas/grb/lagraph"
)

var (
	runList  = flag.String("run", "fig1,fig2,fig3,tab1,tab2,tab3,tab4,ablation,hyper,traversal,dense,serve", "comma-separated experiments")
	scale    = flag.Int("scale", 14, "RMAT scale for the measured experiments")
	kernel   = flag.String("kernel", "", "pin the multiply accumulator for the hyper experiment: auto, dense or hash (empty sweeps all three)")
	dirFlag  = flag.String("dir", "", "pin the traversal direction for the traversal experiment: auto, push or pull (empty sweeps all three)")
	jsonPath = flag.String("json", "", "write the measured series (traversal + dense + serve experiments) to this JSON file")
)

// benchResults collects the measured series from every experiment that
// contributes to -json; main writes the file once after all sections run.
var benchResults []traversalResult

func main() {
	flag.Parse()
	switch *kernel {
	case "", "auto", "dense", "hash":
	default:
		log.Fatalf("-kernel %q: must be auto, dense or hash", *kernel)
	}
	switch *dirFlag {
	case "", "auto", "push", "pull":
	default:
		log.Fatalf("-dir %q: must be auto, push or pull", *dirFlag)
	}
	if err := grb.Init(grb.NonBlocking); err != nil {
		log.Fatal(err)
	}
	defer grb.Finalize() //grblint:ignore infocheck -- best-effort shutdown at process exit
	if *jsonPath != "" {
		// -json reports a per-op profile alongside the measured series, so
		// collect metrics for the whole run.
		grb.EnableMetrics(true)
	}

	want := map[string]bool{}
	for _, s := range strings.Split(*runList, ",") {
		want[strings.TrimSpace(s)] = true
	}
	if want["fig1"] {
		figure1()
	}
	if want["fig2"] {
		figure2()
	}
	if want["fig3"] {
		figure3()
	}
	if want["tab1"] {
		table1()
	}
	if want["tab2"] {
		table2()
	}
	if want["tab3"] {
		table3()
	}
	if want["tab4"] {
		table4()
	}
	if want["ablation"] {
		ablation()
	}
	if want["hyper"] {
		hypersparse()
	}
	if want["traversal"] {
		traversal()
	}
	if want["dense"] {
		denseKernels()
	}
	if want["serve"] {
		serveBench()
	}
	writeBenchJSON()
}

// writeBenchJSON serializes the series collected by the measured experiments
// (traversal, dense) plus the per-op profile into -json, once per run.
func writeBenchJSON() {
	if *jsonPath == "" || len(benchResults) == 0 {
		return
	}
	blob, err := json.MarshalIndent(map[string]any{
		"experiment": "traversal,dense",
		"threads":    runtime.GOMAXPROCS(0),
		"scale":      *scale,
		"results":    benchResults,
		"per_op":     grb.Metrics(),
	}, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *jsonPath)
}

func header(s string) { fmt.Printf("\n===== %s =====\n", s) }

// rmatBool builds the standard measured workload.
func rmatBool(scale int) (*grb.Matrix[bool], gen.Graph) {
	g := gen.Graph500RMAT(scale, 16, 42).Symmetrize()
	a, err := grb.NewMatrix[bool](g.N, g.N)
	if err != nil {
		log.Fatal(err)
	}
	if err := a.Build(g.Src, g.Dst, gen.BoolWeights(g), grb.LOr); err != nil {
		log.Fatal(err)
	}
	return a, g
}

func rmatFloat(scale int) *grb.Matrix[float64] {
	g := gen.Graph500RMAT(scale, 16, 42).Symmetrize()
	a, err := grb.NewMatrix[float64](g.N, g.N)
	if err != nil {
		log.Fatal(err)
	}
	if err := a.Build(g.Src, g.Dst, gen.UniformWeights(g, 0.5, 2.0, 42), grb.Plus[float64]); err != nil {
		log.Fatal(err)
	}
	return a
}

// figure1 measures the paper's two-thread completion protocol: two pipelines
// that share one matrix, synchronized with Wait(COMPLETE) + release/acquire
// flag, versus the same work run sequentially.
func figure1() {
	header("Figure 1 — multithreaded sequences with completion + happens-before")
	const n = 14
	a := rmatFloat(n - 4)

	work := func(parallelMode bool) time.Duration {
		start := time.Now()
		dim := must1(a.Nrows())
		esh := must1(grb.NewMatrix[float64](dim, dim))
		var flag atomic.Int32
		var wg sync.WaitGroup
		wg.Add(2)
		t0 := func() {
			defer wg.Done()
			c := must1(grb.NewMatrix[float64](dim, dim))
			must(grb.MxM(c, nil, nil, grb.PlusTimes[float64](), a, a, nil))
			must(grb.MxM(esh, nil, nil, grb.PlusTimes[float64](), a, c, nil))
			must(esh.Wait(grb.Complete)) // GrB_wait(Esh, GrB_COMPLETE)
			flag.Store(1)                // atomic write, release
		}
		t1 := func() {
			defer wg.Done()
			g := must1(grb.NewMatrix[float64](dim, dim))
			must(grb.MxM(g, nil, nil, grb.PlusTimes[float64](), a, a, nil))
			must(g.Wait(grb.Complete))
			for flag.Load() == 0 { // atomic read, acquire
				runtime.Gosched()
			}
			h := must1(grb.NewMatrix[float64](dim, dim))
			must(grb.MxM(h, nil, nil, grb.PlusTimes[float64](), g, esh, nil))
			must(h.Wait(grb.Complete))
		}
		if parallelMode {
			go t0()
			go t1()
		} else {
			t0()
			t1()
		}
		wg.Wait()
		return time.Since(start)
	}
	seq := work(false)
	par := work(true)
	fmt.Printf("  sequential threads : %v\n", seq)
	fmt.Printf("  concurrent threads : %v  (ratio %.2fx)\n", par, float64(seq)/float64(par))
	fmt.Println("  correctness is the artifact here: Esh is shared race-free through")
	fmt.Println("  Wait(COMPLETE) + a release-store/acquire-load flag, exactly as in Fig. 1;")
	fmt.Println("  on multicore hosts the concurrent version additionally overlaps the")
	fmt.Println("  two private pipelines")
}

// figure2 measures mxm scaling under nested execution contexts with thread
// budgets 1, 2, 4, ... — the resource-bounding role of GrB_Context.
func figure2() {
	header("Figure 2 — execution contexts: thread budget vs. mxm time")
	a := rmatFloat(*scale - 2)
	dim := must1(a.Nrows())
	maxT := runtime.GOMAXPROCS(0)
	if maxT < 8 {
		maxT = 8 // sweep the budget ladder even on small hosts; speedup
		// saturates at the physical core count
	}
	fmt.Printf("  (host has %d usable CPUs — speedups saturate there)\n", runtime.GOMAXPROCS(0))
	fmt.Printf("  %-8s %-12s %s\n", "threads", "mxm time", "speedup vs 1 thread")
	var base time.Duration
	for t := 1; t <= maxT; t *= 2 {
		ctx, err := grb.NewContext(grb.NonBlocking, nil, grb.WithThreads(t), grb.WithChunk(1))
		if err != nil {
			log.Fatal(err)
		}
		ac := must1(a.Dup())
		must(ac.SwitchContext(ctx))
		c := must1(grb.NewMatrix[float64](dim, dim, grb.InContext(ctx)))
		start := time.Now()
		if err := grb.MxM(c, nil, nil, grb.PlusTimes[float64](), ac, ac, nil); err != nil {
			log.Fatal(err)
		}
		must(c.Wait(grb.Materialize))
		el := time.Since(start)
		if t == 1 {
			base = el
		}
		fmt.Printf("  %-8d %-12v %.2fx\n", t, el, float64(base)/float64(el))
		must(ctx.Free())
	}
}

// figure3 reproduces the select/apply worked example (see examples/figure3
// for the verbose version).
func figure3() {
	header("Figure 3 — select and apply with index unary operators")
	a := must1(grb.NewMatrix[int32](7, 7))
	must(a.Build(
		[]grb.Index{0, 0, 1, 1, 2, 3, 3, 4, 5, 6, 6},
		[]grb.Index{1, 3, 4, 6, 5, 0, 2, 5, 2, 2, 3},
		[]int32{2, 3, 8, 1, 1, 3, 3, 1, 2, 5, 7}, nil))
	sel := must1(grb.NewMatrix[int32](7, 7))
	myTriuGT := func(v int32, row, col grb.Index, s int32) bool { return col > row && v > s }
	must(grb.MatrixSelect(sel, nil, nil, myTriuGT, a, 0, nil))
	app := must1(grb.NewMatrix[int](7, 7))
	must(grb.MatrixApplyIndexOp(app, nil, nil, grb.ColIndex[int32], a, 1, nil))
	an := must1(a.Nvals())
	sn := must1(sel.Nvals())
	pn := must1(app.Nvals())
	fmt.Printf("  A: %d stored; select(my_triu_gt, s=0): %d kept; apply(COLINDEX, s=1): %d rewritten\n", an, sn, pn)
	I, J, X := must3(sel.ExtractTuples())
	for k := range I {
		fmt.Printf("    kept  (%d,%d) = %d\n", I[k], J[k], X[k])
	}
	I, J, Y := must3(app.ExtractTuples())
	for k := 0; k < 3 && k < len(I); k++ {
		fmt.Printf("    apply (%d,%d) -> %d (= col+1)\n", I[k], J[k], Y[k])
	}
}

// table1 exercises the six GrB_Scalar manipulation methods.
func table1() {
	header("Table I — GrB_Scalar manipulation methods")
	s := must1(grb.NewScalar[float64]()) // GrB_Scalar_new
	nv := must1(s.Nvals())               // GrB_Scalar_nvals
	fmt.Printf("  new scalar:            nvals=%d (empty)\n", nv)
	must(s.SetElement(3.25)) // GrB_Scalar_setElement
	v, ok := must2(s.ExtractElement())
	nv = must1(s.Nvals())
	fmt.Printf("  after setElement(3.25): nvals=%d value=%v present=%v\n", nv, v, ok)
	d := must1(s.Dup()) // GrB_Scalar_dup
	dv, dok := must2(d.ExtractElement())
	fmt.Printf("  dup:                    value=%v present=%v\n", dv, dok)
	must(s.Clear()) // GrB_Scalar_clear
	_, ok = must2(s.ExtractElement())
	nv = must1(s.Nvals())
	fmt.Printf("  after clear:            nvals=%d present=%v (dup unaffected: %v)\n", nv, ok, dok)
}

// table2 demonstrates the GrB_Scalar method variants: empty-propagating
// extract, reduce-to-empty-scalar vs. 1.X identity, reduce with BinaryOp,
// assign/apply/select with scalar arguments.
func table2() {
	header("Table II — GrB_Scalar variants of the core methods")
	empty := must1(grb.NewMatrix[int](4, 4))
	s := must1(grb.NewScalar[int]())

	// reduce of an empty matrix: 2.0 scalar variant vs. 1.X typed variant
	must(grb.MatrixReduceToScalar(s, nil, grb.PlusMonoid[int](), empty, nil))
	nv := must1(s.Nvals())
	oldStyle := must1(grb.MatrixReduce(grb.PlusMonoid[int](), empty))
	fmt.Printf("  reduce(empty matrix):   GrB_Scalar output nvals=%d (empty), 1.X typed output=%d (identity)\n", nv, oldStyle)

	// reduce with a plain BinaryOp (no identity needed, new in 2.0)
	m := must1(grb.NewMatrix[int](2, 2))
	must(m.Build([]grb.Index{0, 1}, []grb.Index{1, 0}, []int{7, 8}, nil))
	must(grb.MatrixReduceToScalarBinaryOp(s, nil, grb.Plus[int], m, nil))
	v, _ := must2(s.ExtractElement())
	fmt.Printf("  reduce(BinaryOp +):     %d (monoid-free reduction)\n", v)

	// extractElement into a scalar: missing entry -> empty scalar, no error
	must(m.ExtractElementScalar(s, 0, 0))
	nv = must1(s.Nvals())
	fmt.Printf("  extractElement(miss):   scalar nvals=%d (no NO_VALUE handling needed)\n", nv)

	// setElement from a scalar; assign from a scalar
	sv := must1(grb.ScalarOf(42))
	must(m.SetElementScalar(sv, 0, 0))
	v, _ = must2(m.ExtractElement(0, 0))
	fmt.Printf("  setElement(Scalar 42):  m(0,0)=%d\n", v)
	must(grb.MatrixAssignScalarObj(m, nil, nil, sv, grb.All, grb.All, nil))
	nvm := must1(m.Nvals())
	fmt.Printf("  assign(Scalar 42, all): nvals=%d (dense fill)\n", nvm)

	// apply / select with GrB_Scalar threshold
	w := must1(grb.NewVector[int](5))
	must(w.Build([]grb.Index{0, 2, 4}, []int{1, 5, 9}, nil))
	thr := must1(grb.ScalarOf(4))
	out := must1(grb.NewVector[int](5))
	must(grb.VectorSelectScalar(out, nil, nil, grb.ValueGT[int], w, thr, nil))
	oi, ox := must2(out.ExtractTuples())
	fmt.Printf("  select(VALUEGT, s=4):   kept %v = %v\n", oi, ox)
	es := must1(grb.NewScalar[int]())
	err := grb.VectorSelectScalar(out, nil, nil, grb.ValueGT[int], w, es, nil)
	fmt.Printf("  select(empty Scalar):   error %v (execution error, §V)\n", grb.Code(err))
}

// table3 measures import/export throughput for every non-opaque format plus
// the opaque serializer.
func table3() {
	header("Table III — import/export formats (round-trip on RMAT graph)")
	g := gen.Graph500RMAT(*scale-2, 8, 3)
	a := must1(grb.NewMatrix[float64](g.N, g.N))
	must(a.Build(g.Src, g.Dst, gen.UniformWeights(g, 0, 1, 3), grb.Plus[float64]))
	nv := must1(a.Nvals())
	fmt.Printf("  matrix: %d x %d, %d entries\n", g.N, g.N, nv)
	fmt.Printf("  %-24s %-12s %-12s %s\n", "format", "export", "import", "bytes moved")
	for _, f := range []grb.Format{grb.FormatCSR, grb.FormatCSC, grb.FormatCOO} {
		start := time.Now()
		indptr, indices, values, err := a.MatrixExport(f)
		if err != nil {
			log.Fatal(err)
		}
		exp := time.Since(start)
		start = time.Now()
		if _, err := grb.MatrixImport(g.N, g.N, indptr, indices, values, f); err != nil {
			log.Fatal(err)
		}
		imp := time.Since(start)
		bytes := 8 * (len(indptr) + len(indices) + len(values))
		fmt.Printf("  %-24v %-12v %-12v %d\n", f, exp, imp, bytes)
	}
	// Dense formats on a smaller matrix (quadratic storage).
	small := gen.Graph500RMAT(10, 8, 3)
	sm := must1(grb.NewMatrix[float64](small.N, small.N))
	must(sm.Build(small.Src, small.Dst, gen.UniformWeights(small, 0, 1, 3), grb.Plus[float64]))
	for _, f := range []grb.Format{grb.FormatDenseRow, grb.FormatDenseCol} {
		start := time.Now()
		indptr, indices, values := must3(sm.MatrixExport(f))
		exp := time.Since(start)
		start = time.Now()
		_ = must1(grb.MatrixImport(small.N, small.N, indptr, indices, values, f))
		imp := time.Since(start)
		fmt.Printf("  %-24v %-12v %-12v %d (scale 10)\n", f, exp, imp, 8*len(values))
	}
	start := time.Now()
	blob := must1(a.SerializeBytes())
	ser := time.Since(start)
	start = time.Now()
	_ = must1(grb.MatrixDeserialize[float64](blob))
	des := time.Since(start)
	fmt.Printf("  %-24s %-12v %-12v %d (opaque, §VII-B)\n", "serialize/deserialize", ser, des, len(blob))
}

// table4 runs select with every predefined index unary operator and reports
// the surviving entry counts and timing.
func table4() {
	header("Table IV — predefined index unary operators via select/apply")
	a := rmatFloat(*scale - 2)
	dim := must1(a.Nrows())
	nv := must1(a.Nvals())
	fmt.Printf("  matrix: %d x %d, %d entries\n", dim, dim, nv)
	type entry struct {
		name string
		run  func(c *grb.Matrix[float64]) error
	}
	sMid := dim / 2
	selOps := []entry{
		{"GrB_TRIL(0)", func(c *grb.Matrix[float64]) error { return grb.MatrixSelect(c, nil, nil, grb.TriL[float64], a, 0, nil) }},
		{"GrB_TRIU(0)", func(c *grb.Matrix[float64]) error { return grb.MatrixSelect(c, nil, nil, grb.TriU[float64], a, 0, nil) }},
		{"GrB_DIAG(0)", func(c *grb.Matrix[float64]) error { return grb.MatrixSelect(c, nil, nil, grb.Diag[float64], a, 0, nil) }},
		{"GrB_OFFDIAG(0)", func(c *grb.Matrix[float64]) error {
			return grb.MatrixSelect(c, nil, nil, grb.Offdiag[float64], a, 0, nil)
		}},
		{"GrB_ROWLE(n/2)", func(c *grb.Matrix[float64]) error {
			return grb.MatrixSelect(c, nil, nil, grb.RowLE[float64], a, sMid, nil)
		}},
		{"GrB_ROWGT(n/2)", func(c *grb.Matrix[float64]) error {
			return grb.MatrixSelect(c, nil, nil, grb.RowGT[float64], a, sMid, nil)
		}},
		{"GrB_COLLE(n/2)", func(c *grb.Matrix[float64]) error {
			return grb.MatrixSelect(c, nil, nil, grb.ColLE[float64], a, sMid, nil)
		}},
		{"GrB_COLGT(n/2)", func(c *grb.Matrix[float64]) error {
			return grb.MatrixSelect(c, nil, nil, grb.ColGT[float64], a, sMid, nil)
		}},
		{"GrB_VALUEEQ(1.0)", func(c *grb.Matrix[float64]) error {
			return grb.MatrixSelect(c, nil, nil, grb.ValueEQ[float64], a, 1.0, nil)
		}},
		{"GrB_VALUENE(1.0)", func(c *grb.Matrix[float64]) error {
			return grb.MatrixSelect(c, nil, nil, grb.ValueNE[float64], a, 1.0, nil)
		}},
		{"GrB_VALUELT(1.0)", func(c *grb.Matrix[float64]) error {
			return grb.MatrixSelect(c, nil, nil, grb.ValueLT[float64], a, 1.0, nil)
		}},
		{"GrB_VALUELE(1.0)", func(c *grb.Matrix[float64]) error {
			return grb.MatrixSelect(c, nil, nil, grb.ValueLE[float64], a, 1.0, nil)
		}},
		{"GrB_VALUEGT(1.0)", func(c *grb.Matrix[float64]) error {
			return grb.MatrixSelect(c, nil, nil, grb.ValueGT[float64], a, 1.0, nil)
		}},
		{"GrB_VALUEGE(1.0)", func(c *grb.Matrix[float64]) error {
			return grb.MatrixSelect(c, nil, nil, grb.ValueGE[float64], a, 1.0, nil)
		}},
	}
	fmt.Printf("  %-20s %-10s %s\n", "select operator", "kept", "time")
	for _, e := range selOps {
		c := must1(grb.NewMatrix[float64](dim, dim))
		start := time.Now()
		if err := e.run(c); err != nil {
			log.Fatal(err)
		}
		must(c.Wait(grb.Materialize))
		el := time.Since(start)
		kept := must1(c.Nvals())
		fmt.Printf("  %-20s %-10d %v\n", e.name, kept, el)
	}
	// The three "replace" operators through apply.
	fmt.Printf("  %-20s %-10s %s\n", "apply operator", "entries", "time")
	applyOps := []struct {
		name string
		op   grb.IndexUnaryOp[float64, int, int]
	}{
		{"GrB_ROWINDEX(+1)", grb.RowIndex[float64]},
		{"GrB_COLINDEX(+1)", grb.ColIndex[float64]},
		{"GrB_DIAGINDEX(+0)", grb.DiagIndex[float64]},
	}
	for _, e := range applyOps {
		c := must1(grb.NewMatrix[int](dim, dim))
		start := time.Now()
		if err := grb.MatrixApplyIndexOp(c, nil, nil, e.op, a, 1, nil); err != nil {
			log.Fatal(err)
		}
		must(c.Wait(grb.Materialize))
		el := time.Since(start)
		nvc := must1(c.Nvals())
		fmt.Printf("  %-20s %-10d %v\n", e.name, nvc, el)
	}
}

// ablation reproduces the §II motivation: selecting the strict upper
// triangle natively with an IndexUnaryOp versus the GraphBLAS 1.X
// workaround, where each stored value carries its packed (row, col) indices
// and a user-defined operator unpacks them per scalar.
func ablation() {
	header("§II ablation — native index ops vs. 1.X packed-values workaround")
	fmt.Printf("  %-8s %-14s %-14s %-9s %-14s %s\n", "scale", "native select", "packed select", "ratio", "extra memory", "result equal")
	for _, sc := range []int{*scale - 4, *scale - 2, *scale} {
		g := gen.Graph500RMAT(sc, 16, 5).Symmetrize()
		w := gen.UniformWeights(g, 1, 100, 5)

		// Native: a float64 matrix + TriU select with the 2.0 index op.
		a := must1(grb.NewMatrix[float64](g.N, g.N))
		must(a.Build(g.Src, g.Dst, w, grb.Plus[float64]))
		c := must1(grb.NewMatrix[float64](g.N, g.N))
		start := time.Now()
		must(grb.MatrixSelect(c, nil, nil, grb.TriU[float64], a, 1, nil))
		must(c.Wait(grb.Materialize))
		native := time.Since(start)
		nKept := must1(c.Nvals())

		// 1.X workaround: values are structs carrying (row, col, value); a
		// plain select-style apply must unpack indices from the value.
		type packed struct {
			Row, Col int64
			Val      float64
		}
		pw := make([]packed, len(w))
		for k := range w {
			pw[k] = packed{int64(g.Src[k]), int64(g.Dst[k]), w[k]}
		}
		ap := must1(grb.NewMatrix[packed](g.N, g.N))
		must(ap.Build(g.Src, g.Dst, pw, grb.Second[packed, packed]))
		cp := must1(grb.NewMatrix[packed](g.N, g.N))
		start = time.Now()
		// The "user-defined operator unpacking index values from the values
		// array" the paper describes: ignores the real indices entirely.
		unpackingOp := func(v packed, _, _ grb.Index, _ int) bool { return v.Col > v.Row }
		must(grb.MatrixSelect(cp, nil, nil, unpackingOp, ap, 0, nil))
		must(cp.Wait(grb.Materialize))
		packedTime := time.Since(start)
		pKept := must1(cp.Nvals())

		extra := len(w) * 16 // two packed int64 indices per stored value
		fmt.Printf("  %-8d %-14v %-14v %-9.2f %-14s %v\n",
			sc, native, packedTime, float64(packedTime)/float64(native),
			fmt.Sprintf("%d KiB", extra/1024), nKept == pKept)
	}
	fmt.Println("  (the packed representation streams 2x8 extra bytes per entry and runs the")
	fmt.Println("   unpacking through a user function per scalar — the costs §II calls out)")

	// Algorithm-level comparison: parent BFS with the 2.0 ROWINDEX apply vs.
	// the 1.X host-round-trip workaround (extract tuples / overwrite values /
	// rebuild each iteration).
	ab, _ := rmatBool(*scale - 2)
	start := time.Now()
	if _, err := lagraph.BFSParents(ab, 0); err != nil {
		log.Fatal(err)
	}
	nat := time.Since(start)
	start = time.Now()
	if _, err := lagraph.BFSParentsLegacy(ab, 0); err != nil {
		log.Fatal(err)
	}
	leg := time.Since(start)
	fmt.Printf("  BFS parents: native index op %v, 1.X host round-trip %v (ratio %.2f)\n",
		nat, leg, float64(leg)/float64(nat))
	fmt.Println("  (in-process Go round-trips are cheap at frontier sizes; the paper's")
	fmt.Println("   bandwidth penalty appears when values carry packed indices, above)")
	_ = sort.Ints
}

// hypersparse measures the adaptive hash/dense accumulator selection on a
// workload where the matrix dimension (1e6) dwarfs the entry count (~4e5):
// a dense O(n) accumulator per worker is almost entirely wasted space, and
// the router must pick the hash SPA on its own. Each kernel's wall time,
// row-range routing counts and accumulator scratch are printed side by side.
func hypersparse() {
	header("Hypersparse — adaptive hash/dense accumulator selection")
	const n, nnz = 1_000_000, 400_000
	g := gen.Hypersparse(n, nnz, 7)
	a, err := grb.NewMatrix[float64](g.N, g.N)
	if err != nil {
		log.Fatal(err)
	}
	if err := a.Build(g.Src, g.Dst, gen.UniformWeights(g, 0.5, 2, 7), grb.Plus[float64]); err != nil {
		log.Fatal(err)
	}
	u := must1(grb.NewVector[float64](n))
	for k := 0; k < 1024; k++ {
		must(u.SetElement(1, k*(n/1024)))
	}
	fmt.Printf("  matrix: %d x %d, %d entries; vector: %d entries\n", n, n, g.NumEdges(), 1024)

	// The mxv rows pin DirPull: this section measures the gather-buffer
	// (accumulator) selection, and the direction router would otherwise
	// serve the sparse frontier with the push kernel, which never touches
	// the gather buffer (the traversal section measures that axis).
	kernels := []struct {
		name  string
		desc  *grb.Descriptor
		vdesc *grb.Descriptor
	}{
		{"auto", nil, grb.DescPull},
		{"dense", grb.DescDenseSPA, &grb.Descriptor{AxB: grb.AxBDenseSPA, Dir: grb.DirPull}},
		{"hash", grb.DescHashSPA, &grb.Descriptor{AxB: grb.AxBHashSPA, Dir: grb.DirPull}},
	}
	fmt.Printf("  %-8s %-9s %-12s %-12s %-14s %s\n",
		"kernel", "op", "time", "ranges", "scratch", "(dense/hash routing)")
	for _, tc := range kernels {
		if *kernel != "" && tc.name != *kernel {
			continue
		}
		grb.ResetKernelCounts()
		c := must1(grb.NewMatrix[float64](n, n))
		start := time.Now()
		if err := grb.MxM(c, nil, nil, grb.PlusTimes[float64](), a, a, tc.desc); err != nil {
			log.Fatal(err)
		}
		must(c.Wait(grb.Materialize))
		el := time.Since(start)
		dense, hash := grb.KernelCounts()
		fmt.Printf("  %-8s %-9s %-12v %-12s %-14s\n", tc.name, "mxm", el,
			fmt.Sprintf("%dd/%dh", dense, hash),
			fmt.Sprintf("%d B", grb.KernelScratchBytes()))

		grb.ResetKernelCounts()
		w := must1(grb.NewVector[float64](n))
		start = time.Now()
		if err := grb.MxV(w, nil, nil, grb.PlusTimes[float64](), a, u, tc.vdesc); err != nil {
			log.Fatal(err)
		}
		must(w.Wait(grb.Materialize))
		el = time.Since(start)
		dense, hash = grb.KernelCounts()
		fmt.Printf("  %-8s %-9s %-12v %-12s %-14s\n", tc.name, "mxv", el,
			fmt.Sprintf("%dd/%dh", dense, hash),
			fmt.Sprintf("%d B", grb.KernelScratchBytes()))
	}
	fmt.Println("  (auto must match the hash row: the flop estimate is far below the width,")
	fmt.Println("   so every range routes to the hash SPA and scratch shrinks by orders of")
	fmt.Println("   magnitude; -kernel pins one accumulator for A/B comparisons)")
}

// traversalResult is one measured BFS run, serialized by -json.
type traversalResult struct {
	Graph     string  `json:"graph"`
	Vertices  int     `json:"vertices"`
	Edges     int     `json:"edges"`
	Dir       string  `json:"dir"`
	Seconds   float64 `json:"seconds"`
	Levels    int     `json:"levels"`
	Reached   int     `json:"reached"`
	PushCalls int64   `json:"push_calls"`
	PullCalls int64   `json:"pull_calls"`
	Transpose int64   `json:"transpose_materializations"`
	// Execution-hardening telemetry (nonzero only for the budgeted run).
	BudgetDegrades  int64 `json:"budget_degrades,omitempty"`
	PanicsRecovered int64 `json:"panics_recovered,omitempty"`
	// Serving-layer load results (nonzero only for the serve experiment):
	// request latency percentiles and sustained throughput. Seconds stays 0
	// for these series so the wall-clock tolerance gate skips them — the
	// benchcmp -servemax paired gate owns latency regressions.
	P50Ms float64 `json:"p50_ms,omitempty"`
	P95Ms float64 `json:"p95_ms,omitempty"`
	P99Ms float64 `json:"p99_ms,omitempty"`
	QPS   float64 `json:"qps,omitempty"`
}

// traversal measures direction-optimizing BFS: the identical level-
// synchronous traversal (lagraph.BFSLevelsDir) pinned to push, pinned to
// pull, and left to the adaptive router, on a hypersparse uniform graph and
// a power-law RMAT graph. The per-level kernel routing counters and the
// number of transpose materializations (the pull side runs over the cached
// transpose view, so it must be exactly one per matrix) are printed beside
// the wall times.
func traversal() {
	header("Traversal — direction-optimizing (push/pull) BFS")
	threads := runtime.GOMAXPROCS(0)
	fmt.Printf("  host: %d usable CPUs; default context uses all of them\n", threads)

	type workload struct {
		name string
		a    *grb.Matrix[bool]
		n, m int
	}
	var loads []workload
	{
		g := gen.Hypersparse(200_000, 1_600_000, 11).Symmetrize()
		a, err := grb.NewMatrix[bool](g.N, g.N)
		if err != nil {
			log.Fatal(err)
		}
		if err := a.Build(g.Src, g.Dst, gen.BoolWeights(g), grb.LOr); err != nil {
			log.Fatal(err)
		}
		loads = append(loads, workload{"hypersparse", a, g.N, g.NumEdges()})
	}
	{
		a, g := rmatBool(*scale)
		loads = append(loads, workload{"rmat", a, g.N, g.NumEdges()})
	}

	fmt.Printf("  %-12s %-6s %-12s %-8s %-9s %-12s %s\n",
		"graph", "dir", "time", "levels", "reached", "push/pull", "transpose mats")
	for _, w := range loads {
		var pullTime, autoTime time.Duration
		for _, tc := range []struct {
			name string
			dir  grb.Direction
		}{
			{"push", grb.DirPush},
			{"pull", grb.DirPull},
			{"auto", grb.DirAuto},
		} {
			if *dirFlag != "" && tc.name != *dirFlag {
				continue
			}
			grb.ResetKernelCounts()
			start := time.Now()
			levels, err := lagraph.BFSLevelsDir(w.a, 0, tc.dir)
			if err != nil {
				log.Fatal(err)
			}
			if err := levels.Wait(grb.Materialize); err != nil {
				log.Fatal(err)
			}
			el := time.Since(start)
			push, pull := grb.DirectionCounts()
			tmats := grb.TransposeCount()
			reached := must1(levels.Nvals())
			maxLevel := 0
			if _, lv, err := levels.ExtractTuples(); err == nil {
				for _, l := range lv {
					if l > maxLevel {
						maxLevel = l
					}
				}
			}
			switch tc.name {
			case "pull":
				pullTime = el
			case "auto":
				autoTime = el
			}
			fmt.Printf("  %-12s %-6s %-12v %-8d %-9d %-12s %d\n",
				w.name, tc.name, el, maxLevel+1, reached,
				fmt.Sprintf("%dp/%dg", push, pull), tmats)
			benchResults = append(benchResults, traversalResult{
				Graph: w.name, Vertices: w.n, Edges: w.m, Dir: tc.name,
				Seconds: el.Seconds(), Levels: maxLevel + 1, Reached: reached,
				PushCalls: push, PullCalls: pull, Transpose: tmats,
			})
		}
		if pullTime > 0 && autoTime > 0 {
			fmt.Printf("  %-12s auto vs pull-only: %.2fx\n", w.name, float64(pullTime)/float64(autoTime))
		}
	}
	fmt.Println("  (push scatters frontier edges, pull gathers unvisited rows over the")
	fmt.Println("   cached transpose — materialized once per matrix, hence the final")
	fmt.Println("   column; auto switches per level by frontier density, Beamer-style)")

	// Budgeted rerun: the same traversal inside a context whose memory limit
	// (256 KiB) is far below the transpose the push route needs, so every
	// auto-routed push level degrades to the pull gather instead — the
	// graceful-degradation ladder of the execution-hardening design, measured.
	// The result stays exact; the route changes are counted as
	// budget_degrades, which (with panics_recovered) also lands in the per-op
	// profile written by -json.
	{
		w := loads[len(loads)-1]
		ctx := must1(grb.NewContext(grb.NonBlocking, nil, grb.WithMemoryLimit(256<<10)))
		// A fresh build (not a Dup) so no transpose cached by the unbudgeted
		// runs rides along — the budgeted push route must pay for its own.
		g := gen.Graph500RMAT(*scale, 16, 42).Symmetrize()
		ac := must1(grb.NewMatrix[bool](g.N, g.N, grb.InContext(ctx)))
		must(ac.Build(g.Src, g.Dst, gen.BoolWeights(g), grb.LOr))
		must(ac.Wait(grb.Materialize))
		dim := must1(ac.Nrows())
		desc := &grb.Descriptor{Replace: true, Structure: true, Complement: true, Dir: grb.DirAuto}
		levels := must1(grb.NewVector[int](dim, grb.InContext(ctx)))
		visited := must1(grb.NewVector[bool](dim, grb.InContext(ctx)))
		frontier := must1(grb.NewVector[bool](dim, grb.InContext(ctx)))
		must(frontier.SetElement(true, 0))
		grb.ResetKernelCounts()
		start := time.Now()
		for depth := 0; ; depth++ {
			if must1(frontier.Nvals()) == 0 {
				break
			}
			must(grb.VectorAssignScalar(levels, frontier, nil, depth, grb.All, grb.DescS))
			must(grb.VectorAssignScalar(visited, frontier, nil, true, grb.All, grb.DescS))
			must(grb.MxV(frontier, visited, nil, grb.LOrLAnd(), ac, frontier, desc))
			must(frontier.Wait(grb.Materialize))
		}
		el := time.Since(start)
		degrades, panics := grb.HardeningCounts()
		push, pull := grb.DirectionCounts()
		reached := must1(levels.Nvals())
		maxLevel := 0
		if _, lv, err := levels.ExtractTuples(); err == nil {
			for _, l := range lv {
				if l > maxLevel {
					maxLevel = l
				}
			}
		}
		fmt.Printf("  %-12s %-6s %-12v %-8d %-9d %-12s degrades=%d panics=%d\n",
			w.name, "budget", el, maxLevel+1, reached,
			fmt.Sprintf("%dp/%dg", push, pull), degrades, panics)
		fmt.Println("  (budget run: 256 KiB context limit — the push route's transpose no")
		fmt.Println("   longer fits, so the router falls back to pull per level instead of")
		fmt.Println("   failing; degrades counts those budget-forced route changes)")
		benchResults = append(benchResults, traversalResult{
			Graph: w.name, Vertices: w.n, Edges: w.m, Dir: "budget",
			Seconds: el.Seconds(), Levels: maxLevel + 1, Reached: reached,
			PushCalls: push, PullCalls: pull,
			BudgetDegrades: degrades, PanicsRecovered: panics,
		})
		must(ctx.Free())
	}
}

// denseKernels measures the monomorphized hot-semiring loop bodies against
// the closure loop bodies on block-format operands, single-threaded so the
// ratio certifies per-core kernel quality rather than parallel scaling. Two
// workloads: a PageRank-style power iteration (PLUS/TIMES float64 pull SpMV
// over a full rank vector, the canonical dense-frontier case) and a
// saturated-frontier BFS step (LOR/LAND pull over an all-true frontier,
// where the monomorphized loop also short-circuits on the first hit). The
// Spec descriptor pin selects the loop body per run. Each (workload, spec) pair lands in -json as a
// (graph, mono|closure) series; cmd/benchcmp -monomin turns the pair ratio
// into a CI gate.
func denseKernels() {
	header("Dense — monomorphized hot-semiring kernels vs closure kernels")
	ctx := must1(grb.NewContext(grb.NonBlocking, nil, grb.WithThreads(1)))

	a := rmatFloat(*scale)
	must(a.SwitchContext(ctx))
	dim := must1(a.Nrows())
	nnz := must1(a.Nvals())
	ab, g := rmatBool(*scale)
	must(ab.SwitchContext(ctx))

	const iters = 12
	fmt.Printf("  scale=%d: n=%d nnz=%d, %d iterations per timing, 1 thread\n",
		*scale, int(dim), nnz, iters)
	fmt.Printf("  %-14s %-8s %-12s %-11s %s\n", "workload", "spec", "time", "mono/clos", "conversions")

	ind := make([]grb.Index, dim)
	for i := range ind {
		ind[i] = grb.Index(i)
	}
	fill := func(x float64) *grb.Vector[float64] {
		val := make([]float64, dim)
		for i := range val {
			val[i] = x
		}
		v := must1(grb.NewVector[float64](dim, grb.InContext(ctx)))
		must(v.Build(ind, val, nil))
		must(v.Wait(grb.Materialize))
		return v
	}

	// pagerank: r' = 0.85·(A r) ⊕ teleport. The teleport vector is full, so
	// the eWiseAdd union keeps r full and every pull SpMV sees a dense
	// frontier. The damping apply and the add are identical work on both
	// sides; the measured gap is the SpMV kernel tier.
	damp := func(x, y float64) float64 { return 0.85*x + y }
	pagerank := func(spec grb.SpecMode) (time.Duration, int64, int64, int64) {
		r := fill(1 / float64(dim))
		tele := fill(0.15 / float64(dim))
		w := must1(grb.NewVector[float64](dim, grb.InContext(ctx)))
		desc := &grb.Descriptor{Dir: grb.DirPull, Spec: spec}
		grb.ResetKernelCounts()
		start := time.Now()
		for it := 0; it < iters; it++ {
			must(grb.MxV(w, nil, nil, grb.PlusTimes[float64](), a, r, desc))
			must(grb.EWiseAddVector(r, nil, nil, damp, w, tele, nil))
			must(r.Wait(grb.Materialize))
		}
		el := time.Since(start)
		mono, clos := grb.MonoKernelCounts()
		return el, mono, clos, grb.FormatConversionCount()
	}

	// bfs-sat: the steady state of a direction-optimized BFS once the
	// frontier saturates — every position set, so the pull gather walks full
	// rows and the LOR monoid can stop at the first true product.
	bfsSat := func(spec grb.SpecMode) (time.Duration, int64, int64, int64) {
		f := must1(grb.NewVector[bool](dim, grb.InContext(ctx)))
		tv := make([]bool, dim)
		for i := range tv {
			tv[i] = true
		}
		must(f.Build(ind, tv, nil))
		must(f.Wait(grb.Materialize))
		w := must1(grb.NewVector[bool](dim, grb.InContext(ctx)))
		desc := &grb.Descriptor{Dir: grb.DirPull, Spec: spec}
		grb.ResetKernelCounts()
		start := time.Now()
		for it := 0; it < iters; it++ {
			must(grb.MxV(w, nil, nil, grb.LOrLAnd(), ab, f, desc))
			must(w.Wait(grb.Materialize))
		}
		el := time.Since(start)
		mono, clos := grb.MonoKernelCounts()
		return el, mono, clos, grb.FormatConversionCount()
	}

	for _, wl := range []struct {
		name  string
		edges int
		run   func(grb.SpecMode) (time.Duration, int64, int64, int64)
	}{
		{"pagerank", int(nnz), pagerank},
		{"bfs-sat", g.NumEdges(), bfsSat},
	} {
		var monoTime, closTime time.Duration
		for _, tc := range []struct {
			name string
			spec grb.SpecMode
		}{
			{"mono", grb.SpecMono},
			{"closure", grb.SpecGeneric},
		} {
			// Best of three repetitions: the mono loops finish in a few
			// milliseconds, where scheduler noise on a shared host easily
			// doubles a single sample.
			el, mono, clos, conv := wl.run(tc.spec)
			for rep := 0; rep < 2; rep++ {
				if el2, _, _, _ := wl.run(tc.spec); el2 < el {
					el = el2
				}
			}
			fmt.Printf("  %-14s %-8s %-12v %-11s %d\n",
				wl.name, tc.name, el, fmt.Sprintf("%dm/%dc", mono, clos), conv)
			if tc.name == "mono" {
				monoTime = el
			} else {
				closTime = el
			}
			benchResults = append(benchResults, traversalResult{
				Graph: wl.name, Vertices: int(dim), Edges: wl.edges,
				Dir: tc.name, Seconds: el.Seconds(),
			})
		}
		if monoTime > 0 {
			fmt.Printf("  %-14s closure/mono speedup: %.2fx\n", wl.name, float64(closTime)/float64(monoTime))
		}
	}
	fmt.Println("  (spec pins the loop body per run: mono plugs the monomorphized")
	fmt.Println("   direct-arithmetic loop into the pull scaffold, closure keeps the")
	fmt.Println("   closure loop; both gather through the same cached block view)")
	must(ctx.Free())
}

// must aborts on an unexpected error from a grb call; grblint (infocheck)
// forbids discarding these silently.
func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// must1 unwraps a (value, error) grb result, aborting on error.
func must1[A any](a A, err error) A { must(err); return a }

// must2 unwraps a (value, value, error) grb result, aborting on error.
func must2[A, B any](a A, b B, err error) (A, B) { must(err); return a, b }

// must3 unwraps a (value, value, value, error) grb result, aborting on error.
func must3[A, B, C any](a A, b B, c C, err error) (A, B, C) { must(err); return a, b, c }
