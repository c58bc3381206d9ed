package grb_test

// Benchmarks regenerating the artifacts of "Introduction to GraphBLAS 2.0":
// one benchmark (or benchmark family) per figure and table of the paper,
// plus the §II ablation and core-kernel baselines. Run with
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for the paper-vs-measured record.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	grb "github.com/grblas/grb"
	"github.com/grblas/grb/gen"
	"github.com/grblas/grb/lagraph"
)

const benchScale = 12

// benchInit makes sure the library is initialized exactly once for the
// benchmark half of the test binary.
func benchInit(b *testing.B) {
	b.Helper()
	if _, err := grb.GlobalContext(); err != nil {
		if err := grb.Init(grb.NonBlocking); err != nil {
			b.Fatal(err)
		}
	}
}

var benchGraphs sync.Map // scale -> gen.Graph

func benchGraph(scale int) gen.Graph {
	if g, ok := benchGraphs.Load(scale); ok {
		return g.(gen.Graph)
	}
	g := gen.Graph500RMAT(scale, 16, 42).Symmetrize()
	benchGraphs.Store(scale, g)
	return g
}

func benchBoolMatrix(b *testing.B, scale int) *grb.Matrix[bool] {
	b.Helper()
	g := benchGraph(scale)
	a, err := grb.NewMatrix[bool](g.N, g.N)
	if err != nil {
		b.Fatal(err)
	}
	if err := a.Build(g.Src, g.Dst, gen.BoolWeights(g), grb.LOr); err != nil {
		b.Fatal(err)
	}
	return a
}

func benchFloatMatrix(b *testing.B, scale int) *grb.Matrix[float64] {
	b.Helper()
	g := benchGraph(scale)
	a, err := grb.NewMatrix[float64](g.N, g.N)
	if err != nil {
		b.Fatal(err)
	}
	if err := a.Build(g.Src, g.Dst, gen.UniformWeights(g, 0.5, 2, 42), grb.Plus[float64]); err != nil {
		b.Fatal(err)
	}
	return a
}

// ---------------------------------------------------------------------------
// Figure 1 — multithreaded sequences sharing a matrix through
// Wait(COMPLETE) + release/acquire.
// ---------------------------------------------------------------------------

func fig1Pipelines(b *testing.B, a *grb.Matrix[float64], concurrent bool) {
	dim := ck1(a.Nrows())
	for i := 0; i < b.N; i++ {
		esh := ck1(grb.NewMatrix[float64](dim, dim))
		var flag atomic.Int32
		var wg sync.WaitGroup
		wg.Add(2)
		t0 := func() {
			defer wg.Done()
			c := ck1(grb.NewMatrix[float64](dim, dim))
			ck(grb.MxM(c, nil, nil, grb.PlusTimes[float64](), a, a, nil))
			ck(grb.MxM(esh, nil, nil, grb.PlusTimes[float64](), a, c, nil))
			ck(esh.Wait(grb.Complete))
			flag.Store(1)
		}
		t1 := func() {
			defer wg.Done()
			g := ck1(grb.NewMatrix[float64](dim, dim))
			ck(grb.MxM(g, nil, nil, grb.PlusTimes[float64](), a, a, nil))
			ck(g.Wait(grb.Complete))
			for flag.Load() == 0 {
			}
			h := ck1(grb.NewMatrix[float64](dim, dim))
			ck(grb.MxM(h, nil, nil, grb.PlusTimes[float64](), g, esh, nil))
			ck(h.Wait(grb.Complete))
		}
		if concurrent {
			go t0()
			go t1()
		} else {
			t0()
			t1()
		}
		wg.Wait()
	}
}

func BenchmarkFig1_SharedSequencesSequential(b *testing.B) {
	benchInit(b)
	a := benchFloatMatrix(b, benchScale-4)
	b.ResetTimer()
	fig1Pipelines(b, a, false)
}

func BenchmarkFig1_SharedSequencesConcurrent(b *testing.B) {
	benchInit(b)
	a := benchFloatMatrix(b, benchScale-4)
	b.ResetTimer()
	fig1Pipelines(b, a, true)
}

// ---------------------------------------------------------------------------
// Figure 2 — hierarchical contexts bounding mxm parallelism.
// ---------------------------------------------------------------------------

func BenchmarkFig2_ContextThreads(b *testing.B) {
	benchInit(b)
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			ctx, err := grb.NewContext(grb.NonBlocking, nil, grb.WithThreads(threads), grb.WithTestChunk(1))
			if err != nil {
				b.Fatal(err)
			}
			defer func() { ck(ctx.Free()) }()
			a := benchFloatMatrix(b, benchScale-2)
			if err := a.SwitchContext(ctx); err != nil {
				b.Fatal(err)
			}
			dim := ck1(a.Nrows())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := ck1(grb.NewMatrix[float64](dim, dim, grb.InContext(ctx)))
				if err := grb.MxM(c, nil, nil, grb.PlusTimes[float64](), a, a, nil); err != nil {
					b.Fatal(err)
				}
				if err := c.Wait(grb.Materialize); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 3 — select and apply with index unary operators.
// ---------------------------------------------------------------------------

func BenchmarkFig3_SelectUserTriuGT(b *testing.B) {
	benchInit(b)
	a := benchFloatMatrix(b, benchScale)
	dim := ck1(a.Nrows())
	myTriuGT := func(v float64, row, col grb.Index, s float64) bool { return col > row && v > s }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := ck1(grb.NewMatrix[float64](dim, dim))
		if err := grb.MatrixSelect(c, nil, nil, myTriuGT, a, 1.0, nil); err != nil {
			b.Fatal(err)
		}
		if err := c.Wait(grb.Materialize); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3_ApplyColIndex(b *testing.B) {
	benchInit(b)
	a := benchFloatMatrix(b, benchScale)
	dim := ck1(a.Nrows())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := ck1(grb.NewMatrix[int](dim, dim))
		if err := grb.MatrixApplyIndexOp(c, nil, nil, grb.ColIndex[float64], a, 1, nil); err != nil {
			b.Fatal(err)
		}
		if err := c.Wait(grb.Materialize); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Table I — GrB_Scalar manipulation methods.
// ---------------------------------------------------------------------------

func BenchmarkTableI_ScalarLifecycle(b *testing.B) {
	benchInit(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := ck1(grb.NewScalar[float64]())
		ck(s.SetElement(float64(i)))
		d := ck1(s.Dup())
		_, _ = ck2(d.ExtractElement())
		_ = ck1(d.Nvals())
		ck(s.Clear())
	}
}

// ---------------------------------------------------------------------------
// Table II — GrB_Scalar variants (reduce shown; the costly path).
// ---------------------------------------------------------------------------

func BenchmarkTableII_ReduceToScalarMonoid(b *testing.B) {
	benchInit(b)
	a := benchFloatMatrix(b, benchScale)
	s := ck1(grb.NewScalar[float64]())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := grb.MatrixReduceToScalar(s, nil, grb.PlusMonoid[float64](), a, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII_ReduceToScalarBinaryOp(b *testing.B) {
	benchInit(b)
	a := benchFloatMatrix(b, benchScale)
	s := ck1(grb.NewScalar[float64]())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := grb.MatrixReduceToScalarBinaryOp(s, nil, grb.Plus[float64], a, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII_AssignScalarObj(b *testing.B) {
	benchInit(b)
	a := benchFloatMatrix(b, benchScale-4)
	dim := ck1(a.Nrows())
	sv := ck1(grb.ScalarOf(3.5))
	rows := make([]grb.Index, dim/4)
	for k := range rows {
		rows[k] = k * 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := ck1(a.Dup())
		if err := grb.MatrixAssignScalarObj(c, nil, nil, sv, rows, rows, nil); err != nil {
			b.Fatal(err)
		}
		if err := c.Wait(grb.Materialize); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Table III — import/export formats and the opaque serializer.
// ---------------------------------------------------------------------------

func BenchmarkTableIII_Export(b *testing.B) {
	benchInit(b)
	for _, f := range []grb.Format{grb.FormatCSR, grb.FormatCSC, grb.FormatCOO} {
		b.Run(f.String(), func(b *testing.B) {
			a := benchFloatMatrix(b, benchScale)
			np, ni, nv, err := a.MatrixExportSize(f)
			if err != nil {
				b.Fatal(err)
			}
			indptr := make([]grb.Index, np)
			indices := make([]grb.Index, ni)
			values := make([]float64, nv)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.MatrixExportInto(f, indptr, indices, values); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, f := range []grb.Format{grb.FormatDenseRow, grb.FormatDenseCol} {
		b.Run(f.String(), func(b *testing.B) {
			a := benchFloatMatrix(b, 9) // dense buffers are quadratic
			np, ni, nv := ck3(a.MatrixExportSize(f))
			indptr := make([]grb.Index, np)
			indices := make([]grb.Index, ni)
			values := make([]float64, nv)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.MatrixExportInto(f, indptr, indices, values); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTableIII_Import(b *testing.B) {
	benchInit(b)
	for _, f := range []grb.Format{grb.FormatCSR, grb.FormatCSC, grb.FormatCOO} {
		b.Run(f.String(), func(b *testing.B) {
			a := benchFloatMatrix(b, benchScale)
			dim := ck1(a.Nrows())
			indptr, indices, values, err := a.MatrixExport(f)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := grb.MatrixImport(dim, dim, indptr, indices, values, f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTableIII_SerializeDeserialize(b *testing.B) {
	benchInit(b)
	a := benchFloatMatrix(b, benchScale)
	blob, err := a.SerializeBytes()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serialize", func(b *testing.B) {
		buf := make([]byte, len(blob))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.Serialize(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("deserialize", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := grb.MatrixDeserialize[float64](blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Table IV — predefined index unary operators through select.
// ---------------------------------------------------------------------------

func BenchmarkTableIV_Select(b *testing.B) {
	benchInit(b)
	a := benchFloatMatrix(b, benchScale)
	dim := ck1(a.Nrows())
	cases := []struct {
		name string
		run  func(c *grb.Matrix[float64]) error
	}{
		{"TRIL", func(c *grb.Matrix[float64]) error { return grb.MatrixSelect(c, nil, nil, grb.TriL[float64], a, 0, nil) }},
		{"TRIU", func(c *grb.Matrix[float64]) error { return grb.MatrixSelect(c, nil, nil, grb.TriU[float64], a, 0, nil) }},
		{"DIAG", func(c *grb.Matrix[float64]) error { return grb.MatrixSelect(c, nil, nil, grb.Diag[float64], a, 0, nil) }},
		{"OFFDIAG", func(c *grb.Matrix[float64]) error {
			return grb.MatrixSelect(c, nil, nil, grb.Offdiag[float64], a, 0, nil)
		}},
		{"ROWLE", func(c *grb.Matrix[float64]) error {
			return grb.MatrixSelect(c, nil, nil, grb.RowLE[float64], a, dim/2, nil)
		}},
		{"ROWGT", func(c *grb.Matrix[float64]) error {
			return grb.MatrixSelect(c, nil, nil, grb.RowGT[float64], a, dim/2, nil)
		}},
		{"COLLE", func(c *grb.Matrix[float64]) error {
			return grb.MatrixSelect(c, nil, nil, grb.ColLE[float64], a, dim/2, nil)
		}},
		{"COLGT", func(c *grb.Matrix[float64]) error {
			return grb.MatrixSelect(c, nil, nil, grb.ColGT[float64], a, dim/2, nil)
		}},
		{"VALUEEQ", func(c *grb.Matrix[float64]) error {
			return grb.MatrixSelect(c, nil, nil, grb.ValueEQ[float64], a, 1, nil)
		}},
		{"VALUENE", func(c *grb.Matrix[float64]) error {
			return grb.MatrixSelect(c, nil, nil, grb.ValueNE[float64], a, 1, nil)
		}},
		{"VALUELT", func(c *grb.Matrix[float64]) error {
			return grb.MatrixSelect(c, nil, nil, grb.ValueLT[float64], a, 1, nil)
		}},
		{"VALUELE", func(c *grb.Matrix[float64]) error {
			return grb.MatrixSelect(c, nil, nil, grb.ValueLE[float64], a, 1, nil)
		}},
		{"VALUEGT", func(c *grb.Matrix[float64]) error {
			return grb.MatrixSelect(c, nil, nil, grb.ValueGT[float64], a, 1, nil)
		}},
		{"VALUEGE", func(c *grb.Matrix[float64]) error {
			return grb.MatrixSelect(c, nil, nil, grb.ValueGE[float64], a, 1, nil)
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := ck1(grb.NewMatrix[float64](dim, dim))
				if err := tc.run(c); err != nil {
					b.Fatal(err)
				}
				if err := c.Wait(grb.Materialize); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTableIV_Apply(b *testing.B) {
	benchInit(b)
	a := benchFloatMatrix(b, benchScale)
	dim := ck1(a.Nrows())
	cases := []struct {
		name string
		op   grb.IndexUnaryOp[float64, int, int]
	}{
		{"ROWINDEX", grb.RowIndex[float64]},
		{"COLINDEX", grb.ColIndex[float64]},
		{"DIAGINDEX", grb.DiagIndex[float64]},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := ck1(grb.NewMatrix[int](dim, dim))
				if err := grb.MatrixApplyIndexOp(c, nil, nil, tc.op, a, 1, nil); err != nil {
					b.Fatal(err)
				}
				if err := c.Wait(grb.Materialize); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// §II ablation — native index access vs. packing indices into values.
// ---------------------------------------------------------------------------

type packedEntry struct {
	Row, Col int64
	Val      float64
}

func BenchmarkAblation_SelectTriu_NativeIndexOp(b *testing.B) {
	benchInit(b)
	a := benchFloatMatrix(b, benchScale)
	dim := ck1(a.Nrows())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := ck1(grb.NewMatrix[float64](dim, dim))
		if err := grb.MatrixSelect(c, nil, nil, grb.TriU[float64], a, 1, nil); err != nil {
			b.Fatal(err)
		}
		if err := c.Wait(grb.Materialize); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_SelectTriu_PackedValues(b *testing.B) {
	benchInit(b)
	g := benchGraph(benchScale)
	w := gen.UniformWeights(g, 0.5, 2, 42)
	pw := make([]packedEntry, len(w))
	for k := range w {
		pw[k] = packedEntry{int64(g.Src[k]), int64(g.Dst[k]), w[k]}
	}
	a := ck1(grb.NewMatrix[packedEntry](g.N, g.N))
	if err := a.Build(g.Src, g.Dst, pw, grb.Second[packedEntry, packedEntry]); err != nil {
		b.Fatal(err)
	}
	unpacking := func(v packedEntry, _, _ grb.Index, _ int) bool { return v.Col > v.Row }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := ck1(grb.NewMatrix[packedEntry](g.N, g.N))
		if err := grb.MatrixSelect(c, nil, nil, unpacking, a, 0, nil); err != nil {
			b.Fatal(err)
		}
		if err := c.Wait(grb.Materialize); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_ApplyRowIndex_Native(b *testing.B) {
	benchInit(b)
	a := benchFloatMatrix(b, benchScale)
	dim := ck1(a.Nrows())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := ck1(grb.NewMatrix[int](dim, dim))
		if err := grb.MatrixApplyIndexOp(c, nil, nil, grb.RowIndex[float64], a, 0, nil); err != nil {
			b.Fatal(err)
		}
		if err := c.Wait(grb.Materialize); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_ApplyRowIndex_PackedValues(b *testing.B) {
	benchInit(b)
	g := benchGraph(benchScale)
	w := gen.UniformWeights(g, 0.5, 2, 42)
	pw := make([]packedEntry, len(w))
	for k := range w {
		pw[k] = packedEntry{int64(g.Src[k]), int64(g.Dst[k]), w[k]}
	}
	a := ck1(grb.NewMatrix[packedEntry](g.N, g.N))
	if err := a.Build(g.Src, g.Dst, pw, grb.Second[packedEntry, packedEntry]); err != nil {
		b.Fatal(err)
	}
	unpack := func(v packedEntry) int { return int(v.Row) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := ck1(grb.NewMatrix[int](g.N, g.N))
		if err := grb.MatrixApply(c, nil, nil, unpack, a, nil); err != nil {
			b.Fatal(err)
		}
		if err := c.Wait(grb.Materialize); err != nil {
			b.Fatal(err)
		}
	}
}

// Algorithm-level ablation: parent BFS with the 2.0 ROWINDEX apply versus
// the 1.X host-round-trip workaround (extract tuples, copy indices over
// values, rebuild).
func BenchmarkAblation_BFSParents_NativeIndexOp(b *testing.B) {
	benchInit(b)
	a := benchBoolMatrix(b, benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lagraph.BFSParents(a, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_BFSParents_LegacyPacked(b *testing.B) {
	benchInit(b)
	a := benchBoolMatrix(b, benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bfsParentsLegacy(a, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// bfsParentsLegacy computes the same parent vector as lagraph.BFSParents but
// the way a GraphBLAS 1.X program had to: without index-unary operators there
// is no in-library way to replace a frontier's values with their own
// indices, so each iteration round-trips the wavefront through host memory
// — extract the tuples, overwrite the values array with the indices, and
// rebuild the vector. This is the §II motivation of the GraphBLAS 2.0 paper
// made concrete at algorithm level ("those index values were stored in the
// values array ... the same information is stored and streamed twice"). It
// lives here, beside the one benchmark that measures it, and not in lagraph.
func bfsParentsLegacy(a *grb.Matrix[bool], src grb.Index) (*grb.Vector[int], error) {
	n, err := a.Nrows()
	if err != nil {
		return nil, err
	}
	ctx, err := a.Context()
	if err != nil {
		return nil, err
	}
	opt := grb.InContext(ctx)
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
		if err := grb.VectorAssign(parents, wmask, nil, wavefront, grb.All, grb.DescS); err != nil {
			return nil, err
		}
		// The 1.X workaround: unload the wavefront into host arrays, copy
		// the index array over the values array, and reload. (GraphBLAS 2.0
		// replaces these three steps with one apply(ROWINDEX).)
		idx, _, err := wavefront.ExtractTuples()
		if err != nil {
			return nil, err
		}
		vals := make([]int, len(idx))
		copy(vals, idx) // the duplicated stream §II describes
		if err := wavefront.Clear(); err != nil {
			return nil, err
		}
		if err := wavefront.Build(idx, vals, nil); err != nil {
			return nil, err
		}
		pmask, err := grb.AsVectorMaskFunc(parents, func(int) bool { return true })
		if err != nil {
			return nil, err
		}
		if err := grb.VxM(wavefront, pmask, nil, minFirst, wavefront, a, grb.DescRSC); err != nil {
			return nil, err
		}
	}
	return parents, nil
}

// The packed path is only a fair ablation if it computes what the native one
// does: same reach, same parent for every vertex.
func TestBFSParentsLegacyAgreesWithNative(t *testing.T) {
	initNonblocking(t)
	g := gen.Graph500RMAT(8, 8, 77).Symmetrize()
	a := ck1(grb.NewMatrix[bool](g.N, g.N))
	ck(a.Build(g.Src, g.Dst, gen.BoolWeights(g), grb.LOr))
	for _, src := range []int{0, 3} {
		native, err := lagraph.BFSParents(a, src)
		if err != nil {
			t.Fatal(err)
		}
		legacy, err := bfsParentsLegacy(a, src)
		if err != nil {
			t.Fatal(err)
		}
		ni, nx := ck2(native.ExtractTuples())
		li, lx := ck2(legacy.ExtractTuples())
		if len(ni) != len(li) {
			t.Fatalf("src %d: reach %d vs %d", src, len(ni), len(li))
		}
		for k := range ni {
			if ni[k] != li[k] || nx[k] != lx[k] {
				t.Fatalf("src %d: parent(%d) native %d legacy %d", src, ni[k], nx[k], lx[k])
			}
		}
	}
}

// ssspFullRounds is lagraph.SSSP as it stood before the frontier: every round
// multiplies all of d and the loop stops at the first round that changes
// nothing, pattern and values compared with != — the oracle the frontier
// form must match bit for bit, and in whether it converges.
func ssspFullRounds(a *grb.Matrix[float64], src int) (*grb.Vector[float64], error) {
	n, err := a.Nrows()
	if err != nil {
		return nil, err
	}
	ctx, err := a.Context()
	if err != nil {
		return nil, err
	}
	d, err := grb.NewVector[float64](n, grb.InContext(ctx))
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

// ssspWeighted builds the weighted adjacency matrix of g.
func ssspWeighted(g gen.Graph, w []float64) *grb.Matrix[float64] {
	a := ck1(grb.NewMatrix[float64](g.N, g.N))
	if g.NumEdges() > 0 {
		ck(a.Build(g.Src, g.Dst, w, grb.Plus[float64]))
	}
	return a
}

// sameSSSP runs lagraph.SSSP and the full-round oracle from src and fails
// unless both converge to the same pattern and the same bits, or both report
// InvalidValue.
func sameSSSP(t *testing.T, name string, a *grb.Matrix[float64], src int) *grb.Vector[float64] {
	t.Helper()
	got, gerr := lagraph.SSSP(a, src)
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

// TestSSSPFrontierMatchesFullRounds holds lagraph.SSSP's frontier iteration
// to the full-round Bellman-Ford it replaced, through math.Float64bits, at
// one, two and four threads (chunk 1, so the products do fork), on generated
// graphs with zero weights, with negative weights but no negative cycle
// (integer weights w(i,j) + p(i) - p(j), exact in float64, cycle sums those of
// w ≥ 0), and with +Inf weights — where a vertex reached only through a +Inf
// edge keeps a stored +Inf.
func TestSSSPFrontierMatchesFullRounds(t *testing.T) {
	initNonblocking(t)
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
		ctx := ck1(grb.NewContext(grb.NonBlocking, nil, grb.WithThreads(threads), grb.WithTestChunk(1)))
		for _, b := range graphs {
			a := ck1(ssspWeighted(b.g, b.w).ViewInContext(ctx))
			for _, src := range []int{0, b.g.N / 3, b.g.N - 1} {
				sameSSSP(t, b.name, a, src)
			}
		}
		d := sameSSSP(t, "+Inf only", ck1(ssspWeighted(lone, graphs[len(graphs)-1].w).ViewInContext(ctx)), 0)
		if v, ok := ck2(d.ExtractElement(5)); !ok || !math.IsInf(v, 1) {
			t.Fatalf("threads %d: the vertex behind the +Inf edge has d = %v, stored %v; want a stored +Inf", threads, v, ok)
		}
		ck(ctx.Free())
	}
}

// TestSSSPNaN pins what a NaN does to lagraph.SSSP, as the full-round
// iteration decided it: a NaN distance compares unequal to itself, so a run
// that stores one never converges and reports InvalidValue — whether the NaN
// comes from a NaN weight or from +Inf + -Inf, and whether or not the frontier
// could empty around it (a NaN vertex with no way back to itself). A NaN
// product that the fold order discards never becomes a distance, and the run
// converges as before.
func TestSSSPNaN(t *testing.T) {
	initNonblocking(t)
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
		a := ssspWeighted(tc.g, tc.w)
		_, err := lagraph.SSSP(a, tc.src)
		if converged := err == nil; converged != tc.converge {
			t.Fatalf("%s: SSSP error %v, want converged = %v", tc.name, err, tc.converge)
		}
		if d := sameSSSP(t, tc.name, a, tc.src); tc.converge && d == nil {
			t.Fatalf("%s: no distances", tc.name)
		}
	}
}

// ---------------------------------------------------------------------------
// §III thread safety — independent method calls from many goroutines.
// ---------------------------------------------------------------------------

func BenchmarkThreadSafety_IndependentPipelines(b *testing.B) {
	benchInit(b)
	a := benchFloatMatrix(b, benchScale-4)
	dim := ck1(a.Nrows())
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c := ck1(grb.NewMatrix[float64](dim, dim))
			if err := grb.MxM(c, nil, nil, grb.PlusTimes[float64](), a, a, nil); err != nil {
				b.Fatal(err)
			}
			if err := c.Wait(grb.Materialize); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Core-kernel and algorithm baselines.
// ---------------------------------------------------------------------------

func BenchmarkCore_MxM(b *testing.B) {
	benchInit(b)
	a := benchFloatMatrix(b, benchScale-2)
	dim := ck1(a.Nrows())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := ck1(grb.NewMatrix[float64](dim, dim))
		ck(grb.MxM(c, nil, nil, grb.PlusTimes[float64](), a, a, nil))
		ck(c.Wait(grb.Materialize))
	}
}

func BenchmarkCore_MxMMasked(b *testing.B) {
	benchInit(b)
	a := benchFloatMatrix(b, benchScale-2)
	dim := ck1(a.Nrows())
	mask, err := grb.AsMask(a)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := ck1(grb.NewMatrix[float64](dim, dim))
		ck(grb.MxM(c, mask, nil, grb.PlusTimes[float64](), a, a, grb.DescS))
		ck(c.Wait(grb.Materialize))
	}
}

func BenchmarkCore_MxV(b *testing.B) {
	benchInit(b)
	a := benchFloatMatrix(b, benchScale)
	dim := ck1(a.Nrows())
	u := ck1(grb.NewVector[float64](dim))
	ck(grb.VectorAssignScalar(u, nil, nil, 1.0, grb.All, nil))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := ck1(grb.NewVector[float64](dim))
		ck(grb.MxV(w, nil, nil, grb.PlusTimes[float64](), a, u, nil))
		ck(w.Wait(grb.Materialize))
	}
}

func BenchmarkCore_VxMSparseFrontier(b *testing.B) {
	benchInit(b)
	a := benchFloatMatrix(b, benchScale)
	dim := ck1(a.Nrows())
	u := ck1(grb.NewVector[float64](dim))
	for k := 0; k < 32; k++ {
		ck(u.SetElement(1, k*dim/32))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := ck1(grb.NewVector[float64](dim))
		ck(grb.VxM(w, nil, nil, grb.PlusTimes[float64](), u, a, nil))
		ck(w.Wait(grb.Materialize))
	}
}

func BenchmarkCore_EWiseAdd(b *testing.B) {
	benchInit(b)
	a := benchFloatMatrix(b, benchScale)
	dim := ck1(a.Nrows())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := ck1(grb.NewMatrix[float64](dim, dim))
		ck(grb.EWiseAddMatrix(c, nil, nil, grb.Plus[float64], a, a, nil))
		ck(c.Wait(grb.Materialize))
	}
}

func BenchmarkCore_Transpose(b *testing.B) {
	benchInit(b)
	a := benchFloatMatrix(b, benchScale)
	dim := ck1(a.Nrows())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := ck1(grb.NewMatrix[float64](dim, dim))
		ck(grb.Transpose(c, nil, nil, a, nil))
		ck(c.Wait(grb.Materialize))
	}
}

func BenchmarkAlgo_BFSLevels(b *testing.B) {
	benchInit(b)
	a := benchBoolMatrix(b, benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lagraph.BFSLevels(a, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgo_BFSParents(b *testing.B) {
	benchInit(b)
	a := benchBoolMatrix(b, benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lagraph.BFSParents(a, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgo_PageRank(b *testing.B) {
	benchInit(b)
	a := benchFloatMatrix(b, benchScale-2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lagraph.PageRank(a, 0.85, 1e-6, 50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgo_TriangleCount(b *testing.B) {
	benchInit(b)
	a := benchBoolMatrix(b, benchScale-2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lagraph.TriangleCount(a); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Hypersparse regime — adaptive hash/dense accumulator selection. n is far
// larger than nnz, so a dense O(n) accumulator per worker is almost entirely
// wasted; the adaptive router must pick the hash SPA, and each benchmark
// fails (via KernelCounts) unless every range did. The dense-vs-hash gap
// itself is BenchmarkPullGatherPair's (internal/sparse), which pins both.
// ---------------------------------------------------------------------------

const (
	hyperN   = 1 << 20
	hyperNNZ = 400_000
)

func benchHypersparseMatrix(b *testing.B) *grb.Matrix[float64] {
	b.Helper()
	g := gen.Hypersparse(hyperN, hyperNNZ, 1234)
	a, err := grb.NewMatrix[float64](g.N, g.N)
	if err != nil {
		b.Fatal(err)
	}
	if err := a.Build(g.Src, g.Dst, gen.UniformWeights(g, 0.5, 2, 99), grb.Plus[float64]); err != nil {
		b.Fatal(err)
	}
	return a
}

// reportHashRoute reports the routing counts per operation and fails unless
// the hash structure served every range.
func reportHashRoute(b *testing.B) {
	b.Helper()
	dense, hash := grb.KernelCounts()
	b.ReportMetric(float64(dense)/float64(b.N), "dense-ranges/op")
	b.ReportMetric(float64(hash)/float64(b.N), "hash-ranges/op")
	if hash == 0 || dense != 0 {
		b.Fatalf("adaptive selection on a hypersparse product: %d dense and %d hash ranges, want hash only", dense, hash)
	}
}

func BenchmarkHypersparse_MxM(b *testing.B) {
	benchInit(b)
	a := benchHypersparseMatrix(b)
	dim := ck1(a.Nrows())
	b.ReportAllocs()
	grb.ResetKernelCounts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := ck1(grb.NewMatrix[float64](dim, dim))
		if err := grb.MxM(c, nil, nil, grb.PlusTimes[float64](), a, a, nil); err != nil {
			b.Fatal(err)
		}
		if err := c.Wait(grb.Materialize); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportHashRoute(b)
}

func BenchmarkHypersparse_MxV(b *testing.B) {
	benchInit(b)
	a := benchHypersparseMatrix(b)
	dim := ck1(a.Nrows())
	u := ck1(grb.NewVector[float64](dim))
	for k := 0; k < 1024; k++ {
		ck(u.SetElement(1, k*(dim/1024)))
	}
	b.ReportAllocs()
	grb.ResetKernelCounts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := ck1(grb.NewVector[float64](dim))
		// Pin DirPull: this benchmark measures the gather-buffer selection,
		// and the direction router would otherwise serve the sparse frontier
		// with the push kernel (BenchmarkTraversal_BFS measures that axis).
		if err := grb.MxV(w, nil, nil, grb.PlusTimes[float64](), a, u, grb.DescPull); err != nil {
			b.Fatal(err)
		}
		if err := w.Wait(grb.Materialize); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportHashRoute(b)
}

func BenchmarkAlgo_SSSP(b *testing.B) {
	benchInit(b)
	a := benchFloatMatrix(b, benchScale-2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lagraph.SSSP(a, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Direction-optimizing traversal — the same BFS pinned push, pinned pull and
// adaptively routed. The adaptive row must beat pull-only decisively: the
// narrow early/late frontiers are served by the push scatter while only the
// dense middle levels pay for full row gathers.
// ---------------------------------------------------------------------------

func BenchmarkTraversal_BFS(b *testing.B) {
	benchInit(b)
	a := benchBoolMatrix(b, benchScale)
	for _, tc := range []struct {
		name string
		dir  grb.Direction
	}{
		{"dir=push", grb.DirPush},
		{"dir=pull", grb.DirPull},
		{"dir=auto", grb.DirAuto},
	} {
		b.Run(tc.name, func(b *testing.B) {
			grb.ResetKernelCounts()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := lagraph.BFSLevelsDir(a, 0, tc.dir); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			push, pull := grb.DirectionCounts()
			b.ReportMetric(float64(push)/float64(b.N), "push-levels/op")
			b.ReportMetric(float64(pull)/float64(b.N), "pull-levels/op")
		})
	}
}
