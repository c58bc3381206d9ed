package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/grblas/grb/gen"
	"github.com/grblas/grb/internal/obsv"
)

// Kernel-level microbenchmarks: the raw substrate costs underneath the
// public-API benchmarks at the repository root. Densities are chosen to
// mimic graph adjacency matrices (~8 entries/row).

func benchMatrix(n int, seed int64) *CSR[float64] {
	rng := rand.New(rand.NewSource(seed))
	out := NewCSR[float64](n, n)
	per := 8
	for i := 0; i < n; i++ {
		seen := map[int]bool{}
		for k := 0; k < per; k++ {
			seen[rng.Intn(n)] = true
		}
		cols := make([]int, 0, len(seen))
		for j := range seen {
			cols = append(cols, j)
		}
		// insertion order doesn't matter for the bench; sort for validity
		for x := 1; x < len(cols); x++ {
			for y := x; y > 0 && cols[y-1] > cols[y]; y-- {
				cols[y-1], cols[y] = cols[y], cols[y-1]
			}
		}
		for _, j := range cols {
			out.Ind = append(out.Ind, j)
			out.Val = append(out.Val, rng.Float64())
		}
		out.Ptr[i+1] = len(out.Ind)
	}
	return out
}

var addF = func(a, b float64) float64 { return a + b }
var mulF = func(a, b float64) float64 { return a * b }

func BenchmarkKernelSpGEMM(b *testing.B) {
	for _, n := range []int{512, 2048} {
		a := benchMatrix(n, 1)
		for _, threads := range []int{1, 4} {
			b.Run(fmt.Sprintf("n=%d/threads=%d", n, threads), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					closureSpGEMM(a, a, mulF, addF, Mask{}, threads, KernelAuto)
				}
			})
		}
	}
}

func BenchmarkKernelSpGEMMMasked(b *testing.B) {
	n := 2048
	a := benchMatrix(n, 1)
	mask := &CSR[bool]{Rows: n, Cols: n, Ptr: a.Ptr, Ind: a.Ind, Val: make([]bool, len(a.Ind))}
	for i := range mask.Val {
		mask.Val[i] = true
	}
	b.Run("structural-mask", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			closureSpGEMM(a, a, mulF, addF, Mask{M: mask, Structural: true}, 1, KernelAuto)
		}
	})
}

// hypersparseCSR builds an n×n matrix with ~nnz random entries: n ≫ nnz, so
// nearly every row is empty and per-row flop bounds are tiny next to n.
func hypersparseCSR(n, nnz int, seed int64) *CSR[float64] {
	rng := rand.New(rand.NewSource(seed))
	I := make([]int, nnz)
	J := make([]int, nnz)
	X := make([]float64, nnz)
	for k := 0; k < nnz; k++ {
		I[k] = rng.Intn(n)
		J[k] = rng.Intn(n)
		X[k] = rng.Float64()
	}
	m, err := BuildCSR(n, n, I, J, X, func(a, b float64) float64 { return b })
	if err != nil {
		panic(err)
	}
	return m
}

// The hypersparse regime the adaptive kernel targets: n = 2^20 ≈ 1e6,
// nnz ≈ 4e5. The dense SPA must allocate and stamp O(n) scratch per worker
// (~16 MiB each); the hash SPA allocates O(maxRowFlops) slots. Run with
// -benchmem: the B/op gap is the per-worker scratch saving the adaptive
// router buys (≥ 5× is the acceptance bar; in practice it is orders of
// magnitude).
func BenchmarkKernelSpGEMMHypersparse(b *testing.B) {
	const n, nnz = 1 << 20, 400_000
	a := hypersparseCSR(n, nnz, 17)
	for _, tc := range []struct {
		name string
		kern Kernel
	}{{"dense", KernelDense}, {"hash", KernelHash}, {"auto", KernelAuto}} {
		for _, threads := range []int{1, 4} {
			b.Run(fmt.Sprintf("kernel=%s/threads=%d", tc.name, threads), func(b *testing.B) {
				b.ReportAllocs()
				obsv.ResetCounters()
				for i := 0; i < b.N; i++ {
					closureSpGEMM(a, a, mulF, addF, Mask{}, threads, tc.kern)
				}
				dense, hash := obsv.DenseRanges.Load(), obsv.HashRanges.Load()
				b.ReportMetric(float64(dense)/float64(b.N), "dense-ranges/op")
				b.ReportMetric(float64(hash)/float64(b.N), "hash-ranges/op")
				b.ReportMetric(float64(obsv.ScratchBytes.Load())/float64(b.N), "scratch-B/op")
			})
		}
	}
}

// Pull-style SpMV over a wide, hypersparse input vector: the dense path
// scatters u into O(n) value+presence buffers per call, the hash path builds
// an O(nnz(u)) read-only table shared by all workers.
func BenchmarkKernelSpMVHypersparse(b *testing.B) {
	const n, nnz = 1 << 20, 400_000
	a := hypersparseCSR(n, nnz, 18)
	u := &Vec[float64]{N: n}
	for i := 0; i < 1024; i++ {
		u.Ind = append(u.Ind, i*(n/1024))
		u.Val = append(u.Val, 1)
	}
	for _, tc := range []struct {
		name string
		kern Kernel
	}{{"dense", KernelDense}, {"hash", KernelHash}, {"auto", KernelAuto}} {
		b.Run("kernel="+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			obsv.ResetCounters()
			for i := 0; i < b.N; i++ {
				closureSpMV(a, u, mulF, addF, VMask{}, 4, tc.kern)
			}
			b.ReportMetric(float64(obsv.ScratchBytes.Load())/float64(b.N), "scratch-B/op")
		})
	}
}

func BenchmarkKernelSpMV(b *testing.B) {
	a := benchMatrix(4096, 2)
	u := &Vec[float64]{N: 4096}
	for i := 0; i < 4096; i++ {
		u.Ind = append(u.Ind, i)
		u.Val = append(u.Val, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		closureSpMV(a, u, mulF, addF, VMask{}, 1, KernelAuto)
	}
}

func BenchmarkKernelVxMSparse(b *testing.B) {
	a := benchMatrix(4096, 2)
	u := &Vec[float64]{N: 4096}
	for i := 0; i < 4096; i += 128 { // 32-entry frontier
		u.Ind = append(u.Ind, i)
		u.Val = append(u.Val, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		closureVxM(u, a, mulF, addF, VMask{}, 1)
	}
}

func BenchmarkKernelEWiseAdd(b *testing.B) {
	x := benchMatrix(4096, 3)
	y := benchMatrix(4096, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EWiseAddM(x, y, addF, Exec{})
	}
}

func BenchmarkKernelTranspose(b *testing.B) {
	a := benchMatrix(4096, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Transpose(a)
	}
}

func BenchmarkKernelSelect(b *testing.B) {
	a := benchMatrix(4096, 6)
	f := func(v float64, i, j int, s int) bool { return j > i }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SelectM(a, f, 0, Exec{})
	}
}

func BenchmarkKernelBuildCSR(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	n := 4096
	m := 8 * n
	I := make([]int, m)
	J := make([]int, m)
	X := make([]float64, m)
	for k := 0; k < m; k++ {
		I[k] = rng.Intn(n)
		J[k] = rng.Intn(n)
		X[k] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = BuildCSR(n, n, I, J, X, addF)
	}
}

func BenchmarkKernelMaskApply(b *testing.B) {
	c := benchMatrix(4096, 8)
	z := benchMatrix(4096, 9)
	mask := &CSR[bool]{Rows: c.Rows, Cols: c.Cols, Ptr: c.Ptr, Ind: c.Ind, Val: make([]bool, len(c.Ind))}
	for i := range mask.Val {
		mask.Val[i] = i%2 == 0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaskApplyM(c, z, Mask{M: mask}, false, Exec{})
	}
}

// bestRounds times two arms of a paired benchmark in one process: rounds of
// passes calls each, the arms interleaved, 3·b.N rounds per arm and never
// fewer than nine (a best of three still moves ±10 % on a loaded host), and
// returns each arm's best round — so that the ratio of the two divides the
// host out.
func bestRounds(b *testing.B, passes int, x, y func() error) (bestX, bestY time.Duration) {
	round := func(arm func() error) time.Duration {
		start := time.Now()
		for p := 0; p < passes; p++ {
			if err := arm(); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}
	bestX, bestY = round(x), round(y)
	for rep := 1; rep < max(3*b.N, 9); rep++ {
		bestX, bestY = min(bestX, round(x)), min(bestY, round(y))
	}
	return bestX, bestY
}

// minFamilySpeedup is the floor a family loop must clear over the closure
// loop it replaces to be worth its hand-written body (monokernels.go).
const minFamilySpeedup = 2

// BenchmarkKernelFamilyLoopPair is the evidence the family loops stand on,
// and the first of the timings that fail a run: the pull SpMV over a
// dense operand, once through the family loop and once through the closure
// loop, on the two workloads the loops were written for — PLUS_TIMES over a
// full float64 vector (a PageRank iteration) and LOR_LAND over a saturated
// bool frontier (a late BFS level, where the family loop also stops at the
// first true product). Both arms gather through the same memoized view on
// one thread, interleaved in one process, best round per arm (bestRounds),
// so the closure/mono ratio divides the host out; it fails below
// minFamilySpeedup. `make bench` runs it; tier-1 does not.
func BenchmarkKernelFamilyLoopPair(b *testing.B) {
	const passes = 12 // products per timed round
	g := gen.Graph500RMAT(14, 16, 42).Symmetrize()
	af, err := BuildCSR(g.N, g.N, g.Src, g.Dst, gen.UniformWeights(g, 0.5, 2, 42), addF)
	if err != nil {
		b.Fatal(err)
	}
	ab := &CSR[bool]{Rows: af.Rows, Cols: af.Cols, Ptr: af.Ptr, Ind: af.Ind, Val: make([]bool, len(af.Ind))}
	for k := range ab.Val {
		ab.Val[k] = true
	}
	uf := &Vec[float64]{N: g.N, Ind: fullPattern(g.N), Val: make([]float64, g.N)}
	ub := &Vec[bool]{N: g.N, Ind: uf.Ind, Val: make([]bool, g.N)}
	for i := range uf.Ind {
		uf.Val[i], ub.Val[i] = 1/float64(g.N), true
	}
	land := func(x, y bool) bool { return x && y }
	lor := func(x, y bool) bool { return x || y }

	for _, wl := range []struct {
		name string
		semi Semi
		run  func(Semi) error
	}{
		{"plus_times/full", SemiPlusTimes, func(semi Semi) error {
			_, err := SpMVSemiEx(semi, SpecAuto, af, uf, mulF, addF, VMask{}, Exec{Threads: 1}, KernelAuto)
			return err
		}},
		{"lor_land/saturated", SemiLorLand, func(semi Semi) error {
			_, err := SpMVSemiEx(semi, SpecAuto, ab, ub, land, lor, VMask{}, Exec{Threads: 1}, KernelAuto)
			return err
		}},
	} {
		b.Run(wl.name, func(b *testing.B) {
			mono, closure := bestRounds(b, passes,
				func() error { return wl.run(wl.semi) }, func() error { return wl.run(SemiGeneric) })
			ratio := float64(closure) / float64(mono)
			b.ReportMetric(ratio, "closure/mono")
			if ratio < minFamilySpeedup {
				b.Fatalf("closure/mono = %.2f (closure %v, mono %v per %d products), below the floor %d",
					ratio, closure, mono, passes, minFamilySpeedup)
			}
		})
	}
}

// minReduceSpeedup is the floor a reduction's family loop must clear over
// the closure loop it replaces (reduceLoops).
const minReduceSpeedup = 1.5

// reduceSink keeps the reductions' results live.
var reduceSink float64

// BenchmarkReduceFamilyPair is the evidence the reductions' family loops
// stand on: the reductions of a PageRank over rmat-16 — the row sums of its
// degree (ReduceRows) and a 65 536-entry sum like its dangling mass and
// delta (ReduceVec) — once through the (+) family loop and once through the
// closure loop, on one thread, interleaved in one process, best round per
// arm (bestRounds). It reports closure/mono and fails below
// minReduceSpeedup. `make bench` and `make bench-smoke` run it; tier-1 does
// not.
func BenchmarkReduceFamilyPair(b *testing.B) {
	g := gen.Graph500RMAT(16, 8, 42).Symmetrize()
	a, err := BuildCSR(g.N, g.N, g.Src, g.Dst, gen.UniformWeights(g, 1, 2, 7), addF)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(27))
	v := &Vec[float64]{N: g.N, Ind: fullPattern(g.N), Val: make([]float64, g.N)}
	for i := range v.Val {
		v.Val[i] = rng.Float64() / float64(g.N)
	}
	for _, wl := range []struct {
		name   string
		passes int // reductions per timed round
		run    func(Mon)
	}{
		{"rows/rmat16", 8, func(mon Mon) {
			r := ReduceRows(mon, a, addF, Exec{Threads: 1})
			reduceSink += r.Val[0]
		}},
		{"vector/65536", 64, func(mon Mon) {
			x, _ := ReduceVec(mon, v, addF)
			reduceSink += x
		}},
	} {
		b.Run(wl.name, func(b *testing.B) {
			mono, closure := bestRounds(b, wl.passes,
				func() error { wl.run(MonPlus); return nil }, func() error { wl.run(MonGeneric); return nil })
			ratio := float64(closure) / float64(mono)
			b.ReportMetric(ratio, "closure/mono")
			if ratio < minReduceSpeedup {
				b.Fatalf("closure/mono = %.2f (closure %v, mono %v per %d reductions), below the floor %.1f",
					ratio, closure, mono, wl.passes, minReduceSpeedup)
			}
		})
	}
}

// minBinSpeedup is the floor closure/mono must clear on every arm of
// BenchmarkBinaryFamilyPair, set below its own readings.
const minBinSpeedup = 1.2

// BenchmarkBinaryFamilyPair is the evidence binLoops stands on: what a
// PageRank over rmat-16 runs through a predefined binary operator — w = r ⊗
// send over two full 65 536-entry vectors, dang = r ⊙ dangling over r and
// the dangling vertices' pattern, and the accumulate of its pull, rnew(i) +=
// t(i) over the rows the product emits — each once through the family loop
// of the operator's tag and once through the closure loop, on one thread,
// interleaved in one process, best round per arm (bestRounds). It reports
// closure/mono and fails below minBinSpeedup. `make bench` and
// `make bench-smoke` run it; tier-1 does not.
func BenchmarkBinaryFamilyPair(b *testing.B) {
	g := gen.Graph500RMAT(16, 8, 42).Symmetrize()
	a, err := BuildCSR(g.N, g.N, g.Src, g.Dst, gen.UniformWeights(g, 1, 2, 7), addF)
	if err != nil {
		b.Fatal(err)
	}
	n := g.N
	rng := rand.New(rand.NewSource(30))
	full := func() *Vec[float64] {
		v := &Vec[float64]{N: n, Ind: fullPattern(n), Val: make([]float64, n)}
		for i := range v.Val {
			v.Val[i] = rng.Float64() / float64(n)
		}
		return v
	}
	r, send, rnew := full(), full(), full()
	dangling := NewVec[bool](n)
	for i := 0; i < n; i++ {
		if a.Ptr[i+1] == a.Ptr[i] {
			dangling.Ind, dangling.Val = append(dangling.Ind, i), append(dangling.Val, true)
		}
	}
	t, err := SpMVSemiEx(SemiPlusTimes, SpecAuto, a, r, mulF, addF, VMask{}, Exec{Threads: 1}, KernelAuto)
	if err != nil {
		b.Fatal(err)
	}
	t = t.Sorted() // the pull's (row, value) pairs, as its blocks hand them to the accumulate
	times := func(x, y float64) float64 { return x * y }
	first := func(x float64, _ bool) float64 { return x }
	entries := 0
	for _, wl := range []struct {
		name string
		run  func(tag bool)
	}{
		{"times/full×full", func(tag bool) { entries = EWiseMultV(pick(tag, BinTimes), r, send, times, Exec{}).NNZ() }},
		{"first/full×dangling", func(tag bool) { entries = EWiseMultV(pick(tag, BinFirst), r, dangling, first, Exec{}).NNZ() }},
		{"plus/pull-accumulate", func(tag bool) {
			op := pick(tag, BinPlus)
			ewFunc(ewFamily[float64, float64, float64](op), op, addF, ewScatterX, rnew.Val, rnew.Val, t.Val, t.Ind)
			entries = t.NNZ()
		}},
	} {
		b.Run(wl.name, func(b *testing.B) {
			const passes = 32 // operations per timed round
			mono, closure := bestRounds(b, passes,
				func() error { wl.run(true); return nil }, func() error { wl.run(false); return nil })
			ratio := float64(closure) / float64(mono)
			b.ReportMetric(ratio, "closure/mono")
			b.ReportMetric(float64(entries), "entries")
			if ratio < minBinSpeedup {
				b.Fatalf("closure/mono = %.2f (closure %v, mono %v per %d operations), below the floor %.1f",
					ratio, closure, mono, passes, minBinSpeedup)
			}
		})
	}
}

// pick is tag when tagged, else BinGeneric: the closure arm of a pair.
func pick(tagged bool, tag Bin) Bin {
	if tagged {
		return tag
	}
	return BinGeneric
}

// BenchmarkPullGatherPair is the measurement planPull's gather row points
// at: one pull SpMV (MIN_PLUS, the SSSP product; a fresh vector per product
// as in a traversal, so the dense arm pays for its view), gather pinned dense
// against pinned hash, arms interleaved on one thread, best round per arm.
// On rmat-14 with a frontier of n/8 the gather looks u up once per stored
// entry of G — 26 n lookups whatever nnz(u) is — and the hash arm must lose
// by at least 1.5×. Under a non-complemented mask of 64 rows over a
// hypersparse matrix (n = 2²⁰, work ≪ n/2) the table replaces a 9 MB view
// and it must not lose. `make bench` runs it; tier-1 does not.
func BenchmarkPullGatherPair(b *testing.B) {
	const passes = 4 // products per timed round
	csr := func(g gen.Graph) *CSR[float64] {
		a, err := BuildCSR(g.N, g.N, g.Src, g.Dst, gen.UniformWeights(g, 0.5, 2, 42), addF)
		if err != nil {
			b.Fatal(err)
		}
		return a
	}
	// strided lists count positions of [0, n), evenly spread.
	strided := func(n, count int) []int {
		ind := make([]int, count)
		for k := range ind {
			ind[k] = 3 + k*(n/count)
		}
		return ind
	}
	minF := func(x, y float64) float64 { return min(x, y) }

	rmat := csr(gen.Graph500RMAT(14, 16, 42).Symmetrize())
	hyper := csr(gen.Hypersparse(1<<20, 100_000, 1234))
	for _, wl := range []struct {
		name     string
		a        *CSR[float64]
		frontier int
		maskRows int
		ok       func(ratio float64) bool
		want     string
	}{
		{"rmat14/unmasked", rmat, rmat.Rows / 8, 0, func(r float64) bool { return r >= 1.5 }, ">= 1.5"},
		{"hypersparse/mask=64rows", hyper, 1024, 64, func(r float64) bool { return r <= 1 }, "<= 1"},
	} {
		b.Run(wl.name, func(b *testing.B) {
			a, n := wl.a, wl.a.Rows
			ind := strided(n, wl.frontier)
			val := make([]float64, len(ind))
			for k := range val {
				val[k] = float64(k % 97)
			}
			var mask VMask
			if wl.maskRows > 0 {
				mask.M = &Vec[bool]{N: n, Ind: strided(n, wl.maskRows), Val: make([]bool, wl.maskRows)}
				mask.Structural = true
			}
			gather := func(hint Kernel) func() error {
				return func() error {
					u := &Vec[float64]{N: n, Ind: ind, Val: val}
					_, err := SpMVSemiEx(SemiMinPlus, SpecAuto, a, u, addF, minF, mask, Exec{Threads: 1}, hint)
					return err
				}
			}
			dense, hash := bestRounds(b, passes, gather(KernelDense), gather(KernelHash))
			ratio := float64(hash) / float64(dense)
			b.ReportMetric(ratio, "hash/dense")
			if !wl.ok(ratio) {
				b.Fatalf("hash/dense = %.2f (hash %v, dense %v per %d products), want %s",
					ratio, hash, dense, passes, wl.want)
			}
		})
	}
}

// BenchmarkPushAccumPair is the measurement planPush's accumulator row points
// at: an SSSP push (MIN_PLUS) over rmat-16 from frontiers of 1, 4 and 16
// vertices spread over the upper half of the ids, accumulator pinned dense
// against pinned hash, arms interleaved on one thread, best round per arm.
// It reports dense/hash and the products per push, and fails unless each pin
// ran its structure and the unpinned push took the table — every frontier
// here is below cols/2 products with a table smaller than the SPA. It sets
// no timing floor: the planner's row is a byte rule, and what the pair
// records is what the table costs or saves in time at these sizes.
func BenchmarkPushAccumPair(b *testing.B) {
	g := gen.Graph500RMAT(16, 8, 42).Symmetrize()
	a, err := BuildCSR(g.N, g.N, g.Src, g.Dst, gen.UniformWeights(g, 1, 2, 7), addF)
	if err != nil {
		b.Fatal(err)
	}
	n := a.Rows
	minF := func(x, y float64) float64 { return min(x, y) }
	for _, size := range []int{1, 4, 16} {
		frontier := &Vec[float64]{N: n, Ind: make([]int, size), Val: make([]float64, size)}
		for k := range frontier.Ind {
			frontier.Ind[k], frontier.Val[k] = n/2+k*(n/2/size), float64(k%97)
		}
		products := listedWork(a.Ptr, frontier.Ind, 0, math.MaxInt)
		push := func(hint Kernel, rt *Route) func() error {
			return func() error {
				_, err := vxmSemi(SemiMinPlus, frontier, a, addF, minF, VMask{}, Exec{Threads: 1, Route: rt}, hint)
				return err
			}
		}
		b.Run(fmt.Sprintf("rmat16/frontier=%d", size), func(b *testing.B) {
			for _, arm := range []struct {
				hint Kernel
				want Acc
			}{{KernelDense, AccDense}, {KernelHash, AccHash}, {KernelAuto, AccHash}} {
				var rt Route
				if err := push(arm.hint, &rt)(); err != nil || rt.Acc != arm.want {
					b.Fatalf("hint %d over %d products: route %+v (err %v), want accumulator %d", arm.hint, products, rt, err, arm.want)
				}
			}
			dense, hash := bestRounds(b, 32, push(KernelDense, nil), push(KernelHash, nil))
			b.ReportMetric(float64(dense)/float64(hash), "dense/hash")
			b.ReportMetric(float64(products), "products")
		})
	}
}

// minForkSpeedup is the floor a section the default grain forks must hold
// against running on the caller alone: it must not lose by more than the
// pair's own noise (0.9, the margin BenchmarkPullAccumPair learned).
const minForkSpeedup = 0.9

// BenchmarkForkGrainPair is the measurement DefaultGrain points at: the pull
// of a PageRank iteration (PLUS_TIMES over a full vector) and the push of an
// n/32-vertex SSSP frontier over the benchmark's R-MAT graphs at scales 10,
// 12, 14 and 16, each with the grain forced both ways — one worker against
// two, arms interleaved in one process, best round per arm (bestRounds). It
// reports one/two per shape and size beside the work the kernel counts, and
// fails iff the default grain gives a section two workers where the
// two-worker arm loses by more than minForkSpeedup allows. On one core there
// is no second worker to measure, so it skips.
func BenchmarkForkGrainPair(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("one P: a second worker cannot run beside the caller")
	}
	one, two := Exec{Threads: 2, Grain: math.MaxInt}, Exec{Threads: 2, Grain: 1}
	for _, scale := range []int{10, 12, 14, 16} {
		g := gen.Graph500RMAT(scale, 8, 42).Symmetrize()
		a, err := BuildCSR(g.N, g.N, g.Src, g.Dst, gen.UniformWeights(g, 1, 2, 7), addF)
		if err != nil {
			b.Fatal(err)
		}
		n := a.Rows
		full := &Vec[float64]{N: n, Ind: make([]int, n), Val: make([]float64, n)}
		for i := range full.Ind {
			full.Ind[i], full.Val[i] = i, 1/float64(n)
		}
		frontier := &Vec[float64]{N: n, Ind: make([]int, n/32), Val: make([]float64, n/32)}
		for k := range frontier.Ind {
			frontier.Ind[k], frontier.Val[k] = k, float64(k%97) // R-MAT puts its hubs first
		}
		minF := func(x, y float64) float64 { return min(x, y) }
		for _, shape := range []struct {
			name string
			work int
			run  func(Exec) func() error
		}{
			{"pull", a.NNZ(), func(e Exec) func() error {
				return func() error {
					_, err := SpMVSemiEx(SemiPlusTimes, SpecAuto, a, full, mulF, addF, VMask{}, e, KernelAuto)
					return err
				}
			}},
			{"push", listedWork(a.Ptr, frontier.Ind, 0, math.MaxInt), func(e Exec) func() error {
				return func() error {
					_, err := VxMSemiEx(SemiMinPlus, SpecAuto, frontier, a, addF, minF, VMask{}, e)
					return err
				}
			}},
		} {
			b.Run(fmt.Sprintf("rmat%d/%s", scale, shape.name), func(b *testing.B) {
				t1, t2 := bestRounds(b, 1<<(18-scale), shape.run(one), shape.run(two))
				ratio := float64(t1) / float64(t2)
				forks := Exec{Threads: 2}.workers(shape.work) == 2
				b.ReportMetric(ratio, "one/two")
				b.ReportMetric(float64(shape.work), "work")
				if forks && ratio < minForkSpeedup {
					b.Fatalf("one/two = %.2f (one worker %v, two %v) over %d units of work, which the default grain %d forks: want >= %v",
						ratio, t1, t2, shape.work, DefaultGrain, minForkSpeedup)
				}
			})
		}
	}
}

// minDirSpeedup is the floor the direction planDir picks must hold against
// the other one: it must not lose by more than a pair's own noise.
const minDirSpeedup = 0.9

// BenchmarkDirCutPair is the measurement pushCut and probeCutNum/probeCutDen
// point at: a min-plus product (an SSSP round) and a lor-land product under
// the complement of a visited set (a BFS level, the frontier its own visited
// set) over the benchmark's R-MAT graphs at scales 14 and 16, each run once
// pushed and once pulled. The frontiers are drawn in a seeded random order:
// for the cut arms, the shortest prefix whose products sit at half and at
// twice pushCut — pushCut·products against rows + probes — and for the
// non-full min-plus arm, 5 %, 45 % and 80 % of the vertices, where the
// unmasked pull tests presence at every probe. Arms interleaved on one
// thread, best round per arm (bestRounds), a fresh frontier per product so
// that the pull pays for its view as a traversal does. It reports the
// unpicked arm's time over the picked one's and fails below minDirSpeedup.
// `make bench` and `make bench-smoke` run it; tier-1 does not.
func BenchmarkDirCutPair(b *testing.B) {
	land := func(x, y bool) bool { return x && y }
	lor := func(x, y bool) bool { return x || y }
	minF := func(x, y float64) float64 { return min(x, y) }
	for _, scale := range []int{14, 16} {
		g := gen.Graph500RMAT(scale, 8, 42).Symmetrize()
		a, err := BuildCSR(g.N, g.N, g.Src, g.Dst, gen.UniformWeights(g, 1, 2, 7), addF)
		if err != nil {
			b.Fatal(err)
		}
		ab := &CSR[bool]{Rows: a.Rows, Cols: a.Cols, Ptr: a.Ptr, Ind: a.Ind, Val: make([]bool, a.NNZ())}
		for k := range ab.Val {
			ab.Val[k] = true
		}
		at, abt := Transpose(a), Transpose(ab)
		n, nnz := a.Rows, a.NNZ()
		order := rand.New(rand.NewSource(42)).Perm(n)
		// cutFrontier is the shortest prefix of order whose products reach
		// the given multiple of pushCut, sorted; masked, it is its own visited
		// set, so the pull probes G less its rows. An unmasked frontier
		// reaches pushCut·nnz(A) at most, under twice the cut's rows + nnz(A):
		// its far side is every vertex, the one frontier whose pull needs no
		// presence test.
		cutFrontier := func(times float64, masked bool) []int {
			products, visited := 0, 0
			k := 0
			for ; k < n && float64(pushCut*products) < times*float64(n+nnz-visited); k++ {
				products += a.Ptr[order[k]+1] - a.Ptr[order[k]]
				if masked {
					visited += at.Ptr[order[k]+1] - at.Ptr[order[k]]
				}
			}
			ind := slices.Clone(order[:k])
			slices.Sort(ind)
			return ind
		}
		share := func(frac float64, _ bool) []int {
			ind := slices.Clone(order[:int(frac*float64(n))])
			slices.Sort(ind)
			return ind
		}
		e := Exec{Threads: 1}
		minPlusPush := func(ind []int, mask VMask) func() error {
			val := make([]float64, len(ind))
			return func() error {
				_, err := VxMSemiEx(SemiMinPlus, SpecAuto, &Vec[float64]{N: n, Ind: ind, Val: val}, a, addF, minF, mask, e)
				return err
			}
		}
		minPlusPull := func(ind []int, mask VMask) func() error {
			val := make([]float64, len(ind))
			return func() error {
				_, err := SpMVSemiEx(SemiMinPlus, SpecAuto, at, &Vec[float64]{N: n, Ind: ind, Val: val}, addF, minF, mask, e, KernelAuto)
				return err
			}
		}
		for _, shape := range []struct {
			name       string
			masked     bool
			frontier   func(float64, bool) []int
			sizes      []float64
			unit       string
			push, pull func(ind []int, mask VMask) func() error
		}{
			{"min_plus", false, cutFrontier, []float64{0.5, 2}, "cut×", minPlusPush, minPlusPull},
			{"min_plus/non-full", false, share, []float64{0.05, 0.45, 0.8}, "vertices×", minPlusPush, minPlusPull},
			{"lor_land/masked", true, cutFrontier, []float64{0.5, 2}, "cut×",
				func(ind []int, mask VMask) func() error {
					val := make([]bool, len(ind))
					return func() error {
						_, err := VxMSemiEx(SemiLorLand, SpecAuto, &Vec[bool]{N: n, Ind: ind, Val: val}, ab, land, lor, mask, e)
						return err
					}
				},
				func(ind []int, mask VMask) func() error {
					val := make([]bool, len(ind))
					return func() error {
						_, err := SpMVSemiEx(SemiLorLand, SpecAuto, abt, &Vec[bool]{N: n, Ind: ind, Val: val}, land, lor, mask, e, KernelAuto)
						return err
					}
				}},
		} {
			for _, size := range shape.sizes {
				b.Run(fmt.Sprintf("rmat%d/%s/%s%g", scale, shape.name, shape.unit, size), func(b *testing.B) {
					ind := shape.frontier(size, shape.masked)
					var mask VMask
					if shape.masked {
						mask = VMask{M: &Vec[bool]{N: n, Ind: ind, Val: make([]bool, len(ind))}, Structural: true, Complement: true}
					}
					products := listedWork(a.Ptr, ind, 0, math.MaxInt)
					push := planDir(dirIn(DirAuto, products, nnz, at.Ptr, mask, n, len(ind) == n)).Push
					if shape.unit == "cut×" && push != (size < 1) {
						b.Fatalf("%d products at %g× the cut: the rule pushes = %v", products, size, push)
					}
					tPush, tPull := bestRounds(b, 1<<(18-scale), shape.push(ind, mask), shape.pull(ind, mask))
					ratio := float64(tPull) / float64(tPush)
					if !push {
						ratio = 1 / ratio
					}
					b.ReportMetric(ratio, "other/picked")
					b.ReportMetric(float64(tPull)/float64(tPush), "pull/push")
					b.ReportMetric(float64(products), "products")
					if ratio < minDirSpeedup {
						b.Fatalf("other/picked = %.2f (push %v, pull %v) over %d products at %s%g: want >= %v",
							ratio, tPush, tPull, products, shape.unit, size, minDirSpeedup)
					}
				})
			}
		}
	}
}

// minAccumSpeedup is the floor the one-pass accumulating pull must hold
// against product-then-merge: it must not lose by more than the pair's own
// noise. On time the pass can only save the merge — the accumulating product
// costs what the plain one does, and some forty one-round runs read
// 0.97–1.42, median 1.08 — so the floor guards the pass against getting
// slower; what it is for is two of the three n-length arrays
// (TestVecKernelAllocationPins).
const minAccumSpeedup = 0.9

// BenchmarkPullAccumPair is the measurement SpMVAccumEx's one-pass form
// stands on: z = c + A·u over (+, ×) on rmat-14 with c and u full (a PageRank
// iteration's product), once written straight into z and once as the plain
// product followed by AccumMergeV — what every route but that one still does.
// Arms interleaved on one thread, best round per arm; it fails below
// minAccumSpeedup. `make bench` and `make bench-smoke` run it; tier-1 does
// not.
func BenchmarkPullAccumPair(b *testing.B) {
	const passes = 12 // products per timed round
	g := gen.Graph500RMAT(14, 16, 42).Symmetrize()
	a, err := BuildCSR(g.N, g.N, g.Src, g.Dst, gen.UniformWeights(g, 0.5, 2, 42), addF)
	if err != nil {
		b.Fatal(err)
	}
	u := &Vec[float64]{N: g.N, Ind: fullPattern(g.N), Val: make([]float64, g.N)}
	c := &Vec[float64]{N: g.N, Ind: u.Ind, Val: make([]float64, g.N)}
	for i := range u.Val {
		u.Val[i], c.Val[i] = 1/float64(g.N), 0.15/float64(g.N)
	}
	e := Exec{Threads: 1}
	fused, unfused := bestRounds(b, passes,
		func() error {
			_, err := SpMVAccumEx(SemiPlusTimes, a, u, mulF, addF, VMask{}, c, addF, BinGeneric, e, KernelAuto)
			return err
		},
		func() error {
			t, err := SpMVSemiEx(SemiPlusTimes, SpecAuto, a, u, mulF, addF, VMask{}, e, KernelAuto)
			AccumMergeV(c, t, addF)
			return err
		})
	ratio := float64(unfused) / float64(fused)
	b.ReportMetric(ratio, "unfused/fused")
	if ratio < minAccumSpeedup {
		b.Fatalf("unfused/fused = %.2f (unfused %v, fused %v per %d products), below the floor %.1f",
			ratio, unfused, fused, passes, minAccumSpeedup)
	}
}

// minProbeSpeedup is the floor the branch-free mask-first probe must clear
// over the branching one it replaced: the pair reads 1.43–1.59 as written and
// 1.13 with stampedHits inlined into the range closure, which is what the
// floor is there to catch.
const minProbeSpeedup = 1.3

// maskFirstSwitch is the mask-first range as it stood before the probe went
// branch-free, kept here as the pair's other arm: one range over every row,
// a structural mask, each product dispatched on its column's stamp.
func maskFirstSwitch[A, B, C any](a *CSR[A], b *CSR[B], mul func(A, B) C, add func(C, C) C, m *CSR[bool]) *CSR[C] {
	SpGEMMFlops(a, b, 1) // the symbolic pass every product pays, this arm too
	out := NewCSR[C](a.Rows, b.Cols)
	out.Ind = make([]int, 0, m.NNZ())
	out.Val = make([]C, 0, m.NNZ())
	spa := make([]C, b.Cols)
	stamp := make([]int, b.Cols)
	for i := 0; i < a.Rows; i++ {
		open, filled := 2*i+1, 2*i+2
		admitted, _ := m.Row(i)
		for _, j := range admitted {
			stamp[j] = open
		}
		aInd, aVal := a.Row(i)
		for k := range aInd {
			bInd, bVal := b.Row(aInd[k])
			av := aVal[k]
			for t, j := range bInd {
				switch stamp[j] {
				case open:
					stamp[j] = filled
					spa[j] = mul(av, bVal[t])
				case filled:
					spa[j] = add(spa[j], mul(av, bVal[t]))
				}
			}
		}
		for _, j := range admitted {
			if stamp[j] == filled {
				out.Ind = append(out.Ind, j)
				out.Val = append(out.Val, spa[j])
			}
		}
		out.Ptr[i+1] = len(out.Ind)
	}
	return out
}

// BenchmarkSelectCutPair is the measurement the select cuts stand on: the
// triangle count's L = tril(A, −1) over rmat-14, once as the row cut
// (SelectCutM) and once through SelectM with TriL as a closure, same
// operand, bit-identical outputs, arms interleaved on one thread, best round
// per arm. It reports closure/cut and has no timing floor. `make bench` and
// `make bench-smoke` run it; tier-1 does not.
func BenchmarkSelectCutPair(b *testing.B) {
	const passes = 4 // selects per timed round
	g := gen.Graph500RMAT(14, 16, 42).Symmetrize()
	a, err := BuildCSR(g.N, g.N, g.Src, g.Dst, make([]bool, len(g.Src)), func(x, _ bool) bool { return x })
	if err != nil {
		b.Fatal(err)
	}
	tril := func(_ bool, i, j, s int) bool { return j-i <= s }
	var got, want *CSR[bool]
	cut, closure := bestRounds(b, passes,
		func() error {
			got = SelectCutM(a, CutTriL, -1, Exec{Threads: 1})
			return nil
		},
		func() error {
			want = SelectM(a, tril, -1, Exec{Threads: 1})
			return nil
		})
	identicalCSR(b, "cut-vs-closure", got, want)
	b.ReportMetric(float64(closure)/float64(cut), "closure/cut")
}

// BenchmarkMaskFirstProbePair is the measurement the mask-first probe stands
// on: the triangle count's product C⟨L⟩ = L +.pair L over rmat-14's strict
// lower triangle (18.8 M probes, 15 % admitted), once through SpGEMMSemiEx and
// once through maskFirstSwitch, same operands, same closures, bit-identical
// outputs, arms interleaved on one thread, best round per arm. It fails below
// minProbeSpeedup. `make bench` and `make bench-smoke` run it; tier-1 does
// not.
func BenchmarkMaskFirstProbePair(b *testing.B) {
	const passes = 1 // products per timed round
	g := gen.Graph500RMAT(14, 16, 42).Symmetrize()
	a, err := BuildCSR(g.N, g.N, g.Src, g.Dst, make([]bool, len(g.Src)), func(x, _ bool) bool { return x })
	if err != nil {
		b.Fatal(err)
	}
	l := SelectM(a, func(_ bool, i, j, _ int) bool { return j < i }, 0, Exec{})
	one := func(bool, bool) int64 { return 1 }
	plus := func(x, y int64) int64 { return x + y }
	var got, want *CSR[int64]
	probe, branch := bestRounds(b, passes,
		func() (err error) {
			got, err = SpGEMMSemiEx(SemiGeneric, SpecAuto, l, l, one, plus, Mask{M: l, Structural: true}, Exec{Threads: 1}, KernelAuto)
			return err
		},
		func() error {
			want = maskFirstSwitch(l, l, one, plus, l)
			return nil
		})
	identicalCSR(b, "probe-vs-switch", got, want)
	ratio := float64(branch) / float64(probe)
	b.ReportMetric(ratio, "switch/probe")
	if ratio < minProbeSpeedup {
		b.Fatalf("switch/probe = %.2f (switch %v, probe %v per %d products), below the floor %.1f",
			ratio, branch, probe, passes, minProbeSpeedup)
	}
}
