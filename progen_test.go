package grb

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"github.com/grblas/grb/internal/sparse"
)

// The API-level program generator: seeded random programs over the vector
// operations — MxV/VxM, eWiseAdd/eWiseMult, apply, select (its GrB_Scalar
// twin too), assign and scalar assign, SetElement/RemoveElement, reduce to a
// vector and to a value, extract through an index list, ExtractTuples, the
// Table III export/import and serialize/deserialize — and the matrix ones —
// MxM, eWiseAdd/eWiseMult, the four applies, select by value and by every
// Table IV row cut, assign and scalar assign, extract, RowAssign/ColAssign,
// Kronecker, Transpose, MatrixReduce, Build with a dup operator, the
// SetElement/RemoveElement merge, every Table III matrix format and
// serialize/deserialize — with masks (structural; valued with stored falses;
// complemented; empty; denser than the product; for the boolean domain the
// output itself), accumulators (non-commutative ones among them), replace
// and transpose descriptors, outputs that are also operands, interleaved
// Wait(Complete|Materialize), an operator that panics and dimension
// mismatches. Between steps an operand is placed in a resident form (sorted,
// bitmap, full) from the test side. Matrices are n×n, n×m, m×n or m×m: a
// step takes operands whose shapes fit, resizes its output first when the
// output takes another shape, and is checked for the shape too.
//
// One map oracle computes each program's states once; every program then
// runs under blocking and nonblocking × every Dir pin × the tagged semiring
// and its untagged twin (operators as closures) × one thread and two with
// withChunk(1), and every run must agree with the oracle on bits
// (math.Float64bits) and on the §V error of every call and every Wait. So
// push ≡ pull, blocking ≡ nonblocking, a row cut ≡ its closure and
// VxM(u, A) ≡ MxV(Aᵀ, u) — the generator draws either, over the matrices
// earlier steps wrote — hold on the same programs. internal/sparse has the
// kernel-level generator. Rerun a failure with GRB_DIFF_SEED=<seed>;
// GRB_DIFF_SEED=random draws one from the clock.

// progSeed is the package's one seed parser: a fixed default, logged;
// GRB_DIFF_SEED=<n> pins another, =random draws one from the clock.
func progSeed(t testing.TB) int64 {
	t.Helper()
	seed := int64(20210521)
	switch s := os.Getenv("GRB_DIFF_SEED"); s {
	case "":
	case "random":
		seed = time.Now().UnixNano() //grblint:ignore seedcheck -- GRB_DIFF_SEED=random asks for a clock seed, which is logged
	default:
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad GRB_DIFF_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("seed=%d (pin with GRB_DIFF_SEED to reproduce)", seed)
	return seed
}

// The steps.
const (
	gMxV = iota
	gVxM
	gEWiseAdd
	gEWiseMult
	gApply
	gAssign
	gAssignScalar
	gReduceRows
	gReduce
	gExtract
	gExport
	gWait
	gForm
	gPanic // an operator that panics, then a Wait and a Clear
	gDimErr
	gSelect     // VectorSelect by value (ValueNE) or position (RowLE)
	gSetElement // SetElement or RemoveElement, pending in the nonblocking mode
	// The matrix steps.
	gMxM
	gEWiseAddM
	gEWiseMultM
	gApplyM
	gSelectM     // MatrixSelect by value (ValueNE) or a Table IV row cut
	gAssignM     // MatrixAssign or MatrixAssignScalar
	gExtractM    // MatrixExtract
	gLineAssign  // RowAssign or ColAssign
	gKron        // Kronecker into a fresh n²×n² matrix, n ≤ 5
	gTranspose   // Transpose
	gReduceM     // MatrixReduce
	gBuildM      // Build with a dup operator
	gSetElementM // a run of SetElement and RemoveElement, merged
	gExportM     // export ∘ import in a Table III format, or serialize ∘ deserialize
	numOps
)

// apiKit is one value domain: a tagged semiring, the operators the
// element-wise steps and accumulators draw from, a unary and an index
// operator, and a value draw.
type apiKit[T comparable] struct {
	name  string
	sr    Semiring[T, T, T]
	ops   []BinaryOp[T, T, T]
	unary UnaryOp[T, T]
	index IndexUnaryOp[T, int, T]
	mk    func(*rand.Rand) T
}

// spiked draws a standard normal, but one value in eight is ±0.0 or ±Inf.
func spiked(r *rand.Rand) float64 {
	if r.Intn(8) == 0 {
		return [...]float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}[r.Intn(4)]
	}
	return r.NormFloat64()
}

// floatKit's operators never negate: Go leaves the payload of NaN + NaN to
// the compiler's operand order, so the NaNs a program makes (Inf - Inf,
// 0 × Inf) must all carry the one payload, which a sign flip would not keep.
func floatKit(name string, sr Semiring[float64, float64, float64]) apiKit[float64] {
	return apiKit[float64]{name: name, sr: sr, mk: spiked, unary: func(x float64) float64 { return 3 - x },
		ops:   []BinaryOp[float64, float64, float64]{sr.Add.Op, Plus[float64], Times[float64], Minus[float64], First[float64, float64]},
		index: func(x float64, i, j Index, s int) float64 { return x + float64(i*s-j) }}
}

var (
	kitPlusTimes = floatKit("plus_times", PlusTimes[float64]())
	kitMinPlus   = floatKit("min_plus", MinPlus[float64]())
	kitInt       = apiKit[int64]{name: "plus_times/int64", sr: PlusTimes[int64](), unary: AInv[int64],
		ops:   []BinaryOp[int64, int64, int64]{Plus[int64], Minus[int64], First[int64, int64], Max[int64]},
		index: func(x int64, i, j Index, s int) int64 { return x - int64(i+s) + int64(2*j) },
		mk:    func(r *rand.Rand) int64 { return int64(r.Intn(19) - 9) }}
	kitBool = apiKit[bool]{name: "lor_land", sr: LOrLAnd(), unary: LNot,
		ops:   []BinaryOp[bool, bool, bool]{LOr, LAnd, LXor, First[bool, bool], func(x, y bool) bool { return x && !y }},
		index: func(x bool, i, j Index, s int) bool { return x != ((i+s+j)%2 == 0) },
		mk:    func(r *rand.Rand) bool { return r.Intn(3) > 0 }}
	// kitPlusPair is kitInt's domain under the structure-only counting
	// semiring, whose family loops nothing else reaches.
	kitPlusPair = func() apiKit[int64] {
		k := kitInt
		k.name, k.sr = "plus_pair/int64", PlusPair[int64]()
		return k
	}()
)

// mkey is a matrix position, (row, column).
type mkey = [2]int

// gStep is one step of a program, with what the oracle expects of it. A
// matrix step's out, a and b name matrix slots, and its mask a matrix mask
// slot of the output's shape or, from 3, a matrix value slot; RowAssign and
// ColAssign take a vector mask, as the vector steps do.
type gStep[T any] struct {
	op, out, a, b int
	mask          int // -1 none; 0..2 a mask slot; 3+k value slot k (boolean domain)
	accum, fn     int // accum -1 none; fn the operator, variant or format
	desc          Descriptor
	idx, jdx      []Index // an index list; a matrix region's rows and columns
	s, cut        int     // a positional select's threshold and operator; the line RowAssign/ColAssign writes
	x             T
	src           map[int]T  // gAssign, gLineAssign: the source's entries
	msrc          map[mkey]T // gAssignM: the source's entries, nil for slot a
	tuples        []entry[T] // gBuildM, gSetElementM
	shape         [2]int     // a matrix step's output shape, its mask's too
	resize        bool       // the output is resized to shape first

	want    map[int]T  // the output's entries after the step
	mwant   map[mkey]T // a matrix step's output after it
	read    map[int]T  // gExtract: the read slot's entries
	wantVal T          // gReduce, gReduceM
	fails   bool       // gPanic: the step parks Panic on out
	wait    WaitMode
}

// gProg is a generated program: its sizes, initial slots, steps. Its
// vectors have n positions; its matrices are n×n, n×m, m×n or m×m, where m
// is n in about a quarter of the programs (slot 0, which the matrix-vector
// steps read, is n×n throughout).
type gProg[T comparable] struct {
	n, m         int
	init, final  [4]map[int]T
	masks        [3]map[int]bool
	mats, mfinal [4]map[mkey]T
	shapes, fin  [4][2]int                // the matrix slots' shapes, at the start and the end
	mmasks       map[[3]int]map[mkey]bool // mask slot and shape: valued with stored falses, sparse and dense (or top-heavy); empty
	matCOO       [4]coo[T]                // mats and mmasks as Build takes them, sorted once
	maskCOO      map[[3]int]coo[bool]
	steps        []gStep[T]
}

// cutOps are the Table IV positional operators, in cutOrder's order.
func cutOps[T any]() []IndexUnaryOp[T, int, bool] {
	return []IndexUnaryOp[T, int, bool]{TriL[T], TriU[T], Diag[T], Offdiag[T], RowLE[T], RowGT[T], ColLE[T], ColGT[T]}
}

// genProgram draws a program of the operations in ops (none: every one) and
// runs the oracle over it.
func genProgram[T comparable](rng *rand.Rand, k apiKit[T], steps int, ops ...int) *gProg[T] {
	sizes := []int{1, 5, 40, 640}
	n, m := sizes[rng.Intn(4)], sizes[rng.Intn(4)]
	for m == n && rng.Intn(4) > 0 {
		m = sizes[rng.Intn(4)]
	}
	p := &gProg[T]{n: n, m: m, mmasks: map[[3]int]map[mkey]bool{}, maskCOO: map[[3]int]coo[bool]{}}
	draw := func(count int, val func() T) map[int]T {
		v := map[int]T{}
		for _, i := range rng.Perm(n)[:count] {
			v[i] = val()
		}
		return v
	}
	dim := func() int { return [2]int{n, m}[rng.Intn(2)] }
	// A matrix holds three entries a row, a hypersparse few, every
	// position (up to 40×40) or none.
	someM := func(rows, cols int) int {
		if rows*cols > 40*40 {
			return []int{3 * rows, rows/16 + 1, 3 * rows}[rng.Intn(3)]
		}
		return []int{3 * rows, rows/16 + 1, rows * cols, 0}[rng.Intn(4)]
	}
	some := func() int { return []int{0, rng.Intn(n/2 + 1), max(n-1, 0), n}[rng.Intn(4)] }
	for s := range p.init {
		p.init[s] = draw(some(), func() T { return k.mk(rng) })
		p.shapes[s] = [2]int{dim(), dim()}
		p.mats[s] = drawM(rng, p.shapes[s], someM(p.shapes[s][0], p.shapes[s][1]), func() T { return k.mk(rng) })
	}
	p.shapes[0] = [2]int{n, n}
	p.mats[0] = drawM(rng, p.shapes[0], []int{3 * n, n/16 + 1}[rng.Intn(2)], func() T { return k.mk(rng) })
	flag := func() bool { return rng.Intn(3) > 0 }
	p.masks = [3]map[int]bool{{}, {}, {}}
	for _, i := range rng.Perm(n)[:rng.Intn(n/2+1)] {
		p.masks[0][i] = flag()
	}
	for i := 0; i < n; i++ {
		p.masks[1][i] = flag()
	}
	// maskAt is mask slot s at shape sh, drawn the first time a step asks.
	maskAt := func(s int, sh [2]int) map[mkey]bool {
		key := [3]int{s, sh[0], sh[1]}
		if _, ok := p.mmasks[key]; !ok {
			rows, long := sh[0], max(sh[0], sh[1])
			if s == 1 && rng.Intn(2) == 0 { // dense in its upper rows only, so that a product's row ranges may route apart
				rows = rows/2 + 1
			}
			p.mmasks[key] = drawM(rng, [2]int{rows, sh[1]}, []int{2 * long, 12 * long, 0}[s], flag)
			p.maskCOO[key] = cooOf(p.mmasks[key])
		}
		return p.mmasks[key]
	}
	st, mst, shp := p.init, p.mats, p.shapes
	for s := range st {
		st[s], mst[s], p.matCOO[s] = clone(st[s]), clone(mst[s]), cooOf(mst[s])
	}
	_, isBool := any(k.mk(rng)).(bool)
	list := func(dim, count int) []Index { // a repeated target among count positions
		idx := rng.Perm(dim)[:count]
		return append(idx, idx[rng.Intn(len(idx))])
	}
	oriented := func(s int, tr bool) [2]int {
		if tr {
			return [2]int{shp[s][1], shp[s][0]}
		}
		return shp[s]
	}
	// pick is a slot and an orientation of rows×cols (-1: any), if one has it.
	pick := func(rows, cols int) (slot int, tr, ok bool) {
		flip := rng.Intn(2) == 0
		for _, s := range rng.Perm(4) {
			for _, tr := range []bool{flip, !flip} {
				if sh := oriented(s, tr); (rows < 0 || sh[0] == rows) && (cols < 0 || sh[1] == cols) {
					return s, tr, true
				}
			}
		}
		return 0, false, false
	}
	for len(p.steps) < steps {
		g := gStep[T]{op: drawOp(rng, ops), out: rng.Intn(4), a: rng.Intn(4), b: rng.Intn(4), mask: -1, accum: -1,
			fn: rng.Intn(16), x: k.mk(rng)}
		if rng.Intn(3) > 0 {
			g.mask = rng.Intn(3)
			if isBool && rng.Intn(3) == 0 {
				g.mask = 3 + rng.Intn(4)
			}
		}
		if rng.Intn(2) == 0 {
			g.accum = rng.Intn(len(k.ops))
		}
		g.desc = Descriptor{Replace: rng.Intn(3) == 0, Structure: rng.Intn(2) == 0, Complement: rng.Intn(3) == 0,
			Transpose0: rng.Intn(3) == 0, Transpose1: rng.Intn(3) == 0}
		if g.op == gEWiseAdd && rng.Intn(3) == 0 {
			// w = u ⊕ w: the sequence grants the second operand's storage.
			g.b, g.mask, g.accum, g.desc.Complement = g.out, -1, -1, false
		}
		if g.op == gKron && max(n, m) > 5 {
			g.op = gTranspose
		}
		// The operands' shapes: an operation whose operands no slot fits
		// is a transpose instead.
		A := oriented(g.a, g.desc.Transpose0)
		var ok bool
		switch g.op {
		case gMxV, gVxM:
			g.b, _, _ = pick(n, n)
		case gReduceRows:
			g.b, g.desc.Transpose0, _ = pick(n, -1)
		case gMxM:
			g.b, g.desc.Transpose1, ok = pick(A[1], -1)
			if !ok || flops(transposed(mst[g.a], g.desc.Transpose0), transposed(mst[g.b], g.desc.Transpose1)) > 1<<16 {
				g.op = gTranspose // so is a product past the test's budget
			}
		case gEWiseAddM, gEWiseMultM:
			if g.b, g.desc.Transpose1, ok = pick(A[0], A[1]); !ok {
				g.op = gTranspose
			}
		}
		B := oriented(g.b, g.desc.Transpose1)
		switch g.op {
		case gMxM:
			g.shape = [2]int{A[0], B[1]}
		case gEWiseAddM, gEWiseMultM, gApplyM, gSelectM:
			g.shape = A
		case gTranspose:
			g.shape = [2]int{A[1], A[0]}
		case gExtractM:
			if g.shape = A; g.fn%2 == 0 { // lists as long as the output's dimensions
				g.shape = shp[g.out]
			}
		case gKron:
			g.shape = [2]int{A[0] * B[0], A[1] * B[1]}
		case gBuildM:
			g.shape = [2]int{dim(), dim()}
		case gExportM:
			g.shape = shp[g.a]
		default:
			g.shape = shp[g.out]
		}
		if g.op >= gMxM && g.op != gKron && g.shape != shp[g.out] {
			// out takes another shape: never slot 0, and — resized before the
			// operation runs — never an operand.
			for g.out == 0 || g.op != gBuildM && g.op != gExportM && (g.out == g.a || g.out == g.b) {
				g.out = rng.Intn(4)
			}
			g.resize = g.op != gBuildM && g.op != gExportM
			kept := map[mkey]T{}
			for e, x := range mst[g.out] {
				if e[0] < g.shape[0] && e[1] < g.shape[1] {
					kept[e] = x
				}
			}
			mst[g.out], shp[g.out] = kept, g.shape
		}
		line := 0 // gLineAssign: the line's length
		if g.op == gLineAssign {
			line = shp[g.out][1-g.fn%2]
			if line != n { // the vector masks have n positions
				g.mask = -1
			}
		}
		if g.op >= gMxM && g.op != gLineAssign && g.mask >= 3 && shp[g.mask-3] != g.shape {
			g.mask = (g.mask - 3) % 3 // a mask slot, of the output's shape
		}
		mask, mmask := func(int) bool { return !g.desc.Complement }, func(mkey) bool { return !g.desc.Complement }
		switch {
		case g.mask < 0:
		case g.mask < 3:
			mask = admitFn(p.masks[g.mask], g.desc)
			if g.op >= gMxM || g.op == gDimErr {
				mmask = admitFn(maskAt(g.mask, g.shape), g.desc)
			}
		default:
			mask = admitFn(any(st[g.mask-3]).(map[int]bool), g.desc)
			mmask = admitFn(any(mst[g.mask-3]).(map[mkey]bool), g.desc)
		}
		var accum BinaryOp[T, T, T]
		if g.accum >= 0 {
			accum = k.ops[g.accum]
		}
		op := k.ops[g.fn%len(k.ops)]
		c, u, v := st[g.out], st[g.a], st[g.b]
		mc, ma, mb := mst[g.out], mst[g.a], mst[g.b]
		if g.op >= gMxM {
			ma, mb = transposed(ma, g.desc.Transpose0), transposed(mb, g.desc.Transpose1)
		}
		nr, nc := g.shape[0], g.shape[1]
		var t map[int]T
		var mt map[mkey]T
		switch g.op {
		case gMxV, gVxM:
			// VxM(u, A) is MxV(Aᵀ, u): both are the product over the
			// orientation the transpose flag names. Either reads slot b.
			tr := !g.desc.Transpose0
			if g.op == gVxM {
				tr = g.desc.Transpose1
			}
			t = product(k.sr, transposed(mst[g.b], tr), u, g.op == gVxM)
		case gEWiseAdd:
			t = unionOf(u, v, op)
		case gEWiseMult:
			t = intersectOf(u, v, op)
		case gApply:
			t = map[int]T{}
			for i, x := range u {
				t[i] = [...]T{k.unary(x), op(g.x, x), op(x, g.x), k.index(x, i, 0, g.fn)}[g.fn%4]
			}
		case gAssign, gAssignScalar:
			if g.fn%2 == 0 {
				g.idx = list(n, 1+rng.Intn(n))
			}
			src := func(int) (T, bool) { return g.x, true }
			if g.op == gAssign {
				g.src = clone(u)
				if g.idx != nil {
					g.src = map[int]T{}
					for _, i := range rng.Perm(len(g.idx))[:rng.Intn(len(g.idx)+1)] {
						g.src[i] = k.mk(rng)
					}
				}
				src = func(i int) (T, bool) { x, ok := g.src[i]; return x, ok }
			}
			st[g.out] = writeBackOf(c, assignOf(n, c, src, g.idx, accum), nil, mask, g.desc.Replace)
		case gReduceRows:
			t = map[int]T{}
			for _, e := range sortedEntries(transposed(mst[g.b], g.desc.Transpose0)) {
				if x, ok := t[e.i]; ok {
					t[e.i] = k.sr.Add.Op(x, e.x)
				} else {
					t[e.i] = e.x
				}
			}
		case gReduce:
			g.wantVal = foldOf(k.sr.Add, sortedKeys(u), func(i int) T { return u[i] })
		case gSelect:
			t = map[int]T{}
			for i, x := range u {
				if g.fn%2 == 0 && ValueNE(x, i, 0, g.x) || g.fn%2 == 1 && RowLE(x, i, 0, g.fn) {
					t[i] = x
				}
			}
		case gSetElement:
			g.idx = []Index{rng.Intn(n)}
			st[g.out] = clone(c)
			if g.fn%3 == 0 {
				delete(st[g.out], g.idx[0])
			} else {
				st[g.out][g.idx[0]] = g.x
			}
		case gExtract:
			if g.fn%2 == 0 {
				g.read = clone(u)
				break
			}
			// u(idx) over n listed positions, repeats among them.
			g.idx, t = make([]Index, n), map[int]T{}
			for k2 := range g.idx {
				g.idx[k2] = rng.Intn(n)
				if x, ok := u[g.idx[k2]]; ok {
					t[k2] = x
				}
			}
		case gExport:
			if len(u) < n && g.fn%3 == 1 && g.fn < 12 {
				g.fn = 0 // the dense format needs every position
			}
			st[g.out] = clone(u)
		case gWait:
			g.wait = [...]WaitMode{Complete, Materialize}[g.fn%2]
		case gPanic:
			g.fails = len(u) > 0
			g.wait = [...]WaitMode{Complete, Materialize}[g.fn%2]
			st[g.out] = map[int]T{} // cleared after the Wait
		case gMxM:
			mt = mxmOf(k.sr, ma, mb)
		case gEWiseAddM:
			mt = unionOf(ma, mb, op)
		case gEWiseMultM:
			mt = intersectOf(ma, mb, op)
		case gApplyM:
			mt = map[mkey]T{}
			for e, x := range ma {
				mt[e] = [...]T{k.unary(x), op(g.x, x), op(x, g.x), k.index(x, e[0], e[1], g.fn)}[g.fn%4]
			}
		case gSelectM:
			g.cut, g.s = rng.Intn(8), []int{math.MinInt, -nr, -2, -1, 0, 1, 3, nc, math.MaxInt}[rng.Intn(9)]
			mt = map[mkey]T{}
			for e, x := range ma {
				if g.fn%2 == 0 && ValueNE(x, e[0], e[1], g.x) || g.fn%2 == 1 && cutOps[T]()[g.cut](x, e[0], e[1], g.s) {
					mt[e] = x
				}
			}
		case gAssignM:
			// A region of every position is only drawn up to 40×40.
			if big := nr*nc > 40*40; big || rng.Intn(2) == 0 {
				g.idx = list(nr, 1+rng.Intn(min(nr, 8)))
			}
			if big := nr*nc > 40*40; big || rng.Intn(2) == 0 {
				g.jdx = list(nc, 1+rng.Intn(nc))
			}
			src := func(int, int) (T, bool) { return g.x, true }
			switch {
			case g.fn%2 == 1: // MatrixAssignScalar
			case g.idx == nil && g.jdx == nil && oriented(g.a, g.desc.Transpose0) == g.shape:
				src = func(i, j int) (T, bool) { x, ok := ma[mkey{i, j}]; return x, ok }
			default:
				sr, sc := lenOr(g.idx, nr), lenOr(g.jdx, nc)
				g.msrc = map[mkey]T{}
				for range rng.Intn(3*max(sr, sc) + 1) {
					g.msrc[mkey{rng.Intn(sr), rng.Intn(sc)}] = k.mk(rng)
				}
				src = func(i, j int) (T, bool) { x, ok := g.msrc[mkey{i, j}]; return x, ok }
			}
			mst[g.out] = writeBackOf(mc, assignMOf(nr, nc, mc, src, g.idx, g.jdx, accum), nil, mmask, g.desc.Replace)
		case gExtractM:
			if g.fn%2 == 0 {
				g.idx, g.jdx = make([]Index, nr), make([]Index, nc)
				for k2 := range g.idx {
					g.idx[k2] = rng.Intn(A[0])
				}
				for k2 := range g.jdx {
					g.jdx[k2] = rng.Intn(A[1])
				}
			}
			mt = map[mkey]T{}
			for i := 0; i < nr; i++ {
				for j := 0; j < nc; j++ {
					if x, ok := ma[mkey{at(g.idx, i), at(g.jdx, j)}]; ok {
						mt[mkey{i, j}] = x
					}
				}
			}
		case gLineAssign:
			col := g.fn%2 == 1
			g.s = rng.Intn(shp[g.out][g.fn%2]) // a row, or a column
			if g.fn%4 < 2 {
				g.jdx = list(line, 1+rng.Intn(line))
			}
			g.src = map[int]T{}
			for i := range lenOr(g.jdx, line) {
				if rng.Intn(2) == 0 {
					g.src[i] = k.mk(rng)
				}
			}
			was := lineOf(mc, g.s, col)
			z := assignOf(line, was, func(i int) (T, bool) { x, ok := g.src[i]; return x, ok }, g.jdx, accum)
			mst[g.out] = withLine(mc, g.s, col, writeBackOf(was, z, nil, mask, g.desc.Replace))
		case gKron:
			g.mwant = map[mkey]T{}
			for e, x := range ma {
				for f, y := range mb {
					g.mwant[mkey{e[0]*B[0] + f[0], e[1]*B[1] + f[1]}] = op(x, y)
				}
			}
		case gTranspose:
			mt = transposed(ma, true)
		case gReduceM:
			es := sortedEntries(mst[g.a])
			g.wantVal = foldOf(k.sr.Add, es, func(e entry[T]) T { return e.x })
		case gBuildM:
			for range rng.Intn(3*nr + 1) {
				e := entry[T]{i: rng.Intn(nr), j: rng.Intn(nc), x: k.mk(rng)}
				if len(g.tuples) > 0 && rng.Intn(3) == 0 { // a duplicate
					f := g.tuples[rng.Intn(len(g.tuples))]
					e.i, e.j = f.i, f.j
				}
				g.tuples = append(g.tuples, e)
			}
			mst[g.out] = map[mkey]T{}
			for _, e := range g.tuples {
				x, ok := mst[g.out][mkey{e.i, e.j}]
				if ok {
					e.x = op(x, e.x) // the dup operator: the earlier value first
				}
				mst[g.out][mkey{e.i, e.j}] = e.x
			}
		case gSetElementM:
			mst[g.out] = clone(mc)
			for range 1 + rng.Intn(4) {
				e := entry[T]{i: rng.Intn(nr), j: rng.Intn(nc), x: k.mk(rng), del: rng.Intn(3) == 0}
				if e.del {
					delete(mst[g.out], mkey{e.i, e.j})
				} else {
					mst[g.out][mkey{e.i, e.j}] = e.x
				}
				g.tuples = append(g.tuples, e)
			}
		case gExportM:
			mst[g.out] = clone(mst[g.a])
			if dense := g.fn%6 >= 3 && g.fn%6 < 5 && g.fn < 12; dense && nr*nc > 40*40 {
				g.fn = 0 // too many positions
			} else if dense { // a dense export writes zeros at the absent positions
				var zero T
				for key := range nr * nc {
					if _, ok := mst[g.out][mkey{key / nc, key % nc}]; !ok {
						mst[g.out][mkey{key / nc, key % nc}] = zero
					}
				}
			}
		}
		if t != nil {
			st[g.out] = writeBackOf(c, t, accum, mask, g.desc.Replace)
		}
		if mt != nil {
			mst[g.out] = writeBackOf(mc, mt, accum, mmask, g.desc.Replace)
		}
		if g.want = clone(st[g.out]); g.op >= gMxM && g.mwant == nil {
			g.mwant = clone(mst[g.out])
		}
		p.steps = append(p.steps, g)
	}
	p.final, p.mfinal, p.fin = st, mst, shp
	return p
}

// drawOp is one of ops, or of every operation when ops is empty.
func drawOp(rng *rand.Rand, ops []int) int {
	if len(ops) == 0 {
		return rng.Intn(numOps)
	}
	return ops[rng.Intn(len(ops))]
}

// drawM is a matrix of the shape sh holding count entries at random
// positions, or every position when count reaches their number.
func drawM[T any](rng *rand.Rand, sh [2]int, count int, val func() T) map[mkey]T {
	m, all := map[mkey]T{}, sh[0]*sh[1]
	for e := 0; e < min(count, all); e++ {
		key := mkey{e / sh[1], e % sh[1]}
		if count < all {
			key = mkey{rng.Intn(sh[0]), rng.Intn(sh[1])}
		}
		m[key] = val()
	}
	return m
}

// apiConfig is one way to run a program.
type apiConfig struct {
	mode    Mode
	dir     Direction
	plain   bool // the semiring's untagged twin, operators as closures
	threads int
}

func apiConfigs() (cs []apiConfig) {
	for _, mode := range []Mode{Blocking, NonBlocking} {
		for _, dir := range []Direction{DirAuto, DirPush, DirPull} {
			for _, plain := range []bool{false, true} {
				for _, threads := range []int{1, 2} { // 2: more than one (runProgram)
					cs = append(cs, apiConfig{mode, dir, plain, threads})
				}
			}
		}
	}
	return cs
}

// gRun is one program under one configuration.
type gRun[T comparable] struct {
	t     *testing.T
	k     apiKit[T]
	p     *gProg[T]
	cfg   apiConfig
	ctx   *Context
	sr    Semiring[T, T, T]
	vs    [4]*Vector[T]
	ms    [3]*Vector[bool]
	mats  [4]*Matrix[T]
	mms   map[[3]int]*Matrix[bool] // by mask slot and shape, built the first time a step reads one
	rng   *rand.Rand
	probe bool            // run each product again under budgets (probeBudgets)
	forms map[string]bool // when non-nil, the forms of pinned products that yield the kernel's output: "push/bitmap", ...
	label string
}

// runPrograms generates count programs of each kit's domain and runs each
// under every configuration keep keeps (nil: all).
func runPrograms(t *testing.T, count int, keep func(apiConfig) bool) {
	setMode(t, NonBlocking)
	rng := rand.New(rand.NewSource(progSeed(t)))
	programs(t, rng, kitPlusTimes, count, keep)
	programs(t, rng, kitMinPlus, count, keep)
	programs(t, rng, kitInt, count, keep)
	programs(t, rng, kitBool, count, keep)
	programs(t, rng, kitPlusPair, count, keep)
}

func programs[T comparable](t *testing.T, rng *rand.Rand, k apiKit[T], count int, keep func(apiConfig) bool, ops ...int) {
	for i := 0; i < count; i++ {
		p := genProgram(rng, k, 24, ops...)
		for _, cfg := range apiConfigs() {
			if keep == nil || keep(cfg) {
				runProgram(t, k, p, cfg, rand.New(rand.NewSource(int64(i))), fmt.Sprintf("%s program %d", k.name, i), false, nil)
			}
		}
	}
}

func runProgram[T comparable](t *testing.T, k apiKit[T], p *gProg[T], cfg apiConfig, rng *rand.Rand, name string, probe bool,
	forms map[string]bool) {
	t.Helper()
	if cfg.threads > 1 {
		cfg.threads <<= rng.Intn(2) // 2 or 4 workers, drawn once a program
	}
	ctx := ck1(NewContext(cfg.mode, nil, WithThreads(cfg.threads), withChunk(1)))
	defer func() { ck(ctx.Free()) }()
	r := &gRun[T]{t: t, k: k, p: p, cfg: cfg, ctx: ctx, sr: k.sr, rng: rng, probe: probe, forms: forms, mms: map[[3]int]*Matrix[bool]{}}
	if cfg.plain {
		r.sr = Semiring[T, T, T]{Add: Monoid[T]{Op: k.sr.Add.Op, Identity: k.sr.Add.Identity}, Mul: k.sr.Mul}
	}
	in := InContext(ctx)
	for s, m := range p.init {
		r.vs[s], r.mats[s] = buildVec(p.n, m, in), p.matCOO[s].build(p.shapes[s][0], p.shapes[s][1], in)
	}
	for s, m := range p.masks {
		r.ms[s] = buildVec(p.n, m, in)
	}
	for i, g := range p.steps {
		r.label = fmt.Sprintf("%s (n=%d m=%d) step %d op %d [%+v]", name, p.n, p.m, i, g.op, cfg)
		r.step(g)
	}
	for s := range r.vs {
		r.same(fmt.Sprintf("slot %d at the end", s), r.vs[s], p.final[s])
		r.sameM(fmt.Sprintf("matrix slot %d at the end", s), r.mats[s], p.fin[s], p.mfinal[s])
	}
}

// buildVec is an n-vector holding m's entries.
func buildVec[T any](n int, m map[int]T, opts ...ObjOption) *Vector[T] {
	v := ck1(NewVector[T](n, opts...))
	if I, X := keysVals(m); len(I) > 0 {
		ck(v.Build(I, X, nil))
	}
	return v
}

// coo is a matrix's entries in row-major order, as Build takes them.
type coo[T any] struct {
	I, J []Index
	X    []T
}

func cooOf[T any](m map[mkey]T) (c coo[T]) {
	for _, e := range sortedEntries(m) {
		c.I, c.J, c.X = append(c.I, e.i), append(c.J, e.j), append(c.X, e.x)
	}
	return c
}

// build is a rows×cols matrix holding c's entries.
func (c coo[T]) build(rows, cols int, opts ...ObjOption) *Matrix[T] {
	a := ck1(NewMatrix[T](rows, cols, opts...))
	if len(c.I) > 0 {
		ck(a.Build(c.I, c.J, c.X, nil))
	}
	return a
}

func (r *gRun[T]) step(g gStep[T]) {
	t, k, n := r.t, r.k, r.p.n
	w, u, v := r.vs[g.out], r.vs[g.a], r.vs[g.b]
	C, A, B := r.mats[g.out], r.mats[g.a], r.mats[g.b]
	var mask *Vector[bool]
	var mmask *Matrix[bool]
	switch {
	case g.mask >= 3:
		mask, mmask = any(r.vs[g.mask-3]).(*Vector[bool]), any(r.mats[g.mask-3]).(*Matrix[bool])
	case g.mask >= 0 && (g.op >= gMxM || g.op == gDimErr):
		key := [3]int{g.mask, g.shape[0], g.shape[1]}
		if r.mms[key] == nil {
			r.mms[key] = r.p.maskCOO[key].build(g.shape[0], g.shape[1], InContext(r.ctx))
		}
		mask, mmask = r.ms[g.mask], r.mms[key]
	case g.mask >= 0:
		mask = r.ms[g.mask]
	}
	if g.resize {
		ck(C.Resize(g.shape[0], g.shape[1]))
	}
	var accum BinaryOp[T, T, T]
	if g.accum >= 0 {
		accum = k.ops[g.accum]
	}
	op := k.ops[g.fn%len(k.ops)]
	if r.cfg.plain { // a closure no code-identity table recognises
		op0 := op
		op = func(x, y T) T { return op0(x, y) }
	}
	d := g.desc
	d.Dir = r.cfg.dir
	if r.probe && (g.op == gMxV || g.op == gVxM) {
		r.probeBudgets(g, mask, accum, d)
	}
	var err error
	switch g.op {
	case gMxV:
		err = MxV(w, mask, accum, r.sr, B, u, &d)
	case gVxM:
		err = VxM(w, mask, accum, r.sr, u, B, &d)
	case gEWiseAdd:
		if g.b == g.out && g.mask < 0 && g.accum < 0 { // both operands in a position-indexed form
			r.vs[g.a] = placeVec(r.ctx, u, 1)
			r.vs[g.out] = placeVec(r.ctx, r.vs[g.out], 1)
			w, u, v = r.vs[g.out], r.vs[g.a], r.vs[g.out]
		}
		err = EWiseAddVector(w, mask, accum, op, u, v, &d)
	case gEWiseMult:
		err = EWiseMultVector(w, mask, accum, op, u, v, &d)
	case gApply:
		switch g.fn % 4 {
		case 0:
			err = VectorApply(w, mask, accum, k.unary, u, &d)
		case 1:
			if g.fn < 8 {
				err = VectorApplyBindFirst(w, mask, accum, op, g.x, u, &d)
			} else {
				err = VectorApplyBindFirstScalar(w, mask, accum, op, ck1(ScalarOf(g.x)), u, &d)
			}
		case 2:
			if g.fn < 8 {
				err = VectorApplyBindSecond(w, mask, accum, op, u, g.x, &d)
			} else {
				err = VectorApplyBindSecondScalar(w, mask, accum, op, u, ck1(ScalarOf(g.x)), &d)
			}
		default:
			if g.fn < 8 {
				err = VectorApplyIndexOp(w, mask, accum, k.index, u, g.fn, &d)
			} else {
				err = VectorApplyIndexOpScalar(w, mask, accum, k.index, u, ck1(ScalarOf(g.fn)), &d)
			}
		}
	case gAssign:
		src := u
		if g.idx != nil {
			src = buildVec(len(g.idx), g.src, InContext(r.ctx))
		}
		err = VectorAssign(w, mask, accum, src, g.idx, &d)
	case gAssignScalar:
		err = VectorAssignScalar(w, mask, accum, g.x, g.idx, &d)
	case gReduceRows:
		err = MatrixReduceToVector(w, mask, accum, r.sr.Add, B, &d)
	case gReduce:
		got := ck1(VectorReduce(r.sr.Add, u))
		if !bitsEqual(got, g.wantVal) {
			t.Fatalf("%s: VectorReduce = %v, want %v", r.label, got, g.wantVal)
		}
	case gExtract:
		if g.idx == nil {
			r.same("ExtractTuples", u, g.read)
		} else {
			err = VectorExtract(w, mask, accum, u, g.idx, &d)
		}
	case gExport: // export ∘ import and serialize ∘ deserialize = id, whatever form u is resident in
		if g.fn >= 12 {
			r.vs[g.out] = ck1(VectorDeserialize[T](ck1(u.SerializeBytes()), InContext(r.ctx)))
		} else {
			format := [...]Format{FormatSparseVector, FormatDenseVector, FormatBitmapVector}[g.fn%3]
			I, X := ck2(u.VectorExport(format))
			r.vs[g.out] = ck1(VectorImport(n, I, X, format, InContext(r.ctx)))
		}
		r.same("export∘import", r.vs[g.out], g.want)
	case gWait:
		err = w.Wait(g.wait)
	case gForm: // a value slot or, from b, a mask
		r.vs[g.out] = placeVec(r.ctx, w, g.fn%3)
		if g.b < 3 {
			r.ms[g.b] = placeVec(r.ctx, r.ms[g.b], g.fn/3%3)
		}
	case gPanic:
		// §V: the call reports the panic in the blocking mode, the
		// materializing Wait in both; Clear drops it.
		parks := func(err error, yes bool, what string) {
			if want := map[bool]Info{false: Success, true: Panic}[g.fails && yes]; Code(err) != want {
				t.Fatalf("%s: %s returned %v, want %v", r.label, what, err, want)
			}
		}
		parks(VectorApply(w, nil, nil, func(T) T { panic("operator bug") }, u, nil), r.cfg.mode == Blocking, "the panicking apply")
		parks(w.Wait(g.wait), g.wait == Materialize, "the Wait after it")
		err = w.Clear()
	case gSelect:
		switch {
		case g.fn%2 == 0 && g.fn < 8:
			err = VectorSelect(w, mask, accum, ValueNE[T], u, g.x, &d)
		case g.fn%2 == 0:
			err = VectorSelectScalar(w, mask, accum, ValueNE[T], u, ck1(ScalarOf(g.x)), &d)
		case g.fn < 8:
			err = VectorSelect(w, mask, accum, RowLE[T], u, g.fn, &d)
		default:
			err = VectorSelectScalar(w, mask, accum, RowLE[T], u, ck1(ScalarOf(g.fn)), &d)
		}
	case gSetElement:
		if g.fn%3 == 0 {
			err = w.RemoveElement(g.idx[0])
		} else {
			err = w.SetElement(g.x, g.idx[0])
		}
	case gDimErr:
		if g.fn%2 == 0 {
			short := ck1(NewVector[T](n+1, InContext(r.ctx)))
			wantCode(t, EWiseAddVector(w, mask, accum, op, u, short, &d), DimensionMismatch)
		} else {
			tall := ck1(NewMatrix[T](max(n, r.p.m)+1, n, InContext(r.ctx)))
			wantCode(t, MxM(C, mmask, accum, r.sr, A, tall, &d), DimensionMismatch)
		}
	default:
		err = r.matrixStep(g, C, A, B, mask, mmask, accum, op, d)
	}
	if err != nil {
		t.Fatalf("%s: %v", r.label, err)
	}
	if r.forms != nil && (g.op == gMxV || g.op == gVxM) && r.cfg.dir != DirAuto && accum == nil && (mask == nil || d.Replace) {
		r.tallyForm(w) // the kernel's output, installed as it is (kernelMasked)
	}
	if r.rng.Intn(4) == 0 { // a read in the middle of a sequence
		if g.op < gMxM {
			r.same("the step's output", r.vs[g.out], g.want)
		} else if g.op != gKron {
			r.sameM("the step's output", r.mats[g.out], g.shape, g.mwant)
		}
	}
}

// tallyForm records the resident form of w, a pinned product's output, on
// the side of its direction's cut between the forms. A dense output is not
// told apart: the drain may install one in the full form from either side.
func (r *gRun[T]) tallyForm(w *Vector[T]) {
	ck(w.Wait(Materialize))
	w.mu.Lock()
	defer w.mu.Unlock()
	if nnz := w.cur.NNZ(); nnz == 0 || nnz == w.cur.N {
		return
	}
	side := "sorted"
	if w.cur.Bit != nil {
		side = "bitmap"
	}
	r.forms[map[Direction]string{DirPush: "push", DirPull: "pull"}[r.cfg.dir]+"/"+side] = true
}

// matrixStep runs one of the matrix steps.
func (r *gRun[T]) matrixStep(g gStep[T], C, A, B *Matrix[T], mask *Vector[bool], mmask *Matrix[bool],
	accum, op BinaryOp[T, T, T], d Descriptor) error {
	k, in := r.k, InContext(r.ctx)
	nr, nc := g.shape[0], g.shape[1]
	switch g.op {
	case gMxM:
		return MxM(C, mmask, accum, r.sr, A, B, &d)
	case gEWiseAddM:
		return EWiseAddMatrix(C, mmask, accum, op, A, B, &d)
	case gEWiseMultM:
		return EWiseMultMatrix(C, mmask, accum, op, A, B, &d)
	case gApplyM:
		switch g.fn % 4 {
		case 0:
			return MatrixApply(C, mmask, accum, k.unary, A, &d)
		case 1:
			if g.fn < 8 {
				return MatrixApplyBindFirst(C, mmask, accum, op, g.x, A, &d)
			}
			return MatrixApplyBindFirstScalar(C, mmask, accum, op, ck1(ScalarOf(g.x)), A, &d)
		case 2:
			if g.fn < 8 {
				return MatrixApplyBindSecond(C, mmask, accum, op, A, g.x, &d)
			}
			return MatrixApplyBindSecondScalar(C, mmask, accum, op, A, ck1(ScalarOf(g.x)), &d)
		}
		if g.fn < 8 {
			return MatrixApplyIndexOp(C, mmask, accum, k.index, A, g.fn, &d)
		}
		return MatrixApplyIndexOpScalar(C, mmask, accum, k.index, A, ck1(ScalarOf(g.fn)), &d)
	case gSelectM:
		if g.fn%2 == 0 {
			if g.fn < 8 {
				return MatrixSelect(C, mmask, accum, ValueNE[T], A, g.x, &d)
			}
			return MatrixSelectScalar(C, mmask, accum, ValueNE[T], A, ck1(ScalarOf(g.x)), &d)
		}
		cut := cutOps[T]()[g.cut]
		if r.cfg.plain { // the closure twin: the per-entry path
			cut0 := cut
			cut = func(x T, i, j Index, s int) bool { return cut0(x, i, j, s) }
		}
		if g.fn < 8 {
			return MatrixSelect(C, mmask, accum, cut, A, g.s, &d)
		}
		return MatrixSelectScalar(C, mmask, accum, cut, A, ck1(ScalarOf(g.s)), &d)
	case gAssignM:
		if g.fn%2 == 1 {
			return MatrixAssignScalar(C, mmask, accum, g.x, g.idx, g.jdx, &d)
		}
		src, sr, sc := A, lenOr(g.idx, nr), lenOr(g.jdx, nc)
		switch {
		case g.msrc == nil:
		case d.Transpose0:
			src = cooOf(transposed(g.msrc, true)).build(sc, sr, in)
		default:
			src = cooOf(g.msrc).build(sr, sc, in)
		}
		return MatrixAssign(C, mmask, accum, src, g.idx, g.jdx, &d)
	case gExtractM:
		return MatrixExtract(C, mmask, accum, A, g.idx, g.jdx, &d)
	case gLineAssign:
		u := placeVec(r.ctx, buildVec(lenOr(g.jdx, g.shape[1-g.fn%2]), g.src, in), g.fn/4%3)
		if g.fn%2 == 1 {
			return ColAssign(C, mask, accum, u, g.jdx, g.s, &d)
		}
		return RowAssign(C, mask, accum, u, g.s, g.jdx, &d)
	case gKron:
		out := ck1(NewMatrix[T](nr, nc, in))
		ck(Kronecker(out, nil, nil, op, A, B, &Descriptor{Transpose0: d.Transpose0, Transpose1: d.Transpose1}))
		r.sameM("Kronecker", out, g.shape, g.mwant)
	case gTranspose:
		return Transpose(C, mmask, accum, A, &d)
	case gReduceM:
		if got := ck1(MatrixReduce(r.sr.Add, A)); !bitsEqual(got, g.wantVal) {
			r.t.Fatalf("%s: MatrixReduce = %v, want %v", r.label, got, g.wantVal)
		}
	case gBuildM:
		I, J, X := make([]Index, len(g.tuples)), make([]Index, len(g.tuples)), make([]T, len(g.tuples))
		for k2, e := range g.tuples {
			I[k2], J[k2], X[k2] = e.i, e.j, e.x
		}
		r.mats[g.out] = ck1(NewMatrix[T](nr, nc, in))
		return r.mats[g.out].Build(I, J, X, op)
	case gSetElementM:
		for _, e := range g.tuples {
			if e.del {
				ck(C.RemoveElement(e.i, e.j))
			} else {
				ck(C.SetElement(e.x, e.i, e.j))
			}
		}
	case gExportM:
		if g.fn >= 12 {
			r.mats[g.out] = ck1(MatrixDeserialize[T](ck1(A.SerializeBytes()), in))
		} else {
			format := [...]Format{FormatCSR, FormatCSC, FormatCOO, FormatDenseRow, FormatDenseCol, FormatBitmapMatrix}[g.fn%6]
			P, I, X := ck3(A.MatrixExport(format))
			r.mats[g.out] = ck1(MatrixImport(nr, nc, P, I, X, format, in))
		}
		r.sameM("export∘import", r.mats[g.out], g.shape, g.mwant)
	}
	return nil
}

func lenOr(idx []Index, n int) int {
	if idx == nil {
		return n
	}
	return len(idx)
}

// placeVec puts v's entries in a resident form of the test's choosing:
// sorted (form 0), position-indexed (1: a bitmap, DenseViewEx's cloned, or
// full where v stores every position) or full where it can be (2).
func placeVec[T any](ctx *Context, v *Vector[T], form int) *Vector[T] {
	s := ck1(v.snapshot())
	var out *sparse.Vec[T]
	switch sorted := s.Sorted(); {
	case form == 1 && s.NNZ() < s.N:
		out = ck1(s.DenseViewEx(sparse.Exec{})).Clone()
	case form > 0 && s.NNZ() == s.N:
		out = &sparse.Vec[T]{N: s.N, Val: slices.Clone(sorted.Val)}
	default:
		out = &sparse.Vec[T]{N: s.N, Ind: slices.Clone(sorted.Ind), Val: slices.Clone(sorted.Val)}
	}
	out.Claim(nil) // the object's own, as a drain installs it: a later step may write it in place
	return newVector(ctx, out)
}

func entriesOf[T any](v *Vector[T]) map[int]T {
	I, X := ck2(v.ExtractTuples())
	m := make(map[int]T, len(I))
	for k, i := range I {
		m[i] = X[k]
	}
	return m
}

// same fails unless v holds exactly want's entries, bit for bit.
func (r *gRun[T]) same(what string, v *Vector[T], want map[int]T) {
	r.t.Helper()
	if got := entriesOf(v); !sameMap(got, want) {
		r.t.Fatalf("%s: %s:\n got  %v\n want %v", r.label, what, got, want)
	}
}

func entriesM[T any](m *Matrix[T]) map[mkey]T {
	I, J, X := ck3(m.ExtractTuples())
	got := make(map[mkey]T, len(I))
	for k, i := range I {
		got[mkey{i, J[k]}] = X[k]
	}
	return got
}

// sameM is same for a matrix, which must be of the shape sh.
func (r *gRun[T]) sameM(what string, m *Matrix[T], sh [2]int, want map[mkey]T) {
	r.t.Helper()
	if rows, cols := ck1(m.Nrows()), ck1(m.Ncols()); rows != sh[0] || cols != sh[1] {
		r.t.Fatalf("%s: %s: a %d×%d matrix, want %d×%d", r.label, what, rows, cols, sh[0], sh[1])
	}
	if got := entriesM(m); !sameMap(got, want) {
		r.t.Fatalf("%s: %s:\n got  %v\n want %v", r.label, what, got, want)
	}
}

func sameMap[K, T comparable](got, want map[K]T) bool {
	ok := len(got) == len(want)
	for i, x := range want {
		y, has := got[i]
		ok = ok && has && bitsEqual(x, y)
	}
	return ok
}

// bitsEqual is == on everything but float64, which it compares through
// math.Float64bits: == cannot tell -0.0 from +0.0 and calls equal NaNs
// different.
func bitsEqual[T comparable](x, y T) bool {
	if fx, ok := any(x).(float64); ok {
		return math.Float64bits(fx) == math.Float64bits(any(y).(float64))
	}
	return x == y
}

// The map oracle.

func clone[K comparable, T any](m map[K]T) map[K]T {
	out := make(map[K]T, len(m))
	for i, x := range m {
		out[i] = x
	}
	return out
}

func sortedKeys[T any](m map[int]T) []int {
	keys := make([]int, 0, len(m))
	for i := range m {
		keys = append(keys, i)
	}
	sort.Ints(keys)
	return keys
}

func keysVals[T any](m map[int]T) ([]Index, []T) {
	I := sortedKeys(m)
	X := make([]T, len(I))
	for k, i := range I {
		X[k] = m[i]
	}
	return I, X
}

// at is idx[k], or k when idx is nil (every position).
func at(idx []Index, k int) int {
	if idx == nil {
		return k
	}
	return idx[k]
}

// foldOf reduces xs in order from the first; the identity when empty.
func foldOf[E, T any](m Monoid[T], xs []E, val func(E) T) T {
	acc := m.Identity
	for k, x := range xs {
		if k == 0 {
			acc = val(x)
		} else {
			acc = m.Op(acc, val(x))
		}
	}
	return acc
}

// admitFn is the mask's definition: a stored entry that is true, or present
// under Structure, inverted by Complement.
func admitFn[K comparable](m map[K]bool, d Descriptor) func(K) bool {
	return func(i K) bool {
		x, ok := m[i]
		return (ok && (d.Structure || x)) != d.Complement
	}
}

func unionOf[K comparable, T any](a, b map[K]T, f func(T, T) T) map[K]T {
	out := clone(a)
	for i, y := range b {
		if x, ok := a[i]; ok {
			y = f(x, y)
		}
		out[i] = y
	}
	return out
}

func intersectOf[K comparable, T any](a, b map[K]T, f func(T, T) T) map[K]T {
	out := map[K]T{}
	for i, x := range a {
		if y, ok := b[i]; ok {
			out[i] = f(x, y)
		}
	}
	return out
}

// assignOf is C(idx) = src with accum (idx nil: every position). A
// repeated target takes its last stored source entry, folded into C's by
// accum; without accum a listed position no source entry reaches loses C's.
func assignOf[T any](n int, c map[int]T, src func(int) (T, bool), idx []Index, accum func(T, T) T) map[int]T {
	last, listed := map[int]T{}, map[int]bool{}
	for k := range lenOr(idx, n) {
		if x, ok := src(k); ok {
			last[at(idx, k)] = x
		}
		listed[at(idx, k)] = true
	}
	out := clone(c)
	for i := range listed {
		x, ok := last[i]
		switch old, had := c[i]; {
		case !ok && accum == nil:
			delete(out, i)
		case !ok:
		case had && accum != nil:
			out[i] = accum(old, x)
		default:
			out[i] = x
		}
	}
	return out
}

// assignMOf is C(rows, cols) = src with accum on an nr×nc matrix: each
// listed row is assignOf over cols from the source row listed last for it.
func assignMOf[T any](nr, nc int, c map[mkey]T, src func(int, int) (T, bool), rows, cols []Index, accum func(T, T) T) map[mkey]T {
	last := map[int]int{}
	for k := range lenOr(rows, nr) {
		last[at(rows, k)] = k
	}
	out := c
	for i, k := range last {
		out = withLine(out, i, false, assignOf(nc, lineOf(c, i, false), func(j int) (T, bool) { return src(k, j) }, cols, accum))
	}
	return out
}

// lineOf is row i of m, or column i when col, as a vector's entries.
func lineOf[T any](m map[mkey]T, i int, col bool) map[int]T {
	line := map[int]T{}
	for e, x := range m {
		if col && e[1] == i {
			line[e[0]] = x
		} else if !col && e[0] == i {
			line[e[1]] = x
		}
	}
	return line
}

// withLine is m with row i, or column i when col, replaced by line.
func withLine[T any](m map[mkey]T, i int, col bool, line map[int]T) map[mkey]T {
	out := map[mkey]T{}
	for e, x := range m {
		if col && e[1] != i || !col && e[0] != i {
			out[e] = x
		}
	}
	for j, x := range line {
		if col {
			out[mkey{j, i}] = x
		} else {
			out[mkey{i, j}] = x
		}
	}
	return out
}

// writeBackOf is W = C⟨mask, replace⟩ ⊙= T.
func writeBackOf[K comparable, T any](c, t map[K]T, accum func(T, T) T, mask func(K) bool, replace bool) map[K]T {
	z := t
	if accum != nil {
		z = unionOf(c, t, accum)
	}
	out := map[K]T{}
	for i, x := range z {
		if mask(i) {
			out[i] = x
		}
	}
	for i, x := range c {
		if !mask(i) && !replace {
			out[i] = x
		}
	}
	return out
}

type entry[T any] struct {
	i, j int
	x    T
	del  bool // gSetElementM: a RemoveElement
}

// transposed is m, or mᵀ when tr.
func transposed[T any](m map[mkey]T, tr bool) map[mkey]T {
	if !tr {
		return m
	}
	out := make(map[mkey]T, len(m))
	for e, x := range m {
		out[mkey{e[1], e[0]}] = x
	}
	return out
}

// sortedEntries lists m's entries by row, then column.
func sortedEntries[T any](m map[mkey]T) []entry[T] {
	es := make([]entry[T], 0, len(m))
	for e, x := range m {
		es = append(es, entry[T]{i: e[0], j: e[1], x: x})
	}
	slices.SortFunc(es, func(a, b entry[T]) int { return cmp.Or(cmp.Compare(a.i, b.i), cmp.Compare(a.j, b.j)) })
	return es
}

// product is t(j) = ⊕_i u(i) ⊗ R(i,j), folded in ascending i from the first
// product — the multiply takes u's entry first when vxm, R's otherwise.
func product[T any](sr Semiring[T, T, T], R map[mkey]T, u map[int]T, vxm bool) map[int]T {
	t := map[int]T{}
	for _, e := range sortedEntries(R) {
		x, ok := u[e.i]
		if !ok {
			continue
		}
		y := sr.Mul(e.x, x)
		if vxm {
			y = sr.Mul(x, e.x)
		}
		if acc, ok := t[e.j]; ok {
			y = sr.Add.Op(acc, y)
		}
		t[e.j] = y
	}
	return t
}

// flops is the multiplies mxmOf(a, b) makes.
func flops[T any](a, b map[mkey]T) int {
	rowLen, f := map[int]int{}, 0
	for e := range b {
		rowLen[e[0]]++
	}
	for e := range a {
		f += rowLen[e[1]]
	}
	return f
}

// mxmOf is C(i,j) = ⊕_k A(i,k) ⊗ B(k,j), folded in ascending k from the
// first product, as every accumulator of the row-by-row product does.
func mxmOf[T any](sr Semiring[T, T, T], a, b map[mkey]T) map[mkey]T {
	rows := map[int][]entry[T]{}
	for _, e := range sortedEntries(b) {
		rows[e.i] = append(rows[e.i], e)
	}
	c := map[mkey]T{}
	for _, e := range sortedEntries(a) {
		for _, f := range rows[e.j] {
			y := sr.Mul(e.x, f.x)
			if acc, ok := c[mkey{e.i, f.j}]; ok {
				y = sr.Add.Op(acc, y)
			}
			c[mkey{e.i, f.j}] = y
		}
	}
	return c
}

// TestPrograms is the whole corpus under every configuration.
func TestPrograms(t *testing.T) { runPrograms(t, 12, nil) }

// traceReasons runs f under a trace session and returns the route_reason of
// every MxV, VxM and MxM kernel event.
func traceReasons(t *testing.T, f func()) map[string]bool {
	var buf bytes.Buffer
	ck(TraceTo(&buf))
	f()
	ck(StopTrace())
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, ev := range tr.TraceEvents {
		if why, ok := ev.Args["route_reason"].(string); ok && (ev.Name == "MxV" || ev.Name == "VxM" || ev.Name == "MxM") {
			out[why] = true
		}
	}
	return out
}

// runKit runs six programs of one domain under the configurations keep
// keeps, drawing the operations in ops (none: every one); matrixKit, the
// matrix batteries' configurations, runs one: the whole corpus,
// TestPrograms, runs every step under every configuration.
func runKit[T comparable](t *testing.T, k apiKit[T], keep func(apiConfig) bool, ops ...int) {
	kit(t, k, 6, keep, ops)
}

func matrixKit[T comparable](t *testing.T, k apiKit[T], keep func(apiConfig) bool, ops ...int) {
	kit(t, k, 1, keep, ops)
}

func kit[T comparable](t *testing.T, k apiKit[T], count int, keep func(apiConfig) bool, ops []int) {
	setMode(t, NonBlocking)
	programs(t, rand.New(rand.NewSource(progSeed(t))), k, count, keep, ops...)
}

// The configurations the enumerated batteries became.

func pinned(c apiConfig) bool   { return c.dir != DirAuto }
func blocking(c apiConfig) bool { return c.mode == Blocking }

// serial keeps the configurations that differ only in the mode.
func serial(c apiConfig) bool { return c.dir == DirAuto && !c.plain && c.threads == 1 }

// span is the operations from lo through hi.
func span(lo, hi int) (ops []int) {
	for op := lo; op <= hi; op++ {
		ops = append(ops, op)
	}
	return ops
}

var vectorOps, matrixOps = span(gMxV, gSetElement), span(gMxM, gExportM)

func TestDifferentialDirectionPlusTimes(t *testing.T)      { runKit(t, kitInt, nil) }
func TestDifferentialDirectionPlusTimesFloat(t *testing.T) { runKit(t, kitPlusTimes, nil) }
func TestDifferentialDirectionMinPlus(t *testing.T)        { runKit(t, kitMinPlus, nil) }
func TestDifferentialDirectionLorLand(t *testing.T)        { runKit(t, kitBool, nil) }
func TestMatVecAccumulatorInKernel(t *testing.T)           { runKit(t, kitMinPlus, pinned) }
func TestMatVecMaskedWriteBack(t *testing.T)               { runKit(t, kitBool, pinned) }
func TestModesIdenticalVectors(t *testing.T)               { runKit(t, kitInt, serial, vectorOps...) }
func TestVxMEquivalences(t *testing.T)                     { runKit(t, kitInt, blocking, gMxV, gVxM, gReduceRows) }
func TestMxVMaskAndAccum(t *testing.T)                     { runKit(t, kitPlusTimes, blocking, gMxV, gVxM) }
func TestAssignMaskReplaceOutsideRegion(t *testing.T) {
	runKit(t, kitInt, blocking, gAssign, gAssignScalar, gAssignM, gLineAssign)
}
func TestVectorDeferredPipeline(t *testing.T) {
	runKit(t, kitInt, serial, gEWiseAdd, gApply, gAssign, gSelect, gSetElement, gWait, gPanic, gForm)
}

// probeBudgets runs step g's product again in contexts whose budgets are a
// byte short of what one of its structures costs — the frontier's dense view
// or the push's SPA; the mask's bitmap beside them; the bitmap alone; the
// transpose the push rides on, over a matrix that has none cached — on
// operands rebuilt from the live ones. Each run must give the oracle's bits
// or park OutOfMemory, and leave nothing reserved.
func (r *gRun[T]) probeBudgets(g gStep[T], mask *Vector[bool], accum BinaryOp[T, T, T], d Descriptor) {
	n := int64(r.p.n)
	var zero T
	dense := n * int64(unsafe.Sizeof(zero)+1)
	am := entriesM(r.mats[g.b])
	transpose := int64(len(am))*int64(8+unsafe.Sizeof(zero)) + (n+1)*8
	a := ck1(r.mats[g.b].snapshot())
	sparse.TransposeCached(a) // both orientations cached: no charge but the probe's
	w, u := entriesOf(r.vs[g.out]), entriesOf(r.vs[g.a])
	var m map[int]bool
	if mask != nil {
		m = entriesOf(mask)
	}
	for _, limit := range []int64{dense - 1, dense + n - 1, n - 1, transpose - 1} {
		ctx := ck1(NewContext(NonBlocking, nil, WithThreads(1), WithMemoryLimit(max(limit, 1))))
		in := InContext(ctx)
		av := ck1(r.mats[g.b].ViewInContext(ctx))
		if limit == transpose-1 {
			av = cooOf(am).build(r.p.n, r.p.n, in)
		}
		wv, uv := buildVec(r.p.n, w, in), buildVec(r.p.n, u, in)
		if g.a == g.out {
			uv = wv
		}
		var mv *Vector[bool]
		switch {
		case mask == nil:
		case g.mask-3 == g.out:
			mv = any(wv).(*Vector[bool])
		default:
			mv = buildVec(r.p.n, m, in)
		}
		if g.op == gMxV {
			ck(MxV(wv, mv, accum, r.sr, av, uv, &d))
		} else {
			ck(VxM(wv, mv, accum, r.sr, uv, av, &d))
		}
		if err := wv.Wait(Materialize); err == nil {
			r.same(fmt.Sprintf("a product under a %d-byte budget", limit), wv, g.want)
		} else if Code(err) != OutOfMemory {
			r.t.Fatalf("%s: a product under a %d-byte budget: %v", r.label, limit, err)
		}
		if used := ctx.MemoryUsed(); used != 0 { // scratch is the step's; no transpose was charged
			r.t.Fatalf("%s: a product under a %d-byte budget left %d bytes reserved", r.label, limit, used)
		}
		ck(ctx.Free())
	}
}

// TestProgramsReachEveryVectorReason: the plan rows the corpus's products
// report on their kernel events — matrix-vector ones unpinned, pinned and
// under the probes' budgets, matrix ones on two threads. A row it does not reach fails unless it is
// named here with its cause.
func TestProgramsReachEveryVectorReason(t *testing.T) {
	if os.Getenv("GRB_TRACE") != "" {
		t.Skip("GRB_TRACE owns the trace session")
	}
	setMode(t, NonBlocking)
	rng := rand.New(rand.NewSource(progSeed(t)))
	forms := map[string]bool{}
	reached := traceReasons(t, func() {
		probed(t, rng, kitPlusTimes, forms)
		probed(t, rng, kitMinPlus, forms)
		probed(t, rng, kitInt, forms)
		probed(t, rng, kitBool, forms)
		probed(t, rng, kitPlusPair, forms)
		pinnedForms(t, kitPlusTimes, forms)
	})
	for _, form := range []string{"push/bitmap", "push/sorted", "pull/bitmap", "pull/sorted"} {
		if !forms[form] {
			t.Errorf("no pinned product left a %s output", form)
		}
	}
	accRow := "an accumulator or mask row: the event names the direction's row unless the budget decided " +
		"(internal/sparse's corpus reads it through Exec.Route)"
	unreached := map[sparse.Reason]string{
		sparse.ReasonNone:      "every product reports a row",
		sparse.ReasonFewProbes: accRow,
		sparse.ReasonHyperMask: accRow,
		sparse.ReasonBudgetSPA: "below the cut the push's statistics take the table; at or above it the table's " +
			"hashCapacity(products) ≥ cols slots of index and value outweigh the SPA's cols·(sizeof Y+1) bytes, " +
			"so a refused SPA never has a smaller table (EXPERIMENTS.md); no matrix product here runs under a budget " +
			"(internal/sparse's corpus reaches the row)",
	}
	for why := sparse.ReasonNone; why <= sparse.ReasonBudgetMask; why++ {
		cause, named := unreached[why]
		switch {
		case reached[why.String()] && named:
			t.Errorf("plan row %d (%q) is named unreachable (%s) but the corpus reached it", why, why, cause)
		case !reached[why.String()] && !named:
			t.Errorf("the corpus reached no product with plan row %d (%q)", why, why)
		}
	}
}

// probed runs a domain's programs unpinned on two threads, so that a matrix
// product's row ranges may route apart, and pinned to each direction on one,
// in the nonblocking mode; the unpinned and pulled products are probed under
// budgets (a pinned push never flips), and the forms of the pinned ones
// whose output is the kernel's are tallied into forms.
func probed[T comparable](t *testing.T, rng *rand.Rand, k apiKit[T], forms map[string]bool) {
	for i := 0; i < 16; i++ {
		p := genProgram(rng, k, 24, append(vectorOps, gMxM, gAssignM, gBuildM, gSetElementM)...) // the steps that make or read a product's operands
		for _, dir := range []Direction{DirAuto, DirPush, DirPull} {
			threads := map[bool]int{true: 2, false: 1}[dir == DirAuto]
			runProgram(t, k, p, apiConfig{NonBlocking, dir, false, threads}, rand.New(rand.NewSource(int64(i))),
				fmt.Sprintf("%s program %d", k.name, i), dir != DirPush, forms)
		}
	}
}

// pinnedForms runs a pinned push and a pinned pull of k's domain on each
// side of its cut between a sorted and a bitmap output, and tallies their
// forms: the random programs draw operands of that size and density at most
// seeds, these at every one. A is 640×640 with three entries a row (a pull
// writes a bitmap at 586 admitted rows of float64); a push of one row marks 3
// columns (sorted) and of 64 rows about 190 (bitmap: ≥ 640/64); an unmasked
// pull admits every row (bitmap) and one under an 8-row mask 8 (sorted).
func pinnedForms[T comparable](t *testing.T, k apiKit[T], forms map[string]bool) {
	const n = 640
	rng := rand.New(rand.NewSource(1))
	ctx := ck1(NewContext(NonBlocking, nil, WithThreads(1)))
	defer func() { ck(ctx.Free()) }()
	in := InContext(ctx)
	var I, J []Index
	var X []T
	for i := 0; i < n; i++ {
		for c := 0; c < 3; c++ {
			I, J, X = append(I, i), append(J, (i*7+c*211)%n), append(X, k.mk(rng))
		}
	}
	a := ck1(NewMatrix[T](n, n, in))
	ck(a.Build(I, J, X, nil))
	vec := func(count int) map[int]T {
		v := map[int]T{}
		for _, i := range rng.Perm(n)[:count] {
			v[i] = k.mk(rng)
		}
		return v
	}
	mask := buildVec(n, map[int]bool{0: true, 80: true, 160: true, 240: true, 320: true, 400: true, 480: true, 560: true}, in)
	for _, c := range []struct {
		dir  Direction
		u    int
		mask *Vector[bool]
	}{{DirPush, 1, nil}, {DirPush, 64, nil}, {DirPull, n / 2, nil}, {DirPull, n / 2, mask}} {
		w, u := ck1(NewVector[T](n, in)), buildVec(n, vec(c.u), in)
		d := Descriptor{Dir: c.dir, Replace: c.mask != nil}
		if c.dir == DirPush {
			ck(VxM(w, c.mask, nil, k.sr, u, a, &d))
		} else {
			ck(MxV(w, c.mask, nil, k.sr, a, u, &d))
		}
		(&gRun[T]{cfg: apiConfig{dir: c.dir}, forms: forms}).tallyForm(w)
	}
}

// FuzzPrograms runs generated programs of any seed and length under every
// configuration: `make fuzz` runs it beside mtx.Read. A failing program is
// shrunk to its few steps and kept under testdata/fuzz/FuzzPrograms, which
// tier-1 runs as seeds.
func FuzzPrograms(f *testing.F) {
	for seed := int64(20210520); seed < 20210524; seed++ { // one per domain (seed & 3)
		f.Add(seed, uint8(24))
	}
	f.Fuzz(func(t *testing.T, seed int64, length uint8) {
		setMode(t, NonBlocking)
		rng := rand.New(rand.NewSource(seed))
		steps := int(length%48) + 1
		switch seed & 3 {
		case 0:
			fuzzProgram(t, rng, kitPlusTimes, steps)
		case 1:
			fuzzProgram(t, rng, kitMinPlus, steps)
		case 2:
			fuzzProgram(t, rng, kitInt, steps)
		default:
			fuzzProgram(t, rng, kitBool, steps)
		}
	})
}

func fuzzProgram[T comparable](t *testing.T, rng *rand.Rand, k apiKit[T], steps int) {
	p := genProgram(rng, k, steps)
	for _, cfg := range apiConfigs() {
		runProgram(t, k, p, cfg, rand.New(rand.NewSource(1)), k.name, false, nil)
	}
}
