package grb

import (
	"bytes"
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
// operations the four workloads run — MxV/VxM, eWiseAdd/eWiseMult, apply,
// select, assign and scalar assign, SetElement/RemoveElement, reduce to a
// vector and to a value, ExtractTuples and the Table III export/import —
// with masks (structural; valued with
// stored falses; complemented; empty; denser than the product; for the
// boolean domain the output itself), accumulators (non-commutative ones
// among them), replace and transpose descriptors, outputs that are also
// operands, interleaved Wait(Complete|Materialize), an operator that panics
// and a dimension mismatch. Between steps an operand is placed in a resident
// form (sorted, bitmap, full) from the test side.
//
// One map oracle computes each program's states once; every program then
// runs under blocking and nonblocking × every Dir pin × the tagged semiring
// and its untagged twin × one thread and two with withChunk(1), and every run
// must agree with the oracle on bits (math.Float64bits) and on the §V error
// of every call and every Wait. So push ≡ pull, blocking ≡ nonblocking and
// VxM(u, A) ≡ MxV(Aᵀ, u) — the generator draws either — hold on the same
// programs. internal/sparse has the kernel-level generator. Rerun a failure
// with GRB_DIFF_SEED=<seed>; GRB_DIFF_SEED=random draws one from the clock.

// progSeed is the package's one seed parser: a fixed default, logged;
// GRB_DIFF_SEED=<n> pins another, =random draws one from the clock.
func progSeed(t testing.TB) int64 {
	t.Helper()
	seed := int64(20210521)
	switch s := os.Getenv("GRB_DIFF_SEED"); s {
	case "":
	case "random":
		seed = time.Now().UnixNano()
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
	numOps
)

// apiKit is one value domain: a tagged semiring, the operators the
// element-wise steps and accumulators draw from, a unary and an index
// operator, and a value draw. exactCols says ReduceCols may run at two
// threads: its partial folds reassociate, which only an exact domain
// survives bit for bit.
type apiKit[T comparable] struct {
	name      string
	sr        Semiring[T, T, T]
	ops       []BinaryOp[T, T, T]
	unary     UnaryOp[T, T]
	index     IndexUnaryOp[T, int, T]
	mk        func(*rand.Rand) T
	exactCols bool
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
		index: func(x float64, i, _ Index, s int) float64 { return x + float64(i*s) }}
}

var (
	kitPlusTimes = floatKit("plus_times", PlusTimes[float64]())
	kitMinPlus   = floatKit("min_plus", MinPlus[float64]())
	kitInt       = apiKit[int64]{name: "plus_times/int64", sr: PlusTimes[int64](), unary: AInv[int64], exactCols: true,
		ops:   []BinaryOp[int64, int64, int64]{Plus[int64], Minus[int64], First[int64, int64], Max[int64]},
		index: func(x int64, i, _ Index, s int) int64 { return x - int64(i+s) },
		mk:    func(r *rand.Rand) int64 { return int64(r.Intn(19) - 9) }}
	kitBool = apiKit[bool]{name: "lor_land", sr: LOrLAnd(), unary: LNot, exactCols: true,
		ops:   []BinaryOp[bool, bool, bool]{LOr, LAnd, LXor, First[bool, bool], func(x, y bool) bool { return x && !y }},
		index: func(x bool, i, _ Index, s int) bool { return x != ((i+s)%2 == 0) },
		mk:    func(r *rand.Rand) bool { return r.Intn(3) > 0 }}
)

// gStep is one step of a program, with what the oracle expects of it.
type gStep[T any] struct {
	op, out, a, b int
	mask          int // -1 none; 0..2 a mask slot; 3+k value slot k (boolean domain)
	accum, fn     int // accum -1 none; fn the operator, variant or format
	desc          Descriptor
	idx           []Index
	x             T
	src           map[int]T // gAssign: the source's entries
	wait          WaitMode

	want    map[int]T // the output's entries after the step
	read    map[int]T // gExtract: the read slot's entries
	wantVal T         // gReduce
	fails   bool      // gPanic: the step parks Panic on out
}

// gProg is a generated program: its size, matrix, initial slots, steps.
type gProg[T comparable] struct {
	n      int
	aI, aJ []Index
	aX     []T
	init   [4]map[int]T
	final  [4]map[int]T
	masks  [3]map[int]bool
	steps  []gStep[T]
}

// genProgram draws a program and runs the oracle over it.
func genProgram[T comparable](rng *rand.Rand, k apiKit[T], steps int) *gProg[T] {
	n := []int{1, 5, 40, 300}[rng.Intn(4)]
	p := &gProg[T]{n: n}
	nnz := 3 * n
	if rng.Intn(3) == 0 {
		nnz = n/16 + 1
	}
	seen := map[[2]int]bool{}
	for e := 0; e < nnz; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if !seen[[2]int{i, j}] {
			seen[[2]int{i, j}] = true
			p.aI, p.aJ, p.aX = append(p.aI, i), append(p.aJ, j), append(p.aX, k.mk(rng))
		}
	}
	draw := func(count int, val func() T) map[int]T {
		m := map[int]T{}
		for _, i := range rng.Perm(n)[:count] {
			m[i] = val()
		}
		return m
	}
	some := func() int { return []int{0, rng.Intn(n/2 + 1), max(n-1, 0), n}[rng.Intn(4)] }
	for s := range p.init {
		p.init[s] = draw(some(), func() T { return k.mk(rng) })
	}
	flag := func() bool { return rng.Intn(3) > 0 }
	p.masks = [3]map[int]bool{{}, {}, {}}
	for _, i := range rng.Perm(n)[:rng.Intn(n/2+1)] {
		p.masks[0][i] = flag()
	}
	for i := 0; i < n; i++ {
		p.masks[1][i] = flag()
	}
	st := p.init
	for s := range st {
		st[s] = clone(st[s])
	}
	_, isBool := any(k.mk(rng)).(bool)
	for len(p.steps) < steps {
		g := gStep[T]{op: rng.Intn(numOps), out: rng.Intn(4), a: rng.Intn(4), b: rng.Intn(4), mask: -1, accum: -1,
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
		var mask func(int) bool
		switch {
		case g.mask < 0:
			mask = func(int) bool { return !g.desc.Complement }
		case g.mask < 3:
			mask = admitFn(p.masks[g.mask], g.desc)
		default:
			mask = admitFn(any(st[g.mask-3]).(map[int]bool), g.desc)
		}
		var accum BinaryOp[T, T, T]
		if g.accum >= 0 {
			accum = k.ops[g.accum]
		}
		op := k.ops[g.fn%len(k.ops)]
		c, u, v := st[g.out], st[g.a], st[g.b]
		var t map[int]T
		switch g.op {
		case gMxV, gVxM:
			// VxM(u, A) is MxV(Aᵀ, u): both are the product over the
			// orientation the transpose flag names.
			tr := !g.desc.Transpose0
			if g.op == gVxM {
				tr = g.desc.Transpose1
			}
			t = product(k.sr, p.aI, p.aJ, p.aX, u, tr, g.op == gVxM)
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
				g.idx = rng.Perm(n)[:1+rng.Intn(n)]
				g.idx = append(g.idx, g.idx[rng.Intn(len(g.idx))]) // a repeated target
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
			st[g.out] = writeBackOf(n, c, assignOf(n, c, src, g.idx, accum), nil, mask, g.desc.Replace)
		case gReduceRows:
			if !k.exactCols {
				g.desc.Transpose0 = false
			}
			t = map[int]T{}
			for _, e := range sortedEntries(p.aI, p.aJ, p.aX, g.desc.Transpose0) {
				if x, ok := t[e.i]; ok {
					t[e.i] = k.sr.Add.Op(x, e.x)
				} else {
					t[e.i] = e.x
				}
			}
		case gReduce:
			g.wantVal = k.sr.Add.Identity
			for k2, i := range sortedKeys(u) {
				if k2 == 0 {
					g.wantVal = u[i]
				} else {
					g.wantVal = k.sr.Add.Op(g.wantVal, u[i])
				}
			}
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
			g.read = clone(u)
		case gExport:
			if len(u) < n && g.fn%3 == 1 {
				g.fn = 0 // the dense format needs every position
			}
			st[g.out] = clone(u)
		case gWait:
			g.wait = [...]WaitMode{Complete, Materialize}[g.fn%2]
		case gPanic:
			g.fails = len(u) > 0
			g.wait = [...]WaitMode{Complete, Materialize}[g.fn%2]
			st[g.out] = map[int]T{} // cleared after the Wait
		}
		if t != nil {
			st[g.out] = writeBackOf(n, c, t, accum, mask, g.desc.Replace)
		}
		g.want = clone(st[g.out])
		p.steps = append(p.steps, g)
	}
	p.final = st
	return p
}

// apiConfig is one way to run a program.
type apiConfig struct {
	mode    Mode
	dir     Direction
	plain   bool // the semiring's untagged twin
	threads int
}

func apiConfigs() (cs []apiConfig) {
	for _, mode := range []Mode{Blocking, NonBlocking} {
		for _, dir := range []Direction{DirAuto, DirPush, DirPull} {
			for _, plain := range []bool{false, true} {
				for _, threads := range []int{1, 2} {
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
	a     *Matrix[T]
	vs    [4]*Vector[T]
	ms    [3]*Vector[bool]
	rng   *rand.Rand
	probe bool // run each product again under budgets (probeBudgets)
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
}

func programs[T comparable](t *testing.T, rng *rand.Rand, k apiKit[T], count int, keep func(apiConfig) bool) {
	for i := 0; i < count; i++ {
		p := genProgram(rng, k, 24)
		for _, cfg := range apiConfigs() {
			if keep == nil || keep(cfg) {
				runProgram(t, k, p, cfg, rand.New(rand.NewSource(int64(i))), fmt.Sprintf("%s program %d", k.name, i), false)
			}
		}
	}
}

func runProgram[T comparable](t *testing.T, k apiKit[T], p *gProg[T], cfg apiConfig, rng *rand.Rand, name string, probe bool) {
	t.Helper()
	ctx := ck1(NewContext(cfg.mode, nil, WithThreads(cfg.threads), withChunk(1)))
	defer func() { ck(ctx.Free()) }()
	r := &gRun[T]{t: t, k: k, p: p, cfg: cfg, ctx: ctx, sr: k.sr, rng: rng, probe: probe}
	if cfg.plain {
		r.sr = Semiring[T, T, T]{Add: Monoid[T]{Op: k.sr.Add.Op, Identity: k.sr.Add.Identity}, Mul: k.sr.Mul}
	}
	r.a = p.matrix(InContext(ctx))
	for s, m := range p.init {
		r.vs[s] = buildVec(p.n, m, InContext(ctx))
	}
	for s, m := range p.masks {
		r.ms[s] = buildVec(p.n, m, InContext(ctx))
	}
	for i, g := range p.steps {
		r.label = fmt.Sprintf("%s (n=%d) step %d op %d [%+v]", name, p.n, i, g.op, cfg)
		r.step(g)
	}
	for s := range r.vs {
		r.same(fmt.Sprintf("slot %d at the end", s), r.vs[s], p.final[s])
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

// matrix is the program's matrix, built afresh.
func (p *gProg[T]) matrix(opts ...ObjOption) *Matrix[T] {
	a := ck1(NewMatrix[T](p.n, p.n, opts...))
	if len(p.aI) > 0 {
		ck(a.Build(p.aI, p.aJ, p.aX, nil))
	}
	return a
}

func (r *gRun[T]) step(g gStep[T]) {
	t, k := r.t, r.k
	w, u, v := r.vs[g.out], r.vs[g.a], r.vs[g.b]
	var mask *Vector[bool]
	switch {
	case g.mask >= 3:
		mask = any(r.vs[g.mask-3]).(*Vector[bool])
	case g.mask >= 0:
		mask = r.ms[g.mask]
	}
	var accum BinaryOp[T, T, T]
	if g.accum >= 0 {
		accum = k.ops[g.accum]
	}
	op := k.ops[g.fn%len(k.ops)]
	d := g.desc
	d.Dir = r.cfg.dir
	if r.probe && (g.op == gMxV || g.op == gVxM) {
		r.probeBudgets(g, mask, accum, d)
	}
	var err error
	switch g.op {
	case gMxV:
		err = MxV(w, mask, accum, r.sr, r.a, u, &d)
	case gVxM:
		err = VxM(w, mask, accum, r.sr, u, r.a, &d)
	case gEWiseAdd:
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
		err = MatrixReduceToVector(w, mask, accum, r.sr.Add, r.a, &d)
	case gReduce:
		got := ck1(VectorReduce(r.sr.Add, u))
		if !bitsEqual(got, g.wantVal) {
			t.Fatalf("%s: VectorReduce = %v, want %v", r.label, got, g.wantVal)
		}
	case gExtract:
		r.same("ExtractTuples", u, g.read)
	case gExport: // export ∘ import = id, whatever form u is resident in
		format := [...]Format{FormatSparseVector, FormatDenseVector, FormatBitmapVector}[g.fn%3]
		I, X := ck2(u.VectorExport(format))
		r.vs[g.out] = ck1(VectorImport(r.p.n, I, X, format, InContext(r.ctx)))
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
		if g.fn%2 == 0 {
			err = VectorSelect(w, mask, accum, ValueNE[T], u, g.x, &d)
		} else {
			err = VectorSelect(w, mask, accum, RowLE[T], u, g.fn, &d)
		}
	case gSetElement:
		if g.fn%3 == 0 {
			err = w.RemoveElement(g.idx[0])
		} else {
			err = w.SetElement(g.x, g.idx[0])
		}
	case gDimErr:
		short := ck1(NewVector[T](r.p.n+1, InContext(r.ctx)))
		wantCode(t, EWiseAddVector(w, mask, accum, op, u, short, &d), DimensionMismatch)
	}
	if err != nil {
		t.Fatalf("%s: %v", r.label, err)
	}
	if r.rng.Intn(4) == 0 { // a read in the middle of a sequence
		r.same("the step's output", r.vs[g.out], g.want)
	}
}

// placeVec puts v's entries in a resident form of the test's choosing:
// sorted, a bitmap (DenseViewEx's, cloned) or, where v stores every position,
// full.
func placeVec[T any](ctx *Context, v *Vector[T], form int) *Vector[T] {
	s := ck1(v.snapshot())
	var out *sparse.Vec[T]
	switch sorted := s.Sorted(); {
	case form == 1 && s.NNZ() < s.N:
		out = ck1(s.DenseViewEx(sparse.Exec{})).Clone()
	case form == 2 && s.NNZ() == s.N:
		out = &sparse.Vec[T]{N: s.N, Val: slices.Clone(sorted.Val)}
	default:
		out = &sparse.Vec[T]{N: s.N, Ind: slices.Clone(sorted.Ind), Val: slices.Clone(sorted.Val)}
	}
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
	got := entriesOf(v)
	ok := len(got) == len(want)
	for i, x := range want {
		y, has := got[i]
		ok = ok && has && bitsEqual(x, y)
	}
	if !ok {
		r.t.Fatalf("%s: %s:\n got  %v\n want %v", r.label, what, got, want)
	}
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

func clone[T any](m map[int]T) map[int]T {
	out := make(map[int]T, len(m))
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

// admitFn is the mask's definition: a stored entry that is true, or present
// under Structure, inverted by Complement.
func admitFn(m map[int]bool, d Descriptor) func(int) bool {
	return func(i int) bool {
		x, ok := m[i]
		return (ok && (d.Structure || x)) != d.Complement
	}
}

func unionOf[T any](a, b map[int]T, f func(T, T) T) map[int]T {
	out := clone(a)
	for i, y := range b {
		if x, ok := a[i]; ok {
			y = f(x, y)
		}
		out[i] = y
	}
	return out
}

func intersectOf[T any](a, b map[int]T, f func(T, T) T) map[int]T {
	out := map[int]T{}
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
	if idx == nil {
		idx = make([]Index, n)
		for i := range idx {
			idx[i] = i
		}
	}
	last, listed := map[int]T{}, map[int]bool{}
	for k, i := range idx {
		if x, ok := src(k); ok {
			last[i] = x
		}
		listed[i] = true
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

// writeBackOf is W = C⟨mask, replace⟩ ⊙= T.
func writeBackOf[T any](n int, c, t map[int]T, accum func(T, T) T, mask func(int) bool, replace bool) map[int]T {
	z := t
	if accum != nil {
		z = unionOf(c, t, accum)
	}
	out := map[int]T{}
	for i := 0; i < n; i++ {
		if x, ok := z[i]; mask(i) && ok {
			out[i] = x
		} else if x, ok := c[i]; !mask(i) && ok && !replace {
			out[i] = x
		}
	}
	return out
}

type entry[T any] struct {
	i, j int
	x    T
}

// sortedEntries lists A's entries (Aᵀ's when tr) by row, then column.
func sortedEntries[T any](I, J []Index, X []T, tr bool) []entry[T] {
	es := make([]entry[T], len(I))
	for k := range I {
		es[k] = entry[T]{I[k], J[k], X[k]}
		if tr {
			es[k].i, es[k].j = J[k], I[k]
		}
	}
	sort.Slice(es, func(a, b int) bool { return es[a].i < es[b].i || es[a].i == es[b].i && es[a].j < es[b].j })
	return es
}

// product is t(j) = ⊕_i u(i) ⊗ R(i,j) with R = A (Aᵀ when tr), folded in
// ascending i from the first product — the multiply takes u's entry first
// when vxm, the matrix's otherwise.
func product[T any](sr Semiring[T, T, T], I, J []Index, X []T, u map[int]T, tr, vxm bool) map[int]T {
	t := map[int]T{}
	for _, e := range sortedEntries(I, J, X, tr) {
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

// TestPrograms is the whole corpus under every configuration.
func TestPrograms(t *testing.T) { runPrograms(t, 12, nil) }

// traceReasons runs f under a trace session and returns the route_reason of
// every MxV and VxM kernel event.
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
		if why, ok := ev.Args["route_reason"].(string); ok && (ev.Name == "MxV" || ev.Name == "VxM") {
			out[why] = true
		}
	}
	return out
}

// runKit runs one domain's programs under the configurations keep keeps.
func runKit[T comparable](t *testing.T, k apiKit[T], keep func(apiConfig) bool) {
	setMode(t, NonBlocking)
	programs(t, rand.New(rand.NewSource(progSeed(t))), k, 6, keep)
}

// The configurations the enumerated batteries became.

func pinned(c apiConfig) bool   { return c.dir != DirAuto }
func blocking(c apiConfig) bool { return c.mode == Blocking }

// serial keeps the configurations that differ only in the mode.
func serial(c apiConfig) bool { return c.dir == DirAuto && !c.plain && c.threads == 1 }

func TestDifferentialDirectionPlusTimes(t *testing.T)      { runKit(t, kitInt, nil) }
func TestDifferentialDirectionPlusTimesFloat(t *testing.T) { runKit(t, kitPlusTimes, nil) }
func TestDifferentialDirectionMinPlus(t *testing.T)        { runKit(t, kitMinPlus, nil) }
func TestDifferentialDirectionLorLand(t *testing.T)        { runKit(t, kitBool, nil) }
func TestMatVecAccumulatorInKernel(t *testing.T)           { runKit(t, kitMinPlus, pinned) }
func TestMatVecMaskedWriteBack(t *testing.T)               { runKit(t, kitBool, pinned) }
func TestModesIdenticalVectors(t *testing.T)               { runKit(t, kitInt, serial) }
func TestVxMEquivalences(t *testing.T)                     { runKit(t, kitInt, blocking) }
func TestMxVMaskAndAccum(t *testing.T)                     { runKit(t, kitPlusTimes, blocking) }
func TestAssignMaskReplaceOutsideRegion(t *testing.T)      { runKit(t, kitInt, blocking) }
func TestVectorDeferredPipeline(t *testing.T)              { runKit(t, kitInt, serial) }

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
	transpose := int64(len(r.p.aI))*int64(8+unsafe.Sizeof(zero)) + (n+1)*8
	a := ck1(r.a.snapshot())
	sparse.TransposeCached(a) // both orientations cached: no charge but the probe's
	w, u := entriesOf(r.vs[g.out]), entriesOf(r.vs[g.a])
	var m map[int]bool
	if mask != nil {
		m = entriesOf(mask)
	}
	for _, limit := range []int64{dense - 1, dense + n - 1, n - 1, transpose - 1} {
		ctx := ck1(NewContext(NonBlocking, nil, WithThreads(1), WithMemoryLimit(max(limit, 1))))
		in := InContext(ctx)
		av := ck1(r.a.ViewInContext(ctx))
		if limit == transpose-1 {
			av = r.p.matrix(in)
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

// TestProgramsReachEveryVectorReason: the plan rows the corpus's
// matrix-vector products report on their kernel events, unpinned, pinned
// and under the probes' budgets. A row it does not reach fails unless it is
// named here with its cause.
func TestProgramsReachEveryVectorReason(t *testing.T) {
	if os.Getenv("GRB_TRACE") != "" {
		t.Skip("GRB_TRACE owns the trace session")
	}
	setMode(t, NonBlocking)
	rng := rand.New(rand.NewSource(progSeed(t)))
	reached := traceReasons(t, func() {
		probed(t, rng, kitPlusTimes)
		probed(t, rng, kitMinPlus)
		probed(t, rng, kitInt)
		probed(t, rng, kitBool)
	})
	accRow := "an accumulator or mask row: the event names the direction's row unless the budget decided " +
		"(internal/sparse's corpus reads it through Exec.Route)"
	unreached := map[sparse.Reason]string{
		sparse.ReasonNone:      "every product reports a row",
		sparse.ReasonFewProbes: accRow,
		sparse.ReasonHyperMask: accRow,
		sparse.ReasonFewFlops:  accRow,
		sparse.ReasonDenseWork: accRow,
		sparse.ReasonBudgetSPA: "below the cut the push's statistics take the table; at or above it the table's " +
			"hashCapacity(products) ≥ cols slots of index and value outweigh the SPA's cols·(sizeof Y+1) bytes, " +
			"so a refused SPA never has a smaller table (EXPERIMENTS.md)",
		sparse.ReasonMaskFirst:   "a matrix product's row range",
		sparse.ReasonRangesSplit: "a matrix product's row ranges",
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

// probed runs a domain's programs unpinned and pinned to each direction, in
// the nonblocking mode on one thread; the unpinned and pulled products are
// probed under budgets (a pinned push never flips).
func probed[T comparable](t *testing.T, rng *rand.Rand, k apiKit[T]) {
	for i := 0; i < 16; i++ {
		p := genProgram(rng, k, 24)
		for _, dir := range []Direction{DirAuto, DirPush, DirPull} {
			runProgram(t, k, p, apiConfig{NonBlocking, dir, false, 1}, rand.New(rand.NewSource(int64(i))),
				fmt.Sprintf("%s program %d", k.name, i), dir != DirPush)
		}
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
		runProgram(t, k, p, cfg, rand.New(rand.NewSource(1)), k.name, false)
	}
}
