package sparse

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"
	"unsafe"
)

// The kernel-level program generator: seeded random programs over the vector
// kernels the four workloads run, every step checked against one map oracle
// bit for bit (sameBits). A step draws its operands from a pool of vectors
// that earlier steps wrote, so an output is often an operand too, and is
// then sometimes granted to the kernel as the storage it supersedes
// (Exec.Spare), as the grb layer's step does. Every operand, the mask
// included, is placed in a random resident form: sorted, a bitmap, or full
// where it stores every position. Products run under a random accumulator
// pin, loop (the semiring's tag or SemiGeneric), one worker or two, and now
// and then a budget too tight for one of their dense structures, under which
// ErrBudget is the one other accepted outcome. Every element-wise step is
// also held to row 0 of its matrix twin on the 1×n matrix.
//
// The root package runs the same generator over the API (progen_test.go
// there); this one keeps the doors no API program reaches: the accumulator
// pins, grants the sequence never gives, and budgets below a pinned dense
// SPA. The old enumerated batteries are its configurations (the step kinds
// they covered; EXPERIMENTS.md has the map). Rerun a failure with
// GRB_DIFF_SEED=<seed>; GRB_DIFF_SEED=random draws one from the clock.

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

// stepKind is a set of the generator's step kinds; a configuration runs the
// programs restricted to one set.
type stepKind uint

const (
	sEWise     stepKind = 1 << iota // EWiseAddV, EWiseMultV
	sApply                          // ApplyV, ApplyIndexV, SelectV
	sAssign                         // AssignV, AssignScalarV over a list or every position
	sMasked                         // AssignScalarMaskedV
	sWriteBack                      // MaskApplyV ∘ AccumMergeV
	sMerge                          // MergeVTuples, Resize
	sPull                           // SpMVSemiEx
	sPullAccum                      // SpMVAccumEx
	sPush                           // vxmSemi
	sReduce                         // ReduceVec, ReduceRows, ExtractV

	sAll      = 1<<iota - 1
	sProducts = sPull | sPullAccum | sPush
)

// binop is an element-wise operator or accumulator with its family tag.
type binop[T any] struct {
	name string
	tag  Bin
	f    func(T, T) T
}

// kit is one value domain: a tagged semiring, its monoid tag, the operators
// the element-wise steps and accumulators draw from (non-commutative ones
// among them, so a swapped operand order shows), and a value draw.
type kit[T comparable] struct {
	name     string
	semi     Semi
	mon      Mon
	mul, add func(T, T) T
	ops      []binop[T]
	neg      func(T) T
	mk       func(*rand.Rand) T
}

// arithKit's operators tag plus and times over float64, as the grb layer's
// binTags does, so the element-wise family loops meet the oracle too. None
// negates: NaN + NaN's payload is left to the compiler's operand order, so a
// program's NaNs (Inf - Inf, 0 × Inf) must all carry the one payload.
func arithKit[T int64 | float64](name string, semi Semi, mul, add func(T, T) T, mk func(*rand.Rand) T) kit[T] {
	plus, times := Bin(BinGeneric), Bin(BinGeneric)
	if _, ok := any(T(0)).(float64); ok {
		plus, times = BinPlus, BinTimes
	}
	return kit[T]{name: name, semi: semi, mul: mul, add: add, mk: mk, neg: func(x T) T { return 3 - x },
		ops: []binop[T]{{"add", BinGeneric, add}, {"plus", plus, func(x, y T) T { return x + y }},
			{"times", times, func(x, y T) T { return x * y }},
			{"minus", BinGeneric, func(x, y T) T { return x - 2*y }}, {"first", BinGeneric, func(x, _ T) T { return x }}}}
}

func kits() (pt kit[float64], mp kit[float64], pi kit[int64], pp kit[float64], ll kit[bool]) {
	plusF, timesF := func(x, y float64) float64 { return x + y }, func(x, y float64) float64 { return x * y }
	pt = arithKit("plus_times/float64", SemiPlusTimes, timesF, plusF, spikedFloat)
	pt.mon = MonPlus
	mp = arithKit("min_plus/float64", SemiMinPlus, plusF, monoMin[float64], spikedFloat)
	pi = arithKit("plus_times/int64", SemiPlusTimes, func(x, y int64) int64 { return x * y },
		func(x, y int64) int64 { return x + y }, func(r *rand.Rand) int64 { return int64(r.Intn(19) - 9) })
	pi.mon = MonPlus
	pp = arithKit("plus_pair/float64", SemiPlusPair, func(float64, float64) float64 { return 1 }, plusF, spikedFloat)
	ll = kit[bool]{name: "lor_land/bool", semi: SemiLorLand, mul: func(x, y bool) bool { return x && y },
		add: func(x, y bool) bool { return x || y }, neg: func(x bool) bool { return !x },
		mk: func(r *rand.Rand) bool { return r.Intn(3) > 0 },
		ops: []binop[bool]{{"lor", BinGeneric, func(x, y bool) bool { return x || y }},
			{"andnot", BinGeneric, func(x, y bool) bool { return x && !y }}, {"first", BinGeneric, func(x, _ bool) bool { return x }}}}
	return
}

// runCorpus runs the fixed corpus restricted to the step kinds in kinds over
// every kit, and returns the plan rows the products' routes reported.
func runCorpus(t *testing.T, kinds stepKind) map[Reason]bool {
	reached := map[Reason]bool{}
	rng := rand.New(rand.NewSource(progSeed(t)))
	pt, mp, pi, pp, ll := kits()
	corpus(t, rng, kinds, pt, reached)
	corpus(t, rng, kinds, mp, reached)
	corpus(t, rng, kinds, pi, reached)
	corpus(t, rng, kinds, pp, reached)
	corpus(t, rng, kinds, ll, reached)
	return reached
}

// corpus runs two dozen programs of one kit: sizes from 1 to past the pull's
// accumulate block, matrices of three entries a row and hypersparse ones.
func corpus[T comparable](t *testing.T, rng *rand.Rand, kinds stepKind, k kit[T], reached map[Reason]bool) {
	for p := 0; p < 24; p++ {
		n := []int{1, 2, 17, 64, 300, 64, 17, accumBlock + 277}[rng.Intn(8)]
		nnz := 3 * n
		if p%3 == 2 {
			nnz = n/16 + 1
		}
		r := &prog[T]{t: t, rng: rng, k: k, n: n, a: sprayCSR(rng, n, n, nnz, k.mk), reached: reached}
		for i := range r.pool {
			r.pool[i] = r.fresh(n)
		}
		for s := 0; s < 32; s++ {
			r.label = fmt.Sprintf("%s program %d (n=%d nnz(A)=%d) step %d", k.name, p, n, r.a.NNZ(), s)
			r.step(kinds)
		}
	}
}

// ref is a vector beside its oracle entries; a granted one is the kernel's
// to write.
type ref[T any] struct {
	v       *Vec[T]
	m       map[int]T
	granted bool
}

type prog[T comparable] struct {
	t       *testing.T
	rng     *rand.Rand
	k       kit[T]
	n       int
	a       *CSR[T]
	pool    [4]ref[T]
	reached map[Reason]bool
	label   string
}

// fresh is a random n-vector: empty, sparse, one short of full, or full.
func (r *prog[T]) fresh(n int) ref[T] {
	nnz := []int{0, r.rng.Intn(n/2 + 1), max(n-1, 0), n}[r.rng.Intn(4)]
	v := &Vec[T]{N: n, Ind: r.rng.Perm(n)[:nnz], Val: make([]T, nnz)}
	sort.Ints(v.Ind)
	for k := range v.Val {
		v.Val[k] = r.k.mk(r.rng)
	}
	return ref[T]{v: r.form(v), m: entries(v)}
}

// form places v in a random resident form: as it is, its sorted
// coordinates, a bitmap of its own, or — when it stores every position — a
// full vector of its own.
func (r *prog[T]) form(v *Vec[T]) *Vec[T] { return placeForm(v, r.rng.Intn(4)) }

// placeForm is v as it is (form 0), sorted (1: a bitmap's or a full
// vector's view through the sorted door), a bitmap (2: a sorted vector's
// DenseViewEx, cloned) or full (3); a form v cannot take leaves it as it is.
func placeForm[T any](v *Vec[T], form int) *Vec[T] {
	s := v.Sorted()
	switch form {
	case 0:
		return v
	case 1:
		return s
	case 2:
		if b, err := s.DenseViewEx(Exec{}); err == nil && b.Bit != nil {
			return b.Clone()
		}
	}
	if v.dense() && v.N > 0 {
		return &Vec[T]{N: v.N, Val: slices.Clone(s.Val)}
	}
	return v
}

// operand draws a pool slot, its vector placed in a random form.
func (r *prog[T]) operand() (int, ref[T]) {
	i := r.rng.Intn(len(r.pool))
	x := r.pool[i]
	x.v = r.form(x.v)
	return i, x
}

// grant hands x to the kernel as the superseded output when out is x's
// slot, half the time: a copy in x's form, which the kernel may write.
func (r *prog[T]) grant(out, slot int, x *ref[T]) Exec {
	if out != slot || r.rng.Intn(2) == 0 {
		return Exec{}
	}
	x.v, x.granted = x.v.Clone(), true
	return Exec{Spare: x.v} //grblint:ignore snapshotcheck -- the generator plays the step that grants
}

// mask draws a vector mask: none, the complemented empty one, or an empty,
// sparse or dense mask vector whose values mix stored trues and falses,
// read by value or structure, complemented or not, in a random form.
func (r *prog[T]) mask() VMask {
	switch r.rng.Intn(7) {
	case 0:
		return VMask{}
	case 1:
		return VMask{Complement: r.rng.Intn(2) == 0}
	}
	nnz := []int{0, r.rng.Intn(r.n/2 + 1), r.n}[r.rng.Intn(3)]
	m := &Vec[bool]{N: r.n, Ind: r.rng.Perm(r.n)[:nnz], Val: make([]bool, nnz)}
	sort.Ints(m.Ind)
	for k := range m.Val {
		m.Val[k] = r.rng.Intn(3) > 0
	}
	form := []int{0, 1, 2, 2, 2, 3}[r.rng.Intn(6)] // the bitmap form, BFS's visited's, weighs three
	return VMask{M: placeForm(m, form), Structural: r.rng.Intn(2) == 0, Complement: r.rng.Intn(2) == 0}
}

// admits is the mask at position i, by its definition.
func admits(mask VMask, i int) bool {
	if mask.M == nil {
		return !mask.Complement
	}
	v, present := mask.M.Get(i)
	return (present && (mask.Structural || v)) != mask.Complement
}

func (r *prog[T]) step(kinds stepKind) {
	var kind stepKind
	for kind&kinds == 0 {
		kind = 1 << r.rng.Intn(10)
	}
	k, rng, n := r.k, r.rng, r.n
	out := rng.Intn(len(r.pool))
	op := k.ops[rng.Intn(len(k.ops))]
	var accum func(T, T) T
	if rng.Intn(3) > 0 {
		accum = op.f
	}
	threads := 1 + rng.Intn(2)
	switch kind {
	case sEWise:
		ia, a := r.operand()
		ib, b := r.operand()
		e := r.grant(out, ia, &a)
		if !a.granted {
			e = r.grant(out, ib, &b)
		}
		A, B := rowOf(a.v), rowOf(b.v)
		if rng.Intn(2) == 0 {
			twin := row0(EWiseAddM(A, B, op.f, par(threads)))
			r.store(out, "EWiseAddV/"+op.name, EWiseAddV(op.tag, a.v, b.v, op.f, e), union(a.m, b.m, op.f), twin, a, b)
		} else {
			twin := row0(EWiseMultM(A, B, op.f, par(threads)))
			r.store(out, "EWiseMultV/"+op.name, EWiseMultV(op.tag, a.v, b.v, op.f, e), intersect(a.m, b.m, op.f), twin, a, b)
		}
	case sApply:
		_, a := r.operand()
		s := rng.Intn(5)
		applied, indexed, kept := map[int]T{}, map[int]T{}, map[int]T{}
		for i, x := range a.m {
			applied[i], indexed[i] = k.neg(x), x
			if (i+s)%3 == 0 {
				indexed[i] = k.neg(x)
			}
			if (i+2*s)%3 != 0 {
				kept[i] = x
			}
		}
		keep := func(_ T, i, j, s int) bool { return (i+j+2*s)%3 != 0 } // a vector index arrives as i, a column as j
		twin := row0(SelectM(rowOf(a.v), keep, s, par(threads)))
		switch rng.Intn(3) {
		case 0:
			r.store(out, "ApplyV", ApplyV(a.v, k.neg), applied, nil, a)
		case 1:
			r.store(out, "ApplyIndexV", ApplyIndexV(a.v, func(x T, i, _ int, s int) T {
				if (i+s)%3 == 0 {
					return k.neg(x)
				}
				return x
			}, s), indexed, nil, a)
		default:
			r.store(out, "SelectV", SelectV(a.v, keep, s), kept, twin, a)
		}
	case sAssign:
		ic, c := r.operand()
		e := r.grant(out, ic, &c)
		var idx []int
		if rng.Intn(2) == 0 {
			idx = rng.Perm(n)[:1+rng.Intn(n)]
			idx = append(idx, idx[rng.Intn(len(idx))]) // a repeated target
		}
		if rng.Intn(2) == 0 {
			val := k.mk(rng)
			twin, err := AssignScalarM(rowOf(c.v), val, []int{0}, idx, accum)
			r.noErr(err)
			got, err := AssignScalarV(c.v, val, idx, accum, e)
			r.noErr(err)
			r.store(out, "AssignScalarV", got, assignRef(n, c.m, func(int) (T, bool) { return val, true }, idx, accum), row0(twin), c)
			return
		}
		u := r.fresh(n)
		if idx != nil {
			u = r.fresh(len(idx))
		}
		src := func(k int) (T, bool) { x, ok := u.m[k]; return x, ok }
		twin, err := AssignM(rowOf(c.v), rowOf(u.v), nil, idx, accum)
		r.noErr(err)
		got, err := AssignV(c.v, u.v, idx, accum, e)
		r.noErr(err)
		r.store(out, "AssignV", got, assignRef(n, c.m, src, idx, accum), row0(twin), c, u)
	case sMasked:
		ic, c := r.operand()
		mask := r.mask()
		for mask.M == nil {
			mask = r.mask()
		}
		replace := rng.Intn(2) == 0
		e := r.grant(out, ic, &c)
		val := k.mk(rng)
		all := assignRef(n, nil, func(int) (T, bool) { return val, true }, nil, nil)
		got, err := AssignScalarMaskedV(c.v, val, accum, mask, replace, e)
		r.noErr(err)
		r.store(out, "AssignScalarMaskedV", got, writeBack(n, c.m, all, accum, mask, replace), nil, c)
	case sWriteBack:
		_, c := r.operand()
		_, z := r.operand()
		mask, replace := r.mask(), rng.Intn(2) == 0
		mm := Mask{Structural: mask.Structural, Complement: mask.Complement}
		if mask.M != nil {
			mm.M = rowOf(mask.M)
		}
		C := rowOf(c.v)
		twin := row0(MaskApplyM(C, AccumMergeM(C, rowOf(z.v), accum, par(threads)), mm, replace, par(threads)))
		r.store(out, "MaskApplyV∘AccumMergeV", MaskApplyV(c.v, AccumMergeV(c.v, z.v, accum), mask, replace),
			writeBack(n, c.m, z.m, accum, mask, replace), twin, c, z)
	case sMerge:
		_, c := r.operand()
		tuples := make([]VTuple[T], rng.Intn(2*n+1))
		want := clone(c.m)
		for j := range tuples {
			tuples[j] = VTuple[T]{Idx: rng.Intn(n), Val: k.mk(rng), Del: rng.Intn(3) == 0}
			if tuples[j].Del {
				delete(want, tuples[j].Idx)
			} else {
				want[tuples[j].Idx] = tuples[j].Val
			}
		}
		mt := make([]Tuple[T], len(tuples))
		for j, u := range tuples {
			mt[j] = Tuple[T]{Col: u.Idx, Val: u.Val, Del: u.Del}
		}
		size := []int{0, n / 2, n, n + 3}[rng.Intn(4)]
		resized := map[int]T{}
		for i, x := range c.m {
			if i < size {
				resized[i] = x
			}
		}
		C := rowOf(c.v)
		r.check("Resize", c.v.Resize(size), resized, row0(C.Resize(1, size)))
		twin, err := MergeTuples(C, mt)
		r.noErr(err)
		got, err := MergeVTuples(c.v, tuples)
		r.noErr(err)
		r.store(out, "MergeVTuples", got, want, row0(twin), c)
	case sPull, sPullAccum, sPush:
		r.product(kind, out, op, threads)
	case sReduce:
		_, u := r.operand()
		got, ok := ReduceVec(k.mon, u.v, k.add)
		want, wantOK := foldRef(u.m, k.add)
		if ok != wantOK || ok && !sameBits(got, want) {
			r.t.Fatalf("%s ReduceVec: (%v, %v), want (%v, %v)", r.label, got, ok, want, wantOK)
		}
		if rng.Intn(2) == 0 {
			rows := map[int]T{}
			for i := 0; i < n; i++ {
				if ind, val := r.a.Row(i); len(ind) > 0 {
					rows[i], _ = foldRef(entries(&Vec[T]{N: n, Ind: ind, Val: val}), k.add)
				}
			}
			r.store(out, "ReduceRows", ReduceRows(k.mon, r.a, k.add, par(threads)), rows, nil)
			return
		}
		idx := make([]int, n)
		picked := map[int]T{}
		for i := range idx {
			idx[i] = rng.Intn(n)
			if x, ok := u.m[idx[i]]; ok {
				picked[i] = x
			}
		}
		got2, err := ExtractV(u.v, idx)
		r.noErr(err)
		r.store(out, "ExtractV", got2, picked, nil, u)
	}
}

// product runs one pull, accumulating pull or push under a random mask,
// accumulator pin, loop, worker count and, one time in five, a budget one
// byte short of one of its dense structures.
func (r *prog[T]) product(kind stepKind, out int, op binop[T], threads int) {
	k, rng, n := r.k, r.rng, r.n
	iu, u := r.operand()
	mask := r.mask()
	hint := Kernel(rng.Intn(3))
	semi := k.semi
	if rng.Intn(2) == 0 {
		semi = SemiGeneric
	}
	var rt Route
	e := par(threads)
	e.Route = &rt
	var zero T
	spa := int64(n) * int64(unsafe.Sizeof(zero)+1)
	budgeted := rng.Intn(5) == 0
	if budgeted {
		limit := []int64{u.v.viewBytes(), spa, spa + int64(n), lookupBytes(u.v) + int64(n)}[rng.Intn(4)] - 1
		e.Tx = NewBudget(max(limit, 1)).Tx()
	}
	label := fmt.Sprintf("%s/semi=%s/hint=%d/threads=%d/budget=%v", kindName(kind), semi, hint, threads, budgeted)
	var got *Vec[T]
	var err error
	var want map[int]T
	var keep []ref[T]
	switch kind {
	case sPull:
		want = r.multiply(u.m, mask, false)
		got, err = SpMVSemiEx(semi, SpecAuto, r.a, u.v, k.mul, k.add, mask, e, hint)
		keep = []ref[T]{u}
	case sPush:
		want = r.multiply(u.m, mask, true)
		got, err = vxmSemi(semi, u.v, r.a, k.mul, k.add, mask, e, hint)
		keep = []ref[T]{u}
	default:
		ic, c := r.operand()
		if ic != iu { // a step grants c only when u is another vector
			e.Spare = r.grant(out, ic, &c).Spare //grblint:ignore snapshotcheck -- the generator plays the step that grants
		}
		if ic == iu && rng.Intn(2) == 0 {
			u = c // u aliases c
		}
		want = union(c.m, r.multiply(u.m, mask, false), op.f)
		got, err = SpMVAccumEx(semi, r.a, u.v, k.mul, k.add, mask, c.v, op.f, op.tag, e, hint)
		keep = []ref[T]{u, c}
		label += "/accum=" + op.name
	}
	e.Close()
	if budgeted && errors.Is(err, ErrBudget) {
		return
	}
	r.noErr(err)
	r.reached[rt.Reason] = true
	if hint == KernelHash && !rt.Reason.Budget() && (rt.Acc != AccHash || rt.Family) {
		r.t.Fatalf("%s %s: the hash pin ran %+v", r.label, label, rt)
	}
	r.store(out, label, got, want, nil, keep...)
}

func kindName(k stepKind) string {
	return map[stepKind]string{sPull: "SpMVSemiEx", sPush: "vxmSemi", sPullAccum: "SpMVAccumEx"}[k]
}

// multiply is the product's oracle: t(i) = ⊕_j A(i,j) ⊗ u(j) (the pull), or
// t(j) = ⊕_i u(i) ⊗ A(i,j) (the push), folded in ascending inner index from
// the first product, at the positions the mask admits.
func (r *prog[T]) multiply(u map[int]T, mask VMask, push bool) map[int]T {
	t := map[int]T{}
	fold := func(i int, x T) {
		if y, ok := t[i]; ok {
			x = r.k.add(y, x)
		}
		t[i] = x
	}
	if push {
		for _, i := range sortedKeys(u) {
			ind, val := r.a.Row(i)
			for k, j := range ind {
				fold(j, r.k.mul(u[i], val[k]))
			}
		}
	} else {
		for i := 0; i < r.n; i++ {
			ind, val := r.a.Row(i)
			for k, j := range ind {
				if x, ok := u[j]; ok {
					fold(i, r.k.mul(val[k], x))
				}
			}
		}
	}
	for i := range t {
		if !admits(mask, i) {
			delete(t, i)
		}
	}
	return t
}

// store checks got (and the one-row twin, if any) against want and the
// operands in keep against their entries — a kernel writes no operand it was
// not granted — then puts got in the pool at out.
func (r *prog[T]) store(out int, what string, got *Vec[T], want map[int]T, twin *Vec[T], keep ...ref[T]) {
	r.t.Helper()
	r.check(what, got, want, twin)
	for _, x := range keep {
		if x.granted {
			continue
		}
		r.check(what+" (an operand after the call)", x.v, x.m, nil)
	}
	if got.N == r.n {
		r.pool[out] = ref[T]{v: got, m: want}
	}
}

func (r *prog[T]) check(what string, got *Vec[T], want map[int]T, twin *Vec[T]) {
	r.t.Helper()
	DebugCheckVec(got, what)
	if got.Bit == nil && !got.full() && !got.Valid() {
		r.t.Fatalf("%s %s: an invalid sorted vector %+v", r.label, what, got)
	}
	if !sameEntries(got, want) {
		r.t.Fatalf("%s %s:\n got  %v\n want %v", r.label, what, entries(got), want)
	}
	if twin != nil && !sameEntries(twin, want) {
		r.t.Fatalf("%s %s: the one-row matrix twin gave %v, want %v", r.label, what, entries(twin), want)
	}
}

func (r *prog[T]) noErr(err error) {
	r.t.Helper()
	if err != nil {
		r.t.Fatalf("%s: %v", r.label, err)
	}
}

// rowOf is v as a 1×n matrix of its own storage: a granted operand's may be
// written by the kernel after its twin ran.
func rowOf[T any](v *Vec[T]) *CSR[T] { return oneRow(v.Sorted().Clone()) }

// The map oracle.

func entries[T any](v *Vec[T]) map[int]T {
	I, X := v.VecTuples(nil, nil)
	m := make(map[int]T, len(I))
	for k, i := range I {
		m[i] = X[k]
	}
	return m
}

func sameEntries[T comparable](v *Vec[T], want map[int]T) bool {
	I, X := v.VecTuples(nil, nil)
	if len(I) != len(want) {
		return false
	}
	for k, i := range I {
		if w, ok := want[i]; !ok || !sameBits(X[k], w) {
			return false
		}
	}
	return true
}

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

// foldRef reduces m in index order from its first entry.
func foldRef[T any](m map[int]T, add func(T, T) T) (acc T, ok bool) {
	for _, i := range sortedKeys(m) {
		if ok {
			acc = add(acc, m[i])
		} else {
			acc, ok = m[i], true
		}
	}
	return acc, ok
}

// union is eWiseAdd and the accumulator step: a's side is f's first operand,
// one-sided entries pass through.
func union[T any](a, b map[int]T, f func(T, T) T) map[int]T {
	out := clone(a)
	for i, y := range b {
		if x, ok := a[i]; ok {
			y = f(x, y)
		}
		out[i] = y
	}
	return out
}

func intersect[T any](a, b map[int]T, f func(T, T) T) map[int]T {
	out := map[int]T{}
	for i, x := range a {
		if y, ok := b[i]; ok {
			out[i] = f(x, y)
		}
	}
	return out
}

// assignRef is C(idx) = src with accum (idx nil: every position). A
// repeated target takes its last stored source entry, folded into C's by
// accum; without accum a listed position no source entry reaches loses C's.
func assignRef[T any](n int, c map[int]T, src func(int) (T, bool), idx []int, accum func(T, T) T) map[int]T {
	if idx == nil {
		idx = make([]int, n)
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

// writeBack is W = C⟨mask, replace⟩ ⊙= T, position by position.
func writeBack[T any](n int, c, t map[int]T, accum func(T, T) T, mask VMask, replace bool) map[int]T {
	z := t
	if accum != nil {
		z = union(c, t, accum)
	}
	out := map[int]T{}
	for i := 0; i < n; i++ {
		if x, ok := z[i]; admits(mask, i) && ok {
			out[i] = x
		} else if x, ok := c[i]; !admits(mask, i) && ok && !replace {
			out[i] = x
		}
	}
	return out
}

// TestPrograms is the whole corpus: every step kind over every kit.
func TestPrograms(t *testing.T) { runCorpus(t, sAll) }

// TestProgramsReachEveryVectorReason: the plan rows the fixed corpus's
// vector products report through Exec.Route. A row it does not reach fails
// unless it is named here with its cause.
func TestProgramsReachEveryVectorReason(t *testing.T) {
	reached := runCorpus(t, sProducts)
	unreached := map[Reason]string{
		ReasonNone:           "every product reports a row",
		ReasonSparseFrontier: "a direction row: the grb layer's planDir, not a kernel, decides it (the root corpus reaches it)",
		ReasonDenseFrontier:  "a direction row (as above)",
		ReasonFullFrontier:   "a direction row (as above)",
		ReasonBudgetPush:     "the grb layer's push → pull flip (the root corpus reaches it)",
		ReasonMaskFirst:      "a matrix product's row range",
		ReasonRangesSplit:    "a matrix product's row ranges",
	}
	for why := ReasonNone; why <= ReasonBudgetMask; why++ {
		cause, named := unreached[why]
		switch {
		case reached[why] && named:
			t.Errorf("plan row %d (%q) is named unreachable (%s) but the corpus reached it", why, why, cause)
		case !reached[why] && !named:
			t.Errorf("the corpus reached no product with plan row %d (%q)", why, why)
		}
	}
}

// The configurations the enumerated batteries became: each runs the corpus
// restricted to the step kinds the battery covered.

func TestVecWriteBackOracle(t *testing.T) {
	runCorpus(t, sEWise|sApply|sAssign|sMasked|sWriteBack)
}
func TestVectorIsOneRowMatrix(t *testing.T) {
	runCorpus(t, sEWise|sApply|sAssign|sWriteBack|sMerge)
}
func TestProductsReadEitherForm(t *testing.T)      { runCorpus(t, sPull|sPush) }
func TestVMaskLookupSemantics(t *testing.T)        { runCorpus(t, sPush|sMasked) }
func TestVxMReductionPaths(t *testing.T)           { runCorpus(t, sPush) }
func TestPullAccumMatchesUnfused(t *testing.T)     { runCorpus(t, sPullAccum) }
func TestPushIsThreadInvariant(t *testing.T)       { runCorpus(t, sPush|sPull) }
func TestPushHashMatchesDense(t *testing.T)        { runCorpus(t, sPush) }
func TestSpMVMaskedAgainstPostFilter(t *testing.T) { runCorpus(t, sPull) }
func TestExtractVKernel(t *testing.T)              { runCorpus(t, sReduce) }
func TestAssignScalarVKernel(t *testing.T)         { runCorpus(t, sAssign|sMasked) }
func TestSelectVAndApplyVKernels(t *testing.T)     { runCorpus(t, sApply) }
func TestAccumMergeV(t *testing.T)                 { runCorpus(t, sWriteBack) }
func TestSpMVAndVxMAgainstDense(t *testing.T)      { runCorpus(t, sProducts) }
func TestDifferentialSpMVGather(t *testing.T)      { runCorpus(t, sPull|sPullAccum) }
func TestVectorKernels(t *testing.T)               { runCorpus(t, sEWise|sAssign) }
func TestVecMergeAgainstMap(t *testing.T)          { runCorpus(t, sMerge) }
func TestFormatVecRoundTrip(t *testing.T)          { runCorpus(t, sEWise|sApply|sReduce) }
func TestFormatVecRoundTripInt64(t *testing.T)     { runCorpus(t, sEWise|sApply|sReduce) }
