package sparse

import (
	"cmp"
	"errors"
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
// also held to row 0 of its matrix twin on the 1×n matrix. A second pool
// holds four matrices, each n×n, n×m, m×n or m×m, that the matrix steps —
// SpGEMM under the same draws, the …M element-wise, write-back, apply,
// select and cut, assign, extract, Kron, transpose, resize, reduce, build,
// merge and Diag kernels — read and write the same way, each output checked
// for its shape too.
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
	sGEMM                           // SpGEMMSemiEx, masked and unmasked
	sEWiseM                         // EWiseAddM, EWiseMultM, MaskApplyM ∘ AccumMergeM
	sApplyM                         // ApplyM, ApplyIndexM
	sSelectM                        // SelectM, SelectCutM
	sAssignM                        // AssignM, AssignScalarM
	sExtractM                       // ExtractM, ExtractColV
	sKron                           // Kron
	sTranspose                      // Transpose, ReduceAll, a Resize and back
	sBuild                          // BuildCSR, MergeTuples, Diag

	numKinds  = iota
	sAll      = 1<<numKinds - 1
	sProducts = sPull | sPullAccum | sPush
	sMatrix   = sGEMM | sEWiseM | sApplyM | sSelectM | sAssignM | sExtractM | sKron | sTranspose | sBuild
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

func kits() (pt kit[float64], mp kit[float64], pi kit[int64], mi kit[int64], pp kit[float64], ll kit[bool]) {
	plusF, timesF := func(x, y float64) float64 { return x + y }, func(x, y float64) float64 { return x * y }
	pt = arithKit("plus_times/float64", SemiPlusTimes, timesF, plusF, spikedFloat)
	pt.mon = MonPlus
	mp = arithKit("min_plus/float64", SemiMinPlus, plusF, monoMin[float64], spikedFloat)
	pi = arithKit("plus_times/int64", SemiPlusTimes, func(x, y int64) int64 { return x * y },
		func(x, y int64) int64 { return x + y }, func(r *rand.Rand) int64 { return int64(r.Intn(19) - 9) })
	pi.mon = MonPlus
	mi = arithKit("min_plus/int64", SemiMinPlus, func(x, y int64) int64 { return x + y }, monoMin[int64],
		func(r *rand.Rand) int64 { return int64(r.Intn(1000)) })
	pp = arithKit("plus_pair/float64", SemiPlusPair, func(float64, float64) float64 { return 1 }, plusF, spikedFloat)
	ll = kit[bool]{name: "lor_land/bool", semi: SemiLorLand, mul: func(x, y bool) bool { return x && y },
		add: func(x, y bool) bool { return x || y }, neg: func(x bool) bool { return !x },
		mk: func(r *rand.Rand) bool { return r.Intn(3) > 0 },
		ops: []binop[bool]{{"lor", BinGeneric, func(x, y bool) bool { return x || y }},
			{"andnot", BinGeneric, func(x, y bool) bool { return x && !y }}, {"first", BinGeneric, func(x, _ bool) bool { return x }}}}
	return
}

// kitSet is a set of kits() domains, one bit each in its order.
type kitSet uint

const (
	kPT kitSet = 1 << iota // plus_times/float64
	kMP                    // min_plus/float64
	kPI                    // plus_times/int64
	kMI                    // min_plus/int64
	kPP                    // plus_pair/float64
	kLL                    // lor_land/bool
)

// axis is which of a product's draws vary.
type axis int

const (
	axAll    axis = iota // every draw
	axLoop               // the tag or SemiGeneric, the planner's accumulator or the dense one: the family loop against the closure one
	axAcc                // the dense or the hash pin, the closure loop: the two accumulators against each other
	axMasked             // every matrix product under a mask
	axPairs              // axMasked, every matrix product counting pairs into int64, untagged (T ≠ C)
)

// config is a configuration of the corpus: the step kinds its programs
// draw, its domains (0: every kit), the programs of each (0: two) and the
// axis its products vary on.
type config struct {
	kinds stepKind
	kits  kitSet
	count int
	axis  axis
}

// tally is what a configuration's products reported: the plan rows, per kit
// and kernel whether a tagged product ran its family loop, and per kernel
// which side of its cut between the forms an unaccumulated product's output
// fell on.
type tally struct {
	reached map[Reason]bool
	family  map[string]bool // a key once a tagged product ran at all
	forms   map[string]bool // "vxmSemi/bitmap", "SpMVSemiEx/sorted", ...
}

// tallyForm records which side of its kernel's cut between the forms got,
// an unaccumulated product's output, fell on.
func tallyForm[T any](tl *tally, kernel string, got *Vec[T]) {
	side := "sorted"
	if got.Bit != nil || got.full() {
		side = "bitmap"
	}
	tl.forms[kernel+"/"+side] = true
}

// runCorpus is a vector configuration: 24 programs of every kit. matrixCorpus,
// the matrix batteries' shorthand, runs two; the whole corpus, TestPrograms,
// runs every step kind at 24.
func runCorpus(t *testing.T, kinds stepKind)    { runConfig(t, config{kinds: kinds, count: 24}) }
func matrixCorpus(t *testing.T, kinds stepKind) { runConfig(t, config{kinds: kinds}) }

// runConfig runs configuration c and returns what its products reported.
// Under axLoop a kit whose tagged products of a kernel never ran
// its family loop fails: a silent fallback to the closure loop would leave
// the family loops unchecked.
func runConfig(t *testing.T, c config) *tally {
	if c.kits == 0 {
		c.kits = kPT | kMP | kPI | kMI | kPP | kLL
	}
	if c.count == 0 {
		c.count = 2
	}
	tl := &tally{reached: map[Reason]bool{}, family: map[string]bool{}, forms: map[string]bool{}}
	rng := rand.New(rand.NewSource(progSeed(t)))
	pt, mp, pi, mi, pp, ll := kits()
	corpusIf(t, rng, c, kPT, pt, tl)
	corpusIf(t, rng, c, kMP, mp, tl)
	corpusIf(t, rng, c, kPI, pi, tl)
	corpusIf(t, rng, c, kMI, mi, tl)
	corpusIf(t, rng, c, kPP, pp, tl)
	corpusIf(t, rng, c, kLL, ll, tl)
	if c.axis == axLoop {
		for name, ran := range tl.family {
			if !ran {
				t.Errorf("%s: no tagged product ran the family loop", name)
			}
		}
	}
	return tl
}

func corpusIf[T comparable](t *testing.T, rng *rand.Rand, c config, bit kitSet, k kit[T], tl *tally) {
	if c.kits&bit != 0 {
		corpus(t, rng, c, k, tl)
	}
}

// corpus runs c.count programs of one kit: sizes from 1 to past the pull's
// accumulate block, matrices of three entries a row and hypersparse ones.
// The matrix slots are n×n, n×m, m×n or m×m, where m is n in about a
// quarter of the programs and another size in the rest.
func corpus[T comparable](t *testing.T, rng *rand.Rand, c config, k kit[T], tl *tally) {
	sizes := []int{1, 2, 17, 64, 300, 64, 17, 2*accumBlock + 277}
	for p := 0; p < c.count; p++ {
		n, m := sizes[rng.Intn(8)], sizes[rng.Intn(8)]
		for m == n && rng.Intn(4) > 0 {
			m = sizes[rng.Intn(8)]
		}
		nnz := 3 * n
		if p%3 == 2 {
			nnz = n/16 + 1
		}
		r := &prog[T]{t: t, rng: rng, k: k, n: n, dims: [2]int{n, m}, axis: c.axis, a: sprayCSR(rng, n, n, nnz, k.mk), tl: tl}
		for i := range r.pool {
			r.pool[i] = r.fresh(n)
			if c.kinds&sMatrix != 0 {
				r.mats[i] = r.freshM(r.dim(), r.dim())
			}
		}
		for s := 0; s < 32; s++ {
			r.label = fmt.Sprintf("%s program %d (n=%d m=%d nnz(A)=%d) step %d", k.name, p, n, m, r.a.NNZ(), s)
			r.step(c.kinds)
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
	t     *testing.T
	rng   *rand.Rand
	k     kit[T]
	n     int
	dims  [2]int // the matrix slots' dimensions: n and m
	axis  axis
	a     *CSR[T]
	pool  [4]ref[T]
	mats  [4]mref[T]
	tl    *tally
	label string
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
		kind = 1 << r.rng.Intn(numKinds)
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
		var e Exec
		if ia != out && rng.Intn(4) == 0 {
			// w = u ⊕ w with both sides position-indexed: the grant is the
			// second operand's.
			ib, b = out, r.pool[out]
			a.v, b.v = placeForm(a.v, 2), placeForm(b.v, 2).Clone()
			b.granted, e.Spare = true, b.v //grblint:ignore snapshotcheck -- the generator plays the step that grants
		} else if e = r.grant(out, ia, &a); !a.granted {
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
		r.store(out, "AssignScalarMaskedV", got, writeBack(c.m, all, accum, vadmit(mask), replace), nil, c)
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
			writeBack(c.m, z.m, accum, vadmit(mask), replace), twin, c, z)
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
		r.product(kind, out, op, []int{1, 2, 4}[rng.Intn(3)])
	case sGEMM:
		r.gemm(out, threads)
	default:
		r.matrixStep(kind, out, op, accum, threads)
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
// accumulator pin, loop, worker count (1, 2 or 4) and, one time in five, a
// budget one byte short of one of its dense structures.
func (r *prog[T]) product(kind stepKind, out int, op binop[T], threads int) {
	k, rng, n := r.k, r.rng, r.n
	iu, u := r.operand()
	mask := r.mask()
	semi, hint := r.loop(KernelAuto, KernelDense, KernelHash)
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
	r.ran(semi, kindName(kind), rt)
	if kind != sPullAccum {
		tallyForm(r.tl, kindName(kind), got)
	}
	if hint == KernelHash && !rt.Reason.Budget() && (rt.Acc != AccHash || rt.Family) {
		r.t.Fatalf("%s %s: the hash pin ran %+v", r.label, label, rt)
	}
	r.store(out, label, got, want, nil, keep...)
}

// loop draws a product's loop and pin: the tag or SemiGeneric and one of
// hints, unless the program's axis holds one of them.
func (r *prog[T]) loop(hints ...Kernel) (Semi, Kernel) {
	hint, semi := hints[r.rng.Intn(len(hints))], r.k.semi
	if r.rng.Intn(2) == 0 {
		semi = SemiGeneric
	}
	switch r.axis {
	case axLoop:
		hint = []Kernel{KernelAuto, KernelDense}[r.rng.Intn(2)]
	case axAcc:
		semi, hint = SemiGeneric, []Kernel{KernelDense, KernelHash}[r.rng.Intn(2)]
	case axPairs:
		semi = SemiGeneric
	}
	return semi, hint
}

// ran tallies a product's route: its plan row and, when semi is the tag,
// whether it ran the family loop.
func (r *prog[T]) ran(semi Semi, kernel string, rt Route) {
	r.tl.reached[rt.Reason] = true
	if key := r.k.name + "/" + kernel; semi != SemiGeneric {
		r.tl.family[key] = r.tl.family[key] || rt.Family
	}
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

// The matrix slice: a pool of four matrices, each n×n, n×m, m×n or m×m,
// beside their oracle entries, which the matrix steps read and write as the
// vector steps do the vectors.

// mkey is a matrix position, (row, column).
type mkey = [2]int

// mref is a matrix beside its oracle entries.
type mref[T any] struct {
	m *CSR[T]
	e map[mkey]T
}

// dim is n or m.
func (r *prog[T]) dim() int { return r.dims[r.rng.Intn(2)] }

// freshM is a random rows×cols matrix: empty, three entries a row,
// hypersparse, or — up to 17×17 — every position.
func (r *prog[T]) freshM(rows, cols int) mref[T] {
	var m *CSR[T]
	switch nnz := []int{0, 3 * rows, rows/16 + 1, rows * cols}[r.rng.Intn(4)]; {
	case nnz == rows*cols && nnz <= 17*17:
		m = NewCSR[T](rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Ind, m.Val = append(m.Ind, j), append(m.Val, r.k.mk(r.rng))
			}
			m.Ptr[i+1] = len(m.Ind)
		}
	default:
		m = sprayCSR(r.rng, rows, cols, min(nnz, 3*rows), r.k.mk)
	}
	return mref[T]{m: m, e: entriesM(m)}
}

func (r *prog[T]) operandM() mref[T] { return r.shaped(-1, -1) }

// shaped draws a slot of rows×cols (-1: any), or a fresh matrix of that
// shape when no slot has it.
func (r *prog[T]) shaped(rows, cols int) mref[T] {
	for _, i := range r.rng.Perm(len(r.mats)) {
		if m := r.mats[i].m; (rows < 0 || m.Rows == rows) && (cols < 0 || m.Cols == cols) {
			return r.mats[i]
		}
	}
	if rows < 0 {
		rows = r.dim()
	}
	if cols < 0 {
		cols = r.dim()
	}
	return r.freshM(rows, cols)
}

// maskM draws a rows×cols matrix mask: none, the complemented empty one, or
// an empty, sparse, dense or top-heavy mask (dense in the upper half of its
// rows, so that a product's two row ranges may route apart) whose values mix
// stored trues and falses, read by value or structure, complemented or not.
func (r *prog[T]) maskM(rows, cols int) Mask {
	switch r.rng.Intn(6) {
	case 0:
		return Mask{}
	case 1:
		return Mask{Complement: r.rng.Intn(2) == 0}
	}
	flag := func(rng *rand.Rand) bool { return rng.Intn(3) > 0 }
	var m *CSR[bool]
	switch nnz := []int{0, 2 * rows, 12 * rows, -1, -1}[r.rng.Intn(5)]; nnz {
	case -1: // top-heavy
		m = sprayCSR(r.rng, rows/2+1, cols, 12*rows, flag).Resize(rows, cols)
	default:
		m = sprayCSR(r.rng, rows, cols, nnz, flag)
	}
	return Mask{M: m, Structural: r.rng.Intn(2) == 0, Complement: r.rng.Intn(2) == 0}
}

// list is nil (every position of dim) or up to most of dim's positions, a
// repeated target among them.
func (r *prog[T]) list(most, dim int) []int {
	if r.rng.Intn(3) == 0 {
		return nil
	}
	idx := r.rng.Perm(dim)[:1+r.rng.Intn(min(most, dim))]
	return append(idx, idx[r.rng.Intn(len(idx))])
}

// gemm runs one matrix product under a random mask, accumulator pin, loop,
// worker count and, one time in five, a budget one byte short of its row
// table or of one or two dense SPAs. One product in six (every one under
// axPairs) counts the pairs into int64 instead, plus-pair's tag or none, so
// its output's domain is not its operands' but for the int64 kits.
func (r *prog[T]) gemm(out, threads int) {
	rng := r.rng
	a := r.operandM()
	b := r.shaped(a.m.Cols, -1)
	rows, cols := a.m.Rows, b.m.Cols
	if SpGEMMFlopsTotal(a.m, b.m) > 1<<16 { // past the test's budget: a fresh output instead
		r.mats[out] = r.freshM(rows, cols)
		return
	}
	mask := r.maskM(rows, cols)
	for r.axis >= axMasked && mask.M == nil {
		mask = r.maskM(rows, cols)
	}
	semi, hint := r.loop(KernelAuto, KernelAuto, KernelDense, KernelHash)
	if r.axis == axPairs || r.axis == axAll && rng.Intn(6) == 0 {
		if semi != SemiGeneric { // the tag names the closures' semiring
			semi = SemiPlusPair
		}
		spgemm(r, semi, a, b, func(T, T) int64 { return 1 }, func(x, y int64) int64 { return x + y }, mask, hint, threads)
		for _, x := range []mref[T]{a, b} {
			r.checkM("a pair count's operand after the call", x.m, x.m.Rows, x.m.Cols, x.e)
		}
		return
	}
	if got, want, label, rt := spgemm(r, semi, a, b, r.k.mul, r.k.add, mask, hint, threads); got != nil {
		if mask.M != nil || !mask.Complement {
			r.ran(semi, "SpGEMMSemiEx", rt)
		}
		r.storeM(out, label, got, rows, cols, want, a, b)
	}
}

// spgemm runs C = A ⊕.⊗ B under mask and checks it against the oracle, bit
// for bit, at the positions the mask admits; a nil C is a budget's refusal.
func spgemm[T, C comparable](r *prog[T], semi Semi, a, b mref[T], mul func(T, T) C, add func(C, C) C,
	mask Mask, hint Kernel, threads int) (*CSR[C], map[mkey]C, string, Route) {
	var rt Route
	e := par(threads)
	e.Route = &rt
	rows, spa := int64(a.m.Rows)*8, int64(b.m.Cols)*slotBytes[C]()
	budgeted := r.rng.Intn(5) == 0
	if budgeted {
		e.Tx = NewBudget([]int64{rows, rows + spa, rows + 2*spa}[r.rng.Intn(3)] - 1).Tx()
	}
	got, err := SpGEMMSemiEx(semi, SpecAuto, a.m, b.m, mul, add, mask, e, hint)
	e.Close()
	label := fmt.Sprintf("SpGEMMSemiEx[%T]/semi=%s/hint=%d/threads=%d/budget=%v/route=%+v", *new(C), semi, hint, threads, budgeted, rt)
	if budgeted && errors.Is(err, ErrBudget) {
		return nil, nil, label, rt
	}
	r.noErr(err)
	if mask.M == nil && mask.Complement { // it admits nothing: no range runs, and no plan row is reported
		if rt.Acc != AccNone || rt.Family || got.NNZ() != 0 {
			r.t.Fatalf("%s %s: a product under a complemented nil mask ran a range or stored entries", r.label, label)
		}
	} else {
		r.tl.reached[rt.Reason] = true
	}
	if rt.MaskFirst && (mask.Complement || hint == KernelHash || rt.Family) {
		r.t.Fatalf("%s %s: mask-first under a complement, a hash pin or a family loop", r.label, label)
	}
	if hint == KernelHash && !rt.Reason.Budget() && rt.Acc != AccHash && rt.Acc != AccNone {
		r.t.Fatalf("%s %s: the hash pin ran another accumulator", r.label, label)
	}
	want := map[mkey]C{}
	for key, x := range mxmRef(a.e, b.e, mul, add) {
		if madmit(mask)(key) {
			want[key] = x
		}
	}
	checkCSR(r.t, r.label+" "+label, got, a.m.Rows, b.m.Cols, want)
	return got, want, label, rt
}

// matrixStep runs one element-wise, apply, select, assign, extract, Kron,
// transpose or build step.
func (r *prog[T]) matrixStep(kind stepKind, out int, op binop[T], accum func(T, T) T, threads int) {
	k, rng, e := r.k, r.rng, par(threads)
	a := r.operandM()
	rows, cols := a.m.Rows, a.m.Cols
	switch kind {
	case sEWiseM:
		b := r.shaped(rows, cols)
		switch rng.Intn(3) {
		case 0:
			r.storeM(out, "EWiseAddM/"+op.name, EWiseAddM(a.m, b.m, op.f, e), rows, cols, union(a.e, b.e, op.f), a, b)
		case 1:
			r.storeM(out, "EWiseMultM/"+op.name, EWiseMultM(a.m, b.m, op.f, e), rows, cols, intersect(a.e, b.e, op.f), a, b)
		default:
			mask, replace := r.maskM(rows, cols), rng.Intn(2) == 0
			got := MaskApplyM(a.m, AccumMergeM(a.m, b.m, accum, e), mask, replace, e)
			r.storeM(out, "MaskApplyM∘AccumMergeM", got, rows, cols, writeBack(a.e, b.e, accum, madmit(mask), replace), a, b)
		}
	case sApplyM, sSelectM:
		s := []int{math.MinInt, -rows, -2, -1, 0, 1, 3, cols, math.MaxInt}[rng.Intn(9)]
		c := Cut(1 + rng.Intn(8))
		flip := func(i, j, s int) bool { return (i+j+s%3)%3 == 0 }
		kept, applied, indexed := map[mkey]T{}, map[mkey]T{}, map[mkey]T{}
		for key, x := range a.e {
			applied[key], indexed[key] = k.neg(x), x
			if flip(key[0], key[1], s) {
				indexed[key] = k.neg(x)
			}
			if cutOps[c](key[0], key[1], s) {
				kept[key] = x
			}
		}
		switch choice := rng.Intn(2); {
		case kind == sApplyM && choice == 0:
			r.storeM(out, "ApplyM", ApplyM(a.m, k.neg, e), rows, cols, applied, a)
		case kind == sApplyM:
			r.storeM(out, "ApplyIndexM", ApplyIndexM(a.m, func(x T, i, j, s int) T {
				if flip(i, j, s) {
					return k.neg(x)
				}
				return x
			}, s, e), rows, cols, indexed, a)
		case choice == 0:
			r.storeM(out, "SelectM", SelectM(a.m, func(_ T, i, j, s int) bool { return cutOps[c](i, j, s) }, s, e), rows, cols, kept, a)
		default:
			got := SelectCutM(a.m, c, s, e)
			if cap(got.Ind) != got.NNZ() || cap(got.Val) != got.NNZ() {
				r.t.Fatalf("%s SelectCutM: capacities %d, %d for %d entries", r.label, cap(got.Ind), cap(got.Val), got.NNZ())
			}
			r.storeM(out, fmt.Sprintf("SelectCutM/cut=%d/s=%d", c, s), got, rows, cols, kept, a)
		}
	case sAssignM:
		ri, ci := r.list(8, rows), r.list(cols, cols)
		if ri == nil && rows*cols > 17*17 { // every row only up to 17×17: a region of every position costs the oracle as many steps
			ri = []int{rng.Intn(rows)}
		}
		if rng.Intn(2) == 0 {
			src := r.freshM(lenOr(ri, rows), lenOr(ci, cols))
			got, err := AssignM(a.m, src.m, ri, ci, accum)
			r.noErr(err)
			at := func(i, j int) (T, bool) { x, ok := src.e[mkey{i, j}]; return x, ok }
			r.storeM(out, "AssignM", got, rows, cols, assignMRef(rows, cols, a.e, at, ri, ci, accum), a, src)
			return
		}
		val := k.mk(rng)
		got, err := AssignScalarM(a.m, val, ri, ci, accum)
		r.noErr(err)
		r.storeM(out, "AssignScalarM", got, rows, cols, assignMRef(rows, cols, a.e, func(int, int) (T, bool) { return val, true }, ri, ci, accum), a)
	case sExtractM:
		// Lists of any length, repeats among them, or every position.
		pick := func(dim int) []int {
			if rng.Intn(3) == 0 {
				return nil
			}
			idx := make([]int, 1+rng.Intn(dim+2))
			for k := range idx {
				idx[k] = rng.Intn(dim)
			}
			return idx
		}
		ri, ci := pick(rows), pick(cols)
		if j := rng.Intn(cols); rng.Intn(3) == 0 { // one column, as a vector
			want := map[int]T{}
			for i := range lenOr(ri, rows) {
				if x, ok := a.e[mkey{at(ri, i), j}]; ok {
					want[i] = x
				}
			}
			got, err := ExtractColV(a.m, ri, j)
			r.noErr(err)
			r.store(out, "ExtractColV", got, want, nil)
			return
		}
		got, err := ExtractM(a.m, ri, ci, e)
		r.noErr(err)
		r.storeM(out, "ExtractM", got, lenOr(ri, rows), lenOr(ci, cols), extractRef(a.e, ri, ci, rows, cols), a)
	case sKron:
		b := r.operandM()
		if max(rows, cols, b.m.Rows, b.m.Cols) > 17 { // an output of up to 289² positions: small operands instead
			a, b = r.freshM(1+rng.Intn(5), 1+rng.Intn(5)), r.freshM(1+rng.Intn(5), 1+rng.Intn(5))
		}
		got, err := Kron(a.m, b.m, op.f, e)
		r.noErr(err)
		want := map[mkey]T{}
		for p, x := range a.e {
			for q, y := range b.e {
				want[mkey{p[0]*b.m.Rows + q[0], p[1]*b.m.Cols + q[1]}] = op.f(x, y)
			}
		}
		r.storeM(out, "Kron/"+op.name, got, a.m.Rows*b.m.Rows, a.m.Cols*b.m.Cols, want, a, b)
	case sTranspose:
		switch rng.Intn(3) {
		case 0:
			tr := map[mkey]T{}
			for p, x := range a.e {
				tr[mkey{p[1], p[0]}] = x
			}
			r.storeM(out, "Transpose", Transpose(a.m), cols, rows, tr, a)
		case 1:
			got, ok := ReduceAll(k.mon, a.m, k.add, e)
			flat := map[int]T{}
			for p, x := range a.e {
				flat[p[0]*cols+p[1]] = x
			}
			if want, wantOK := foldRef(flat, k.add); ok != wantOK || ok && !sameBits(got, want) {
				r.t.Fatalf("%s ReduceAll: (%v, %v), want (%v, %v)", r.label, got, ok, want, wantOK)
			}
		default:
			// A resize, then back: what lies outside the smaller shape is gone.
			nr, nc := []int{0, rows / 2, rows, rows + 3}[rng.Intn(4)], []int{0, cols / 2, cols, cols + 3}[rng.Intn(4)]
			kept := map[mkey]T{}
			for p, x := range a.e {
				if p[0] < nr && p[1] < nc {
					kept[p] = x
				}
			}
			resized := a.m.Resize(nr, nc)
			r.checkM("Resize", resized, nr, nc, kept)
			r.storeM(out, "Resize and back", resized.Resize(rows, cols), rows, cols, kept, a)
		}
	default: // sBuild
		if d := rng.Intn(5) - 2; rng.Intn(3) == 0 { // a vector on diagonal d
			_, u := r.operand()
			want := map[mkey]T{}
			for i, x := range u.m {
				want[mkey{i + max(-d, 0), i + max(d, 0)}] = x
			}
			r.storeM(out, fmt.Sprintf("Diag/%d", d), Diag(u.v, d), r.n+max(d, -d), r.n+max(d, -d), want)
			r.check("Diag's operand after the call", u.v, u.m, nil)
			return
		}
		if rng.Intn(2) == 0 {
			tuples := make([]Tuple[T], rng.Intn(2*rows+1))
			want := clone(a.e)
			for q := range tuples {
				tuples[q] = Tuple[T]{Row: rng.Intn(rows), Col: rng.Intn(cols), Val: k.mk(rng), Del: rng.Intn(3) == 0}
				if key := (mkey{tuples[q].Row, tuples[q].Col}); tuples[q].Del {
					delete(want, key)
				} else {
					want[key] = tuples[q].Val
				}
			}
			got, err := MergeTuples(a.m, tuples)
			r.noErr(err)
			r.storeM(out, "MergeTuples", got, rows, cols, want, a)
			return
		}
		rows, cols = r.dim(), r.dim()
		var I, J []int
		var X []T
		want := map[mkey]T{}
		for range rng.Intn(3*rows + 1) {
			i, j := rng.Intn(rows), rng.Intn(cols)
			if len(I) > 0 && rng.Intn(3) == 0 { // a duplicate
				p := rng.Intn(len(I))
				i, j = I[p], J[p]
			}
			x := k.mk(rng)
			I, J, X = append(I, i), append(J, j), append(X, x)
			if y, ok := want[mkey{i, j}]; ok {
				x = op.f(y, x) // dup: the earlier value first
			}
			want[mkey{i, j}] = x
		}
		got, err := BuildCSR(rows, cols, I, J, X, op.f)
		r.noErr(err)
		r.storeM(out, "BuildCSR/"+op.name, got, rows, cols, want)
	}
}

// storeM is store for a matrix: got against a rows×cols matrix of want's
// entries, the operands in keep against theirs, then got into the pool at
// out if its dimensions are n or m — and, past 17×17, it holds at most eight
// entries a row or column: a fresh matrix otherwise, so that no program
// spends its steps on a dense 789×789 one.
func (r *prog[T]) storeM(out int, what string, got *CSR[T], rows, cols int, want map[mkey]T, keep ...mref[T]) {
	r.t.Helper()
	r.checkM(what, got, rows, cols, want)
	for _, x := range keep {
		r.checkM(what+" (an operand after the call)", x.m, x.m.Rows, x.m.Cols, x.e)
	}
	fits := func(d int) bool { return d == r.dims[0] || d == r.dims[1] }
	switch {
	case !fits(rows) || !fits(cols):
	case len(want) > max(17*17, 8*max(rows, cols)):
		r.mats[out] = r.freshM(rows, cols)
	default:
		r.mats[out] = mref[T]{m: got, e: want}
	}
}

func (r *prog[T]) checkM(what string, got *CSR[T], rows, cols int, want map[mkey]T) {
	r.t.Helper()
	checkCSR(r.t, r.label+" "+what, got, rows, cols, want)
}

// checkCSR fails unless got is a valid rows×cols matrix of want's entries,
// bit for bit.
func checkCSR[C comparable](t *testing.T, what string, got *CSR[C], rows, cols int, want map[mkey]C) {
	t.Helper()
	DebugCheckCSR(got, what)
	if got.Rows != rows || got.Cols != cols || !got.Valid() {
		t.Fatalf("%s: an invalid or %d×%d matrix, want %d×%d", what, got.Rows, got.Cols, rows, cols)
	}
	if !sameMap(entriesM(got), want) {
		t.Fatalf("%s:\n got  %v\n want %v", what, entriesM(got), want)
	}
}

// entriesM is m's entries as Tuples lists them.
func entriesM[T any](m *CSR[T]) map[mkey]T {
	I, J, X := m.Tuples(nil, nil, nil)
	out := make(map[mkey]T, len(I))
	for k, i := range I {
		out[mkey{i, J[k]}] = X[k]
	}
	return out
}

func sameMap[K, T comparable](got, want map[K]T) bool {
	ok := len(got) == len(want)
	for i, x := range want {
		y, has := got[i]
		ok = ok && has && sameBits(x, y)
	}
	return ok
}

func lenOr(idx []int, n int) int {
	if idx == nil {
		return n
	}
	return len(idx)
}

// at is idx[k], or k when idx is nil (every position).
func at(idx []int, k int) int {
	if idx == nil {
		return k
	}
	return idx[k]
}

// mxmRef is C(i,j) = ⊕_k A(i,k) ⊗ B(k,j), folded in ascending k from the
// first product.
func mxmRef[T, C any](a, b map[mkey]T, mul func(T, T) C, add func(C, C) C) map[mkey]C {
	rows := map[int][]mkey{}
	for p := range b {
		rows[p[0]] = append(rows[p[0]], p)
	}
	keys := make([]mkey, 0, len(a))
	for p := range a {
		keys = append(keys, p)
	}
	slices.SortFunc(keys, func(p, q mkey) int { return cmp.Or(p[0]-q[0], p[1]-q[1]) })
	c := map[mkey]C{}
	for _, p := range keys {
		for _, q := range rows[p[1]] {
			y := mul(a[p], b[q])
			if acc, ok := c[mkey{p[0], q[1]}]; ok {
				y = add(acc, y)
			}
			c[mkey{p[0], q[1]}] = y
		}
	}
	return c
}

// assignMRef is C(rows, cols) = src with accum on a nr×nc matrix: each
// listed row is assignRef over cols from the source row listed last for it.
func assignMRef[T any](nr, nc int, c map[mkey]T, src func(int, int) (T, bool), rows, cols []int, accum func(T, T) T) map[mkey]T {
	last := map[int]int{}
	for k := range lenOr(rows, nr) {
		last[at(rows, k)] = k
	}
	lines := map[int]map[int]T{}
	out := map[mkey]T{}
	for p, x := range c {
		if _, listed := last[p[0]]; !listed {
			out[p] = x
		} else if lines[p[0]] == nil {
			lines[p[0]] = map[int]T{p[1]: x}
		} else {
			lines[p[0]][p[1]] = x
		}
	}
	for i, k := range last {
		for j, x := range assignRef(nc, lines[i], func(j int) (T, bool) { return src(k, j) }, cols, accum) {
			out[mkey{i, j}] = x
		}
	}
	return out
}

// extractRef is A(rows, cols) of a nr×nc matrix.
func extractRef[T any](a map[mkey]T, rows, cols []int, nr, nc int) map[mkey]T {
	byRow, colAt := map[int][]mkey{}, map[int][]int{}
	for p := range a {
		byRow[p[0]] = append(byRow[p[0]], p)
	}
	for k := range lenOr(cols, nc) {
		colAt[at(cols, k)] = append(colAt[at(cols, k)], k)
	}
	out := map[mkey]T{}
	for i := range lenOr(rows, nr) {
		for _, p := range byRow[at(rows, i)] {
			for _, j := range colAt[p[1]] {
				out[mkey{i, j}] = a[p]
			}
		}
	}
	return out
}

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
func union[K comparable, T any](a, b map[K]T, f func(T, T) T) map[K]T {
	out := clone(a)
	for i, y := range b {
		if x, ok := a[i]; ok {
			y = f(x, y)
		}
		out[i] = y
	}
	return out
}

func intersect[K comparable, T any](a, b map[K]T, f func(T, T) T) map[K]T {
	out := map[K]T{}
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

// writeBack is W = C⟨mask, replace⟩ ⊙= T, position by position; admit is
// the mask.
func writeBack[K comparable, T any](c, t map[K]T, accum func(T, T) T, admit func(K) bool, replace bool) map[K]T {
	z := t
	if accum != nil {
		z = union(c, t, accum)
	}
	out := map[K]T{}
	for i, x := range z {
		if admit(i) {
			out[i] = x
		}
	}
	for i, x := range c {
		if !admit(i) && !replace {
			out[i] = x
		}
	}
	return out
}

func vadmit(mask VMask) func(int) bool { return func(i int) bool { return admits(mask, i) } }

func madmit(mask Mask) func(mkey) bool {
	return func(e mkey) bool {
		if mask.M == nil {
			return !mask.Complement
		}
		v, present := mask.M.Get(e[0], e[1])
		return (present && (mask.Structural || v)) != mask.Complement
	}
}

// TestPrograms is the whole corpus: every step kind over every kit.
func TestPrograms(t *testing.T) { runCorpus(t, sAll) }

// TestProgramsReachEveryVectorReason: the plan rows the fixed corpus's
// vector and matrix products report through Exec.Route. A row it does not reach fails
// unless it is named here with its cause. So does a side of the push's or the
// pull's cut between a sorted and a bitmap output that no product fell on.
func TestProgramsReachEveryVectorReason(t *testing.T) {
	tl := runConfig(t, config{kinds: sProducts | sGEMM, count: 24})
	pinnedForms(t, tl)
	for _, form := range []string{"vxmSemi/bitmap", "vxmSemi/sorted", "SpMVSemiEx/bitmap", "SpMVSemiEx/sorted"} {
		if !tl.forms[form] {
			t.Errorf("the corpus produced no %s output", form)
		}
	}
	reached := tl.reached
	unreached := map[Reason]string{
		ReasonNone:           "every product reports a row",
		ReasonSparseFrontier: "a direction row: the grb layer's planDir, not a kernel, decides it (the root corpus reaches it)",
		ReasonDenseFrontier:  "a direction row (as above)",
		ReasonFullFrontier:   "a direction row (as above)",
		ReasonBudgetPush:     "the grb layer's push → pull flip (the root corpus reaches it)",
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

// pinnedForms runs a push and a pull on each side of its cut between a
// sorted and a bitmap output, on one worker with the dense structures
// pinned, and tallies their forms: the corpus draws operands of that size
// and density at most seeds, these at every one. A is 640×640 with about
// three entries a row (a float64 pull writes a bitmap from 586 admitted
// rows); a push of one row marks at most 3 columns (sorted) and of 64 rows
// about 190 (bitmap: ≥ 640/bitmapCut); an unmasked pull admits every row
// (bitmap) and one under an 8-row mask 8 (sorted).
func pinnedForms(t *testing.T, tl *tally) {
	const n = 640
	rng := rand.New(rand.NewSource(1))
	a := sprayCSR(rng, n, n, 3*n, spikedFloat)
	frontier := func(count int) *Vec[float64] {
		u := &Vec[float64]{N: n, Ind: rng.Perm(n)[:count], Val: make([]float64, count)}
		slices.Sort(u.Ind)
		return u
	}
	rows := &Vec[bool]{N: n, Ind: []int{0, 80, 160, 240, 320, 400, 480, 560}, Val: make([]bool, 8)}
	mul := func(x, y float64) float64 { return x * y }
	add := func(x, y float64) float64 { return x + y }
	for _, c := range []struct {
		push bool
		u    int
		mask VMask
	}{{true, 1, VMask{}}, {true, 64, VMask{}}, {false, n / 2, VMask{}}, {false, n / 2, VMask{M: rows, Structural: true}}} {
		kernel, got, err := "SpMVSemiEx", (*Vec[float64])(nil), error(nil)
		if c.push {
			kernel = "vxmSemi"
			got, err = vxmSemi(SemiPlusTimes, frontier(c.u), a, mul, add, c.mask, par(1), KernelDense)
		} else {
			got, err = SpMVSemiEx(SemiPlusTimes, SpecAuto, a, frontier(c.u), mul, add, c.mask, par(1), KernelDense)
		}
		if err != nil {
			t.Fatal(err)
		}
		tallyForm(tl, kernel, got)
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
func TestProductsReadEitherForm(t *testing.T)  { runCorpus(t, sPull|sPush) }
func TestVMaskLookupSemantics(t *testing.T)    { runCorpus(t, sPush|sMasked) }
func TestVxMReductionPaths(t *testing.T)       { runConfig(t, config{kinds: sPush, count: 24, axis: axLoop}) }
func TestPullAccumMatchesUnfused(t *testing.T) { runCorpus(t, sPullAccum) }
func TestPushIsThreadInvariant(t *testing.T) { // the float domains, whose sums a fold order would show
	runConfig(t, config{kinds: sPush | sPull, kits: kPT | kMP | kPP, count: 24})
}
func TestPushHashMatchesDense(t *testing.T) {
	runConfig(t, config{kinds: sPush, count: 24, axis: axAcc})
}
func TestSpMVMaskedAgainstPostFilter(t *testing.T) { runCorpus(t, sPull) }
func TestExtractVKernel(t *testing.T)              { runCorpus(t, sReduce) }
func TestAssignScalarVKernel(t *testing.T)         { runCorpus(t, sAssign|sMasked) }
func TestSelectVAndApplyVKernels(t *testing.T)     { runCorpus(t, sApply) }
func TestAccumMergeV(t *testing.T)                 { runCorpus(t, sWriteBack) }
func TestSpMVAndVxMAgainstDense(t *testing.T)      { runCorpus(t, sProducts) }
func TestDifferentialSpMVGather(t *testing.T)      { runCorpus(t, sPull|sPullAccum) }
func TestVectorKernels(t *testing.T)               { runCorpus(t, sEWise|sAssign) }
func TestVecMergeAgainstMap(t *testing.T)          { runCorpus(t, sMerge) }
func TestFormatVecRoundTrip(t *testing.T) {
	runConfig(t, config{kinds: sEWise | sApply | sReduce, kits: kPT | kMP | kPP | kLL, count: 24})
}
func TestFormatVecRoundTripInt64(t *testing.T) {
	runConfig(t, config{kinds: sEWise | sApply | sReduce, kits: kPI | kMI, count: 24})
}
