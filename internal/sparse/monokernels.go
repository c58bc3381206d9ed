package sparse

// Per-family monomorphized loop bodies. Each function is the inner loop of
// one (semiring, monoid or binary operator family, kernel shape) pair with
// the closures flattened into direct arithmetic; the scaffolds in spgemm.go,
// spmv.go, transpose.go (the reductions) and ewise.go supply everything
// around them and find them through the tables in mono.go.
// They are written out by hand because a semiring *type parameter* does not
// buy the same code in Go: methods of a type parameter are called through
// the dictionary and never inlined (measured 2–2.8× slower than these loops;
// EXPERIMENTS.md, "One multiply scaffold"). The loops replicate the closure
// loops' visit order and yield what their first-assign-then-add accumulation
// yields, bit for bit. The pull and push loops do it the same way: a float
// path never initializes an accumulator to +0.0 and folds into it
// (0 + (-0.0) flips the sign bit). The SpGEMM row loops of (+, ×), (+, pair)
// and (∨, ∧) fold every product, the first included, into an SPA the scaffold
// keeps at the exact additive identity between rows (spaIdentity: -0.0 over
// float64), which takes the unpredictable first-touch branch out of the loop;
// (min, +) keeps the branch, because no identity survives a NaN first
// product (+Inf under the loop's compare, NaN under first-assign).
//
// Shapes, as the scaffolds assert them (mono.go, familyLoop):
//
//	pull    func(a *CSR[T], dval []T, dbit []bool, admit func(int) bool, ind []int, val []T, lo, hi int) ([]int, []T)
//	        gathers rows [lo, hi) against u's view (dbit == nil: full) and
//	        appends the emitted (row, value) pairs, in ascending row order,
//	        to the (ind, val) it is handed, as the run kernels do.
//	push    func(u *Vec[T], a *CSR[T], admit []bool, flip bool, spa []T, mark []bool, lo, hi int)
//	        scatters the frontier's products in output columns [lo, hi) into
//	        the worker's slice of the SPA (mark tracks presence; admit == nil
//	        admits everything).
//	SpGEMM  func(a, b *CSR[T], spa []T, stamp []int, gen int, pattern []int, i int) []int
//	        scatters row i of A through B into (spa, stamp) at generation
//	        gen and returns the row's new columns in pattern, which arrives
//	        empty and may come back regrown.
//	fold    func(v []T) T
//	        folds a non-empty slice: a row (ReduceRows), a range (ReduceAll)
//	        or a vector (ReduceVec).
//	binary  func(op Bin, form ewForm, out []C, x []A, y []B, ind []int)
//	        is ewFunc's closure loop (ewise.go) with op in place of its
//	        closure, over the positions form names.

// --- pull (SpMV gather) row loops ---

// spmvRowsPlusTimes gathers rows with (+, ×).
func spmvRowsPlusTimes[T monoArith](a *CSR[T], dval []T, dbit []bool, admit func(int) bool, ind []int, val []T, lo, hi int) ([]int, []T) {
	for i := lo; i < hi; i++ {
		if admit != nil && !admit(i) {
			continue
		}
		aInd, aVal := a.Row(i)
		if dbit == nil {
			if len(aInd) == 0 {
				continue
			}
			acc := aVal[0] * dval[aInd[0]]
			for k := 1; k < len(aInd); k++ {
				acc += aVal[k] * dval[aInd[k]]
			}
			ind = append(ind, i)
			val = append(val, acc)
			continue
		}
		var acc T
		seen := false
		for k, j := range aInd {
			if !dbit[j] {
				continue
			}
			p := aVal[k] * dval[j]
			if !seen {
				acc = p
				seen = true
			} else {
				acc += p
			}
		}
		if seen {
			ind = append(ind, i)
			val = append(val, acc)
		}
	}
	return ind, val
}

// spmvRowsMinPlus gathers rows with (min, +).
func spmvRowsMinPlus[T monoArith](a *CSR[T], dval []T, dbit []bool, admit func(int) bool, ind []int, val []T, lo, hi int) ([]int, []T) {
	for i := lo; i < hi; i++ {
		if admit != nil && !admit(i) {
			continue
		}
		aInd, aVal := a.Row(i)
		if dbit == nil {
			if len(aInd) == 0 {
				continue
			}
			acc := aVal[0] + dval[aInd[0]]
			for k := 1; k < len(aInd); k++ {
				if p := aVal[k] + dval[aInd[k]]; p < acc {
					acc = p
				}
			}
			ind = append(ind, i)
			val = append(val, acc)
			continue
		}
		var acc T
		seen := false
		for k, j := range aInd {
			if !dbit[j] {
				continue
			}
			p := aVal[k] + dval[j]
			if !seen {
				acc = p
				seen = true
			} else if p < acc {
				acc = p
			}
		}
		if seen {
			ind = append(ind, i)
			val = append(val, acc)
		}
	}
	return ind, val
}

// spmvRowsLorLand gathers rows with (∨, ∧); the accumulator short-circuits
// once true, but presence is decided first, matching the closure kernel's
// emitted pattern.
func spmvRowsLorLand(a *CSR[bool], dval []bool, dbit []bool, admit func(int) bool, ind []int, val []bool, lo, hi int) ([]int, []bool) {
	for i := lo; i < hi; i++ {
		if admit != nil && !admit(i) {
			continue
		}
		aInd, aVal := a.Row(i)
		seen := false
		acc := false
		for k, j := range aInd {
			if dbit != nil && !dbit[j] {
				continue
			}
			seen = true
			if aVal[k] && dval[j] {
				acc = true
				break
			}
		}
		if seen {
			ind = append(ind, i)
			val = append(val, acc)
		}
	}
	return ind, val
}

// spmvRowsPlusPair gathers rows with (+, pair): the row's result is the
// count of present products, which float64 sums of 1 represent exactly.
func spmvRowsPlusPair[T monoArith](a *CSR[T], dval []T, dbit []bool, admit func(int) bool, ind []int, val []T, lo, hi int) ([]int, []T) {
	for i := lo; i < hi; i++ {
		if admit != nil && !admit(i) {
			continue
		}
		aInd, _ := a.Row(i)
		n := 0
		if dbit == nil {
			n = len(aInd)
		} else {
			for _, j := range aInd {
				if dbit[j] {
					n++
				}
			}
		}
		if n > 0 {
			ind = append(ind, i)
			val = append(val, T(n))
		}
	}
	return ind, val
}

// --- push (VxM scatter) loops ---
//
// A push loop scatters the frontier's products in the output columns [lo, hi)
// a worker owns into spa and mark, indexed j-lo like the mask bitmap — whose
// column j is admitted where admit[j-lo] != flip.

// vxmScatterPlusTimes scatters the frontier with (+, ×).
func vxmScatterPlusTimes[T monoArith](u *Vec[T], a *CSR[T], admit []bool, flip bool, spa []T, mark []bool, lo, hi int) {
	for k, i := range u.Ind {
		uv := u.Val[k]
		aInd, aVal := a.rowIn(i, lo, hi)
		for t, j := range aInd {
			j -= lo
			if admit != nil && admit[j] == flip {
				continue
			}
			p := uv * aVal[t]
			if !mark[j] {
				mark[j] = true
				spa[j] = p
			} else {
				spa[j] += p
			}
		}
	}
}

// vxmScatterMinPlus scatters the frontier with (min, +).
func vxmScatterMinPlus[T monoArith](u *Vec[T], a *CSR[T], admit []bool, flip bool, spa []T, mark []bool, lo, hi int) {
	for k, i := range u.Ind {
		uv := u.Val[k]
		aInd, aVal := a.rowIn(i, lo, hi)
		for t, j := range aInd {
			j -= lo
			if admit != nil && admit[j] == flip {
				continue
			}
			p := uv + aVal[t]
			if !mark[j] {
				mark[j] = true
				spa[j] = p
			} else if p < spa[j] {
				spa[j] = p
			}
		}
	}
}

// vxmScatterLorLand scatters the frontier with (∨, ∧).
func vxmScatterLorLand(u *Vec[bool], a *CSR[bool], admit []bool, flip bool, spa []bool, mark []bool, lo, hi int) {
	for k, i := range u.Ind {
		uv := u.Val[k]
		aInd, aVal := a.rowIn(i, lo, hi)
		for t, j := range aInd {
			j -= lo
			if admit != nil && admit[j] == flip {
				continue
			}
			p := uv && aVal[t]
			if !mark[j] {
				mark[j] = true
				spa[j] = p
			} else if p {
				spa[j] = true
			}
		}
	}
}

// vxmScatterPlusPair scatters the frontier with (+, pair): each admitted
// product contributes exactly 1.
func vxmScatterPlusPair[T monoArith](u *Vec[T], a *CSR[T], admit []bool, flip bool, spa []T, mark []bool, lo, hi int) {
	for _, i := range u.Ind {
		aInd, _ := a.rowIn(i, lo, hi)
		for _, j := range aInd {
			j -= lo
			if admit != nil && admit[j] == flip {
				continue
			}
			if !mark[j] {
				mark[j] = true
				spa[j] = 1
			} else {
				spa[j]++
			}
		}
	}
}

// --- SpGEMM dense-SPA row loops ---

// patternRoom returns pattern at its full capacity, first grown — to twice
// that at least — if it has no room past its first n slots: a folding row
// loop writes every product's column at the pattern's end and keeps it only
// if it is new.
func patternRoom(pattern []int, n, room int) []int {
	if n+room <= cap(pattern) {
		return pattern[:cap(pattern)]
	}
	grown := make([]int, max(n+room, 2*cap(pattern)))
	copy(grown, pattern[:n])
	return grown
}

// spgemmRowPlusTimes is the (+, ×) dense-SPA product for row i.
func spgemmRowPlusTimes[T monoArith](a, b *CSR[T], spa []T, stamp []int, gen int, pattern []int, i int) []int {
	aInd, aVal := a.Row(i)
	n := 0
	for k, bi := range aInd {
		bInd, bVal := b.Row(bi)
		av := aVal[k]
		pattern = patternRoom(pattern, n, len(bInd))
		for t, j := range bInd {
			spa[j] += av * bVal[t]
			pattern[n] = j
			if stamp[j] != gen {
				n++
			}
			stamp[j] = gen
		}
	}
	return pattern[:n]
}

// spgemmRowMinPlus is the (min, +) dense-SPA product for row i.
func spgemmRowMinPlus[T monoArith](a, b *CSR[T], spa []T, stamp []int, gen int, pattern []int, i int) []int {
	aInd, aVal := a.Row(i)
	for k, bi := range aInd {
		bInd, bVal := b.Row(bi)
		av := aVal[k]
		for t, j := range bInd {
			p := av + bVal[t]
			if stamp[j] != gen {
				stamp[j] = gen
				spa[j] = p
				pattern = append(pattern, j)
			} else if p < spa[j] {
				spa[j] = p
			}
		}
	}
	return pattern
}

// spgemmRowLorLand is the (∨, ∧) dense-SPA product for row i.
func spgemmRowLorLand(a, b *CSR[bool], spa []bool, stamp []int, gen int, pattern []int, i int) []int {
	aInd, aVal := a.Row(i)
	n := 0
	for k, bi := range aInd {
		bInd, bVal := b.Row(bi)
		av := aVal[k]
		pattern = patternRoom(pattern, n, len(bInd))
		for t, j := range bInd {
			spa[j] = spa[j] || av && bVal[t]
			pattern[n] = j
			if stamp[j] != gen {
				n++
			}
			stamp[j] = gen
		}
	}
	return pattern[:n]
}

// spgemmRowPlusPair is the (+, pair) dense-SPA product for row i.
func spgemmRowPlusPair[T monoArith](a, b *CSR[T], spa []T, stamp []int, gen int, pattern []int, i int) []int {
	aInd, _ := a.Row(i)
	n := 0
	for _, bi := range aInd {
		bInd, _ := b.Row(bi)
		pattern = patternRoom(pattern, n, len(bInd))
		for _, j := range bInd {
			spa[j]++
			pattern[n] = j
			if stamp[j] != gen {
				n++
			}
			stamp[j] = gen
		}
	}
	return pattern[:n]
}

// --- reductions (ReduceRows, ReduceAll, ReduceVec) ---

// sumPlus sums a non-empty slice from its first entry, as the closure loop
// folds it: no +0.0 start, so a sum of -0.0s stays -0.0.
func sumPlus[T monoArith](v []T) T {
	acc := v[0]
	for _, x := range v[1:] {
		acc += x
	}
	return acc
}

// --- element-wise and accumulate (EWiseMultV, EWiseAddV, SpMVAccumEx) ---

// binArith is op(x, y) for the arithmetic tags, computed as grb.Times and
// grb.Plus compute it. The tag is loop-invariant, so its branch is
// predicted; the call it replaces was not inlinable.
func binArith[T monoArith](op Bin, x, y T) T {
	if op == BinTimes {
		return x * y
	}
	return x + y
}

// ewArith is ewFunc's loop for the arithmetic tags.
func ewArith[T monoArith](op Bin, form ewForm, out, x, y []T, ind []int) {
	switch form {
	case ewZip:
		for k := range out {
			out[k] = binArith(op, x[k], y[k])
		}
	case ewGatherX:
		for k, i := range ind {
			out[k] = binArith(op, x[i], y[k])
		}
	case ewScatterX:
		for k, i := range ind {
			out[i] = binArith(op, x[i], y[k])
		}
	}
}

// ewFirst is ewFunc's loop for First[T, bool]: it moves x's values and never
// reads y's. Only EWiseMultV's forms reach it; the scatter form is the
// accumulating pull's, and (T, bool, T) is not one domain.
func ewFirst[T any](_ Bin, form ewForm, out, x []T, _ []bool, ind []int) {
	if form != ewGatherX {
		copy(out, x) // ewZip: out[k] = x[k]
		return
	}
	for k, i := range ind {
		out[k] = x[i]
	}
}
