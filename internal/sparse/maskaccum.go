package sparse

import (
	"slices"

	"github.com/grblas/grb/internal/faults"
	"github.com/grblas/grb/internal/obsv"
)

// Mask bundles an optional boolean mask matrix with the descriptor flags
// that control its interpretation (GraphBLAS masks, §2 of the C spec;
// unchanged in 2.0 but exercised by every operation here).
type Mask struct {
	M          *CSR[bool]
	Structural bool // use presence only, ignore stored values
	Complement bool // invert the mask
}

// VMask is the vector analogue of Mask.
type VMask struct {
	M          *Vec[bool]
	Structural bool
	Complement bool
}

// vmaskLookup compiles a vector mask into an O(1)-per-position admit
// predicate for the matrix-vector kernels. A nil return means every position
// is admitted (no pruning needed). The planner picks the representation
// (Route.HashMask): a bitmap of n bytes, one pass to build and exact O(1)
// lookups, or a read-only hash table of O(nnz(m)) slots where building and
// probing that is less work than the bitmap, or all the budget has room for.
// Either is scratch of the operation that asked for it, charged to e under
// the site of the scaffold's own gather or scatter structure. Either way a
// masked kernel stops paying O(log nnz(m)) per position.
//
// The predicate implements the full GraphBLAS mask semantics (value vs.
// structural, complement), so kernels may prune work at any granularity —
// whole rows in the pull gather, single products in the push scatter — and
// the final MaskApplyV pass observes the same admitted set it would have
// filtered itself.
func vmaskLookup(mask VMask, n int, hash bool, e Exec, site *faults.Site) func(int) bool {
	if mask.M == nil {
		if mask.Complement {
			// Complemented nil mask: nothing is admitted (the mask defaults
			// to all-true, so its complement rules every position out).
			return func(int) bool { return false }
		}
		return nil
	}
	structural, comp := mask.Structural, mask.Complement
	if m := mask.M; m.indexed() { // an indexed mask is its own predicate
		return func(j int) bool { return (m.has(j) && (structural || m.Val[j])) != comp }
	}
	if !hash {
		admit, flip := vmaskBitmap(mask, n, e, site)
		return func(j int) bool { return admit[j] != flip }
	}
	e.mustCharge(site, lookupBytes(mask.M))
	h := newHashLookup(mask.M)
	return func(j int) bool {
		v, present := h.get(j)
		adm := present && (structural || v)
		if comp {
			adm = !adm
		}
		return adm
	}
}

// maskProbe is what the planners read of a non-nil vector mask over n
// positions: whether its hash predicate's table is strictly smaller than the
// n-byte bitmap, and whether the bitmap fits the budget beside the bytes the
// scaffold is about to charge for its own structure. An indexed mask is its
// own predicate, free to the closure loop (vmaskLookup), and a
// structural bitmap is the family loops' bitmap as it is (vmaskBitmap); only
// the admit array a family loop indexes otherwise costs n bytes, so the
// predicate is the smaller exactly where that array does not fit.
func maskProbe(e Exec, mask VMask, n int, beside int64) (hashSmaller, bitmapFits bool) {
	m := mask.M
	if m.Bit != nil && mask.Structural {
		return false, true
	}
	fits := e.Tx.Fits(beside + int64(n))
	if m.indexed() {
		return !fits, fits
	}
	return lookupBytes(m) < int64(n), fits
}

// vmaskBitmap returns a non-nil vector mask over n positions as a bitmap
// and a flag, position j admitted where admit[j] != flip: the form the
// family scatter loops index directly instead of paying a closure call per
// product. A structural bitmap mask is its own flags, flipped under a
// complement, at no cost; any other, in any form, is scattered into an O(n)
// admit array implementing the full mask semantics (value vs. structural,
// complement), charged to e under site.
func vmaskBitmap(mask VMask, n int, e Exec, site *faults.Site) (admit []bool, flip bool) {
	m := mask.M
	structural, comp := mask.Structural, mask.Complement
	if m.Bit != nil && structural {
		return m.Bit, comp
	}
	e.mustCharge(site, int64(n))
	admit = make([]bool, n)
	obsv.ScratchBytes.Add(int64(n))
	if comp {
		for i := range admit {
			admit[i] = true
		}
	}
	scan(m, func(j int, x bool) bool {
		admit[j] = (structural || x) != comp
		return true
	})
	return admit, false
}

// test reports whether the mask admits position j given a cursor into the
// mask row's index list; it advances *k past indices < j.
func maskTest(ind []int, val []bool, structural bool, j int, k *int) bool {
	for *k < len(ind) && ind[*k] < j {
		*k++
	}
	present := *k < len(ind) && ind[*k] == j
	if structural {
		return present
	}
	return present && val[*k]
}

// AccumMergeM computes Z = C ⊙ T: the union merge of the old output C with
// the freshly computed T, combining overlapping entries with accum. A nil
// accum means Z = T (the operation result replaces C entirely, before
// masking). This is the standard "accumulator step" of every GraphBLAS
// operation.
func AccumMergeM[T any](c, t *CSR[T], accum func(T, T) T, e Exec) *CSR[T] {
	if accum == nil {
		return t
	}
	return EWiseAddM(c, t, accum, e)
}

// AccumMergeV is the vector analogue of AccumMergeM: the same union merge
// as EWiseAddV with C on accum's first-operand side, so it inherits that
// kernel's sharing (Z is t itself when C is empty, shares an index array
// when the patterns coincide or one side is full).
func AccumMergeV[T any](c, t *Vec[T], accum func(T, T) T) *Vec[T] {
	if accum == nil {
		return t
	}
	return EWiseAddV(BinGeneric, c, t, accum, Exec{})
}

// MaskApplyM computes the final output of a matrix operation from the old
// output C, the accumulated candidate Z, and the mask: positions where the
// mask is true take Z's entry (or nothing, if Z has none); positions where
// it is false keep C's entry unless replace is set, in which case they are
// deleted. With a nil mask (and mask.Complement false) the result is simply
// Z. This single kernel implements the replace/merge × structure ×
// complement descriptor matrix semantics shared by all operations.
func MaskApplyM[T any](c, z *CSR[T], mask Mask, replace bool, e Exec) *CSR[T] {
	if mask.M == nil && !mask.Complement {
		return z
	}
	if mask.M == nil && mask.Complement {
		// Complemented empty mask: everything masked out.
		if replace {
			return NewCSR[T](c.Rows, c.Cols)
		}
		return c
	}
	// Admitted positions take Z's entries; rejected ones keep C's, unless
	// replace deletes them: then C is not read at all.
	return rowwise(c.Rows, c.Cols, e.workers(c.NNZ()+z.NNZ()),
		func(lo, hi int) int {
			if replace {
				return z.span(lo, hi)
			}
			return z.span(lo, hi) + c.span(lo, hi)
		},
		func(i int, ind []int, val []T) ([]int, []T) {
			var old run[T]
			if !replace {
				old = c.run(i)
			}
			return maskRun(ind, val, old, z.run(i), mask.M.run(i), mask.Structural, mask.Complement)
		})
}

// vmaskBounds bounds, from the entry count of a non-nil mask alone, how
// many of n positions it admits and how many it rejects. A structural mask
// selects exactly its pattern; a value mask selects at most its pattern and
// may leave any position unselected (a stored false). Complement swaps the
// two roles.
func vmaskBounds(mask VMask, n int) (admits, rejects int) {
	sel, unsel := mask.M.NNZ(), n
	if mask.Structural {
		unsel = n - sel
	}
	if mask.Complement {
		return unsel, sel
	}
	return sel, unsel
}

// MaskApplyV is the vector analogue of MaskApplyM. Without replace, a dense
// C and a dense Z make a full output: a copy of one and a walk over the
// mask. Otherwise the output is sorted, allocated once at min(|Z|, admits) +
// min(|C|, rejects) — the second term only without replace, under which no
// entry of C survives and C is not even read — and not at all when that
// bound is 0. A valued mask's bound counts every position it does not store
// as admitted or rejected, so under one the output is counted first and
// allocated at exactly its size. maskRun merges three sorted operands;
// maskWalk reads an indexed one in place, and converts none.
func MaskApplyV[T any](c, z *Vec[T], mask VMask, replace bool) *Vec[T] {
	if mask.M == nil && !mask.Complement {
		return z
	}
	if mask.M == nil && mask.Complement {
		if replace {
			return NewVec[T](c.N)
		}
		return c
	}
	if !replace && c.dense() && z.dense() {
		// Every position stays stored: z's value where the mask admits it,
		// c's where it rejects it — read by position, the mask in any form.
		base, other := c, z
		if mask.Complement {
			base, other = z, c
		}
		out := &Vec[T]{N: c.N, Val: slices.Clone(base.Val)}
		scan(mask.M, func(j int, x bool) bool {
			if mask.Structural || x {
				out.Val[j] = other.Val[j]
			}
			return true
		})
		return out
	}
	admits, rejects := vmaskBounds(mask, c.N)
	bound := min(z.NNZ(), admits)
	if !replace {
		bound = min(bound+min(c.NNZ(), rejects), c.N)
	}
	if bound > 0 && !mask.Structural {
		// |Z ∩ admitted| + |C ∩ rejected|, from the entries each selects.
		zSel, cSel := selected(z, mask.M), 0
		if !replace {
			cSel = selected(c, mask.M)
		}
		switch {
		case mask.Complement:
			bound = z.NNZ() - zSel + cSel
		case replace:
			bound = zSel
		default:
			bound = zSel + c.NNZ() - cSel
		}
	}
	if bound == 0 {
		return NewVec[T](c.N)
	}
	ind, val := makeRun[T](bound)
	if z.indexed() || mask.M.indexed() || !replace && c.indexed() {
		ind, val = maskWalk(ind, val, c, z, mask, replace)
		return &Vec[T]{N: c.N, Ind: ind, Val: val}
	}
	var old run[T]
	if !replace {
		old = c.run()
	}
	ind, val = maskRun(ind, val, old, z.run(), mask.M.run(), mask.Structural, mask.Complement)
	return &Vec[T]{N: c.N, Ind: ind, Val: val}
}

// maskWalk is maskRun over operands in any form, each read through Vec.at —
// an indexed one by position, a sorted one through a cursor: it appends
// C⟨M⟩ = Z, walking every position.
func maskWalk[T any](ind []int, val []T, c, z *Vec[T], mask VMask, replace bool) ([]int, []T) {
	var ck, zk, mk int
	for j := range c.N {
		src, k := c, &ck
		if m, ok := mask.M.at(j, &mk); (ok && (mask.Structural || m)) != mask.Complement {
			src, k = z, &zk
		} else if replace {
			continue
		}
		if x, ok := src.at(j, k); ok {
			ind, val = append(ind, j), append(val, x)
		}
	}
	return ind, val
}

// selected counts the positions at which x, in any form, stores an entry
// and the valued mask m stores true.
func selected[T any](x *Vec[T], m *Vec[bool]) int {
	n, k := 0, 0
	scan(m, func(j int, v bool) bool {
		if _, ok := x.at(j, &k); ok && v {
			n++
		}
		return true
	})
	return n
}

// installStitched assembles per-partition row buffers, in ascending range
// order, into out; rowLen[i] is the emitted length of row i. Shared by all
// row-parallel kernels. A single partition (one thread, and every small
// operand) is adopted as is — the matrix-side twin of stitchVec; several are
// concatenated into one exactly-sized allocation.
func installStitched[T any](out *CSR[T], pInd [][]int, pVal [][]T, rowLen []int) {
	if len(pInd) == 1 {
		out.Ind, out.Val = pInd[0], pVal[0]
	} else {
		total := 0
		for _, s := range pInd {
			total += len(s)
		}
		out.Ind = make([]int, 0, total)
		out.Val = make([]T, 0, total)
		for p := range pInd {
			out.Ind = append(out.Ind, pInd[p]...)
			out.Val = append(out.Val, pVal[p]...)
		}
	}
	for i := 0; i < out.Rows; i++ {
		out.Ptr[i+1] = out.Ptr[i] + rowLen[i]
	}
	DebugCheckCSR(out, "installStitched")
}
