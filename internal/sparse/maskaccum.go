package sparse

import "github.com/grblas/grb/internal/parallel"

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
// is admitted (no pruning needed). The planner picks the representation by
// the dense/hash policy (Route.HashMask): a dense mask is scattered once into
// an O(n) bitmap (O(1) exact lookups, one pass to build), while a hypersparse
// mask gets a read-only hash table of O(nnz(m)) slots so the O(n) scatter is
// never paid. Either way a masked kernel stops paying O(log nnz(m)) per
// position.
//
// The predicate implements the full GraphBLAS mask semantics (value vs.
// structural, complement), so kernels may prune work at any granularity —
// whole rows in the pull gather, single products in the push scatter — and
// the final MaskApplyV pass observes the same admitted set it would have
// filtered itself.
func vmaskLookup(mask VMask, n int, hash bool) func(int) bool {
	if mask.M == nil {
		if mask.Complement {
			// Complemented nil mask: nothing is admitted (the mask defaults
			// to all-true, so its complement rules every position out).
			return func(int) bool { return false }
		}
		return nil
	}
	if !hash {
		admit := vmaskBitmap(mask, n)
		return func(j int) bool { return admit[j] }
	}
	structural, comp := mask.Structural, mask.Complement
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

// vmaskBitmap scatters a non-nil vector mask into an O(n) admit bitmap
// implementing the full mask semantics (value vs. structural, complement).
// It is the dense half of vmaskLookup, exposed separately because the
// family scatter loops index the bitmap directly instead of paying a closure
// call per product.
func vmaskBitmap(mask VMask, n int) []bool {
	m := mask.M
	structural, comp := mask.Structural, mask.Complement
	admit := make([]bool, n)
	scratchBytes.Add(int64(n))
	if comp {
		for i := range admit {
			admit[i] = true
		}
	}
	for k, j := range m.Ind {
		v := structural || m.Val[k]
		if comp {
			v = !v
		}
		admit[j] = v
	}
	return admit
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
func AccumMergeM[T any](c, t *CSR[T], accum func(T, T) T, threads int) *CSR[T] {
	if accum == nil {
		return t
	}
	return mergeUnionM(c, t, func(cv, tv T) T { return accum(cv, tv) }, threads)
}

// AccumMergeV is the vector analogue of AccumMergeM: the same union merge
// as EWiseAddV with C on accum's first-operand side, so it inherits that
// kernel's sharing (Z is t itself when C is empty, shares an index array
// when the patterns coincide or one side is full).
func AccumMergeV[T any](c, t *Vec[T], accum func(T, T) T) *Vec[T] {
	if accum == nil {
		return t
	}
	return EWiseAddV(c, t, accum)
}

// MaskApplyM computes the final output of a matrix operation from the old
// output C, the accumulated candidate Z, and the mask: positions where the
// mask is true take Z's entry (or nothing, if Z has none); positions where
// it is false keep C's entry unless replace is set, in which case they are
// deleted. With a nil mask (and mask.Complement false) the result is simply
// Z. This single kernel implements the replace/merge × structure ×
// complement descriptor matrix semantics shared by all operations.
func MaskApplyM[T any](c, z *CSR[T], mask Mask, replace bool, threads int) *CSR[T] {
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
	rows := c.Rows
	out := NewCSR[T](c.Rows, c.Cols)
	parts := parallel.Ranges(rows, threads)
	nparts := len(parts) - 1
	pInd := make([][]int, nparts)
	pVal := make([][]T, nparts)
	rowLen := make([]int, rows)
	parallel.Run(parts, threads, func(part, lo, hi int) {
		// Admitted positions take Z's entries; rejected ones keep C's, unless
		// replace deletes them.
		n := z.Ptr[hi] - z.Ptr[lo]
		if !replace {
			n += c.Ptr[hi] - c.Ptr[lo]
		}
		ind := make([]int, 0, n)
		val := make([]T, 0, n)
		for i := lo; i < hi; i++ {
			cInd, cVal := c.Row(i)
			zInd, zVal := z.Row(i)
			mInd, mVal := mask.M.Row(i)
			mk := 0
			start := len(ind)
			ci, zi := 0, 0
			for ci < len(cInd) || zi < len(zInd) {
				var j int
				switch {
				case zi >= len(zInd) || (ci < len(cInd) && cInd[ci] < zInd[zi]):
					j = cInd[ci]
				case ci >= len(cInd) || zInd[zi] < cInd[ci]:
					j = zInd[zi]
				default:
					j = cInd[ci]
				}
				mt := maskTest(mInd, mVal, mask.Structural, j, &mk)
				if mask.Complement {
					mt = !mt
				}
				hasC := ci < len(cInd) && cInd[ci] == j
				hasZ := zi < len(zInd) && zInd[zi] == j
				if mt {
					if hasZ {
						ind = append(ind, j)
						val = append(val, zVal[zi])
					}
				} else if !replace && hasC {
					ind = append(ind, j)
					val = append(val, cVal[ci])
				}
				if hasC {
					ci++
				}
				if hasZ {
					zi++
				}
			}
			rowLen[i] = len(ind) - start
		}
		pInd[part] = ind
		pVal[part] = val
	})
	installStitched(out, pInd, pVal, rowLen)
	return out
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

// MaskApplyV is the vector analogue of MaskApplyM. The output is allocated
// once at min(|Z|, admits) + min(|C|, rejects) — the second term only
// without replace, under which no entry of C survives and C is not even
// read — and not at all when that bound is 0.
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
	admits, rejects := vmaskBounds(mask, c.N)
	bound := min(len(z.Ind), admits)
	if !replace {
		bound = min(bound+min(len(c.Ind), rejects), c.N)
	}
	out := &Vec[T]{N: c.N}
	if bound == 0 {
		return out
	}
	out.Ind = make([]int, 0, bound)
	out.Val = make([]T, 0, bound)
	mInd, mVal := mask.M.Ind, mask.M.Val
	mk := 0
	if replace {
		for zi, j := range z.Ind {
			if maskTest(mInd, mVal, mask.Structural, j, &mk) != mask.Complement {
				out.Ind = append(out.Ind, j)
				out.Val = append(out.Val, z.Val[zi])
			}
		}
		return out
	}
	ci, zi := 0, 0
	for ci < len(c.Ind) || zi < len(z.Ind) {
		var j int
		switch {
		case zi >= len(z.Ind) || (ci < len(c.Ind) && c.Ind[ci] < z.Ind[zi]):
			j = c.Ind[ci]
		case ci >= len(c.Ind) || z.Ind[zi] < c.Ind[ci]:
			j = z.Ind[zi]
		default:
			j = c.Ind[ci]
		}
		hasC := ci < len(c.Ind) && c.Ind[ci] == j
		hasZ := zi < len(z.Ind) && z.Ind[zi] == j
		if maskTest(mInd, mVal, mask.Structural, j, &mk) != mask.Complement {
			if hasZ {
				out.Ind = append(out.Ind, j)
				out.Val = append(out.Val, z.Val[zi])
			}
		} else if hasC {
			out.Ind = append(out.Ind, j)
			out.Val = append(out.Val, c.Val[ci])
		}
		if hasC {
			ci++
		}
		if hasZ {
			zi++
		}
	}
	return out
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
