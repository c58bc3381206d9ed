package sparse

// Closure-only entry points for the tests: the three multiply scaffolds with
// no semiring tag and SpecGeneric pinned, so only the closure loop bodies
// run — the reference arm the family loops are compared against. Errors
// (which only injected faults or a budget can produce) panic.

// par is a threads-wide Exec whose grain of one unit of work makes every
// parallel section of a toy input split into as many ranges as it has
// threads: what a test that means to reach multi-range code asks for.
func par(threads int) Exec { return Exec{Threads: threads, Grain: 1} }

func closureSpGEMM[A, B, C any](a *CSR[A], b *CSR[B], mul func(A, B) C, add func(C, C) C,
	mask Mask, threads int, hint Kernel) *CSR[C] {
	out, err := SpGEMMSemiEx(SemiGeneric, SpecGeneric, a, b, mul, add, mask, par(threads), hint)
	if err != nil {
		panic(err)
	}
	return out
}

func closureSpMV[A, X, Y any](a *CSR[A], u *Vec[X], mul func(A, X) Y, add func(Y, Y) Y,
	mask VMask, threads int, hint Kernel) *Vec[Y] {
	out, err := SpMVSemiEx(SemiGeneric, SpecGeneric, a, u, mul, add, mask, par(threads), hint)
	if err != nil {
		panic(err)
	}
	return out
}

func closureVxM[X, A, Y any](u *Vec[X], a *CSR[A], mul func(X, A) Y, add func(Y, Y) Y,
	mask VMask, threads int) *Vec[Y] {
	out, err := VxMSemiEx(SemiGeneric, SpecGeneric, u, a, mul, add, mask, par(threads))
	if err != nil {
		panic(err)
	}
	return out
}

// scatter expands v into a dense value slice plus presence bitmap, both of
// length v.N — the inverse of GatherVec, for the dense-oracle tests.
func scatter[T any](v *Vec[T]) ([]T, []bool) {
	dv := make([]T, v.N)
	ok := make([]bool, v.N)
	for k, i := range v.Ind {
		dv[i] = v.Val[k]
		ok[i] = true
	}
	return dv, ok
}
