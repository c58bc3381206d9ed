package grb

import (
	"errors"

	"github.com/grblas/grb/internal/faults"
	"github.com/grblas/grb/internal/obsv"
	"github.com/grblas/grb/internal/sparse"
)

// This file is the grb-side half of the execution-hardening layer: the step
// guard that gives every sequence-drain step and immediate-mode kernel the
// never-crash guarantee of §V, and the mapping from substrate failure
// sentinels onto GraphBLAS Info codes.

// runStep executes one compute — a sequence step's closure or an
// immediate-mode kernel — with panic isolation: any panic escaping it
// (kernel bug, injected fault, worker crash ferried by internal/parallel) is
// recovered, counted, and converted into the execution error the caller
// parks, so the process survives per §V. Errors the compute returns normally
// are mapped onto Info codes by the same taxonomy.
func runStep[S any](op string, compute func() (S, error)) (res S, err error) {
	defer func() {
		if r := recover(); r != nil {
			obsv.PanicsRecovered.Add(1)
			err = panicErr(op, r)
		}
	}()
	res, err = compute()
	if err != nil {
		err = mapExecErr(err, op)
	}
	return res, err
}

// panicErr converts a recovered panic value into a parked execution error.
func panicErr(op string, r any) *Error {
	if e, ok := r.(error); ok {
		return mapExecErr(e, op)
	}
	return errf(Panic, "%s: panic: %v", op, r)
}

// mapExecErr translates substrate errors into GraphBLAS execution errors:
// budget exhaustion and (injected or real) allocation failure are
// GrB_OUT_OF_MEMORY, cancellation is the Canceled extension code, a
// recovered kernel panic is GrB_PANIC, and the pre-hardening substrate
// sentinels keep their historical codes. An error that is already a grb
// *Error passes through unchanged.
func mapExecErr(err error, op string) *Error {
	var ge *Error
	if errors.As(err, &ge) {
		return ge
	}
	switch {
	case errors.Is(err, sparse.ErrBudget),
		errors.Is(err, faults.ErrInjected),
		errors.Is(err, sparse.ErrTooLarge):
		return errf(OutOfMemory, "%s: %v", op, err)
	case errors.Is(err, sparse.ErrCanceled):
		return errf(Canceled, "%s: %v", op, err)
	case errors.Is(err, sparse.ErrKernelPanic):
		return errf(Panic, "%s: %v", op, err)
	case errors.Is(err, sparse.ErrDuplicate):
		// §IX: with a nil dup operator, duplicates are an execution error.
		return errf(InvalidValue, "%s: duplicate coordinates and no dup operator", op)
	case errors.Is(err, sparse.ErrIndexOutOfBounds):
		return errf(IndexOutOfBounds, "%s: index out of bounds", op)
	}
	return errf(Panic, "%s: %v", op, err)
}
