package grb

import (
	"sync"
	"testing"
)

// These tests exercise Context.Free racing live work. The contract: freeing
// a context while kernels run in it (or while sequences still reference it)
// must never panic, race, or corrupt an object — each operation either
// completes normally or reports UninitializedObject/a parked error through
// the usual channels. Run them under -race (the race CI tier does).

// freeRaceGraph builds a small multiplication workload inside ctx.
func freeRaceGraph(t *testing.T, ctx *Context) (*Matrix[float64], *Matrix[float64]) {
	t.Helper()
	a, err := NewMatrix[float64](20, 20, InContext(ctx))
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	var is, js []Index
	var xs []float64
	for i := 0; i < 20; i++ {
		is = append(is, Index(i))
		js = append(js, Index((i*7+3)%20))
		xs = append(xs, float64(i+1))
	}
	if err := a.Build(is, js, xs, Second[float64, float64]); err != nil {
		t.Fatalf("Build: %v", err)
	}
	c, err := NewMatrix[float64](20, 20, InContext(ctx))
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	return a, c
}

// TestContextFreeRacesConcurrentKernels frees a context while other
// goroutines keep launching operations in it.
func TestContextFreeRacesConcurrentKernels(t *testing.T) {
	setMode(t, NonBlocking)
	for round := 0; round < 25; round++ {
		ctx, err := NewContext(NonBlocking, nil, WithThreads(4), withChunk(1))
		if err != nil {
			t.Fatalf("NewContext: %v", err)
		}
		a, c := freeRaceGraph(t, ctx)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for k := 0; k < 10; k++ {
					// Valid outcomes: success, or UninitializedObject once
					// the free lands. Anything else is a broken error path.
					err := MxM(c, nil, Plus[float64], PlusTimes[float64](), a, a, nil)
					if err != nil && Code(err) != UninitializedObject {
						t.Errorf("MxM during Free: unexpected error %v", err)
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := ctx.Free(); err != nil {
				t.Errorf("Free: %v", err)
			}
		}()
		close(start)
		wg.Wait()
	}
}

// TestWaitOnObjectWithFreedContext enqueues deferred work, frees the
// context, then forces completion: freed-context detection must fire — every
// access reports UninitializedObject through the normal error channel, never
// a panic or a half-drained object.
func TestWaitOnObjectWithFreedContext(t *testing.T) {
	setMode(t, NonBlocking)
	ctx, err := NewContext(NonBlocking, nil, WithThreads(2), withChunk(1))
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	a, c := freeRaceGraph(t, ctx)
	if err := MxM(c, nil, Plus[float64], PlusTimes[float64](), a, a, nil); err != nil {
		t.Fatalf("MxM: %v", err)
	}
	if err := ctx.Free(); err != nil {
		t.Fatalf("Free: %v", err)
	}
	// The object's context is gone: the pending sequence cannot drain, and
	// every access path says so with the same clean error.
	if err := c.Wait(Materialize); Code(err) != UninitializedObject {
		t.Fatalf("Wait after context free: err = %v, want UninitializedObject", err)
	}
	if _, err := c.Nvals(); Code(err) != UninitializedObject {
		t.Fatalf("Nvals after context free: err = %v, want UninitializedObject", err)
	}
	if err := MxM(c, nil, Plus[float64], PlusTimes[float64](), a, a, nil); Code(err) != UninitializedObject {
		t.Fatalf("MxM on freed context: err = %v, want UninitializedObject", err)
	}
}

// TestContextFreeRacesWait frees the context concurrently with Wait calls
// draining a pending sequence.
func TestContextFreeRacesWait(t *testing.T) {
	setMode(t, NonBlocking)
	for round := 0; round < 25; round++ {
		ctx, err := NewContext(NonBlocking, nil, WithThreads(4), withChunk(1))
		if err != nil {
			t.Fatalf("NewContext: %v", err)
		}
		a, c := freeRaceGraph(t, ctx)
		for k := 0; k < 3; k++ {
			if err := MxM(c, nil, Plus[float64], PlusTimes[float64](), a, a, nil); err != nil {
				t.Fatalf("MxM: %v", err)
			}
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			// Either the drain wins (success) or the free lands first and
			// Wait reports the freed context; both leave the object valid.
			if err := c.Wait(Materialize); err != nil && Code(err) != UninitializedObject {
				t.Errorf("Wait during Free: unexpected error %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			if err := ctx.Free(); err != nil {
				t.Errorf("Free during Wait: %v", err)
			}
		}()
		close(start)
		wg.Wait()
	}
}
