// Execution contexts (§IV, Fig. 2 of "Introduction to GraphBLAS 2.0"):
// creating nested contexts with thread budgets, placing matrices in
// contexts at construction, the shared-context rule, and moving objects
// between contexts with SwitchContext.
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	grb "github.com/grblas/grb"
	"github.com/grblas/grb/gen"
)

func main() {
	// GrB_init establishes the top-level context (Fig. 2, line 1).
	if err := grb.Init(grb.NonBlocking); err != nil {
		log.Fatal(err)
	}
	defer grb.Finalize() //grblint:ignore infocheck -- best-effort shutdown at process exit

	// GrB_Context_new with a parent: nested contexts form a hierarchy and
	// the effective parallelism of an operation is bounded by every
	// ancestor's budget. The C API passes implementation-defined execution
	// info through void*; the Go binding uses options.
	outer, err := grb.NewContext(grb.NonBlocking, nil, grb.WithThreads(4))
	if err != nil {
		log.Fatal(err)
	}
	inner, err := grb.NewContext(grb.NonBlocking, outer, grb.WithThreads(16))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("outer budget: %d threads\n", outer.Threads())
	fmt.Printf("inner asks for 16 but is clamped by its ancestor: %d threads\n", inner.Threads())

	// Constructors take the context as an optional argument (Fig. 2's new
	// GrB_Matrix_new signature).
	g := gen.Graph500RMAT(11, 8, 42).Symmetrize()
	a, err := grb.NewMatrix[float64](g.N, g.N, grb.InContext(outer))
	if err != nil {
		log.Fatal(err)
	}
	if err := a.Build(g.Src, g.Dst, gen.UniformWeights(g, 0, 1, 42), grb.Plus[float64]); err != nil {
		log.Fatal(err)
	}

	// All operands of an operation must share a context (§IV). A matrix in
	// a different context is rejected...
	other := must1(grb.NewContext(grb.NonBlocking, nil, grb.WithThreads(1)))
	b := must1(grb.NewMatrix[float64](g.N, g.N, grb.InContext(other)))
	c := must1(grb.NewMatrix[float64](g.N, g.N, grb.InContext(outer)))
	err = grb.MxM(c, nil, nil, grb.PlusTimes[float64](), a, b, nil)
	fmt.Printf("mixing contexts: %v\n", grb.Code(err))

	// ...until GrB_Context_switch moves it over (Fig. 2, line 19).
	if err := b.SwitchContext(outer); err != nil {
		log.Fatal(err)
	}
	if err := grb.MxM(c, nil, nil, grb.PlusTimes[float64](), a, b, nil); err != nil {
		log.Fatal(err)
	}
	fmt.Println("after SwitchContext: product accepted")

	// Thread budgets steer real work: time the same product under
	// different budgets (speedups saturate at the host's core count —
	// this machine has GOMAXPROCS =", see below). WithChunk(1) lets every
	// section of the product fork; at the default chunk — 131 072 units of
	// work per worker, where BenchmarkForkGrainPair in internal/sparse has
	// a second worker starting to pay — only its numeric pass would.
	fmt.Printf("host cores: %d\n", runtime.GOMAXPROCS(0))
	for _, budget := range []int{1, 2, 4} {
		ctx := must1(grb.NewContext(grb.NonBlocking, nil, grb.WithThreads(budget), grb.WithChunk(1)))
		ac := must1(a.Dup())
		if err := ac.SwitchContext(ctx); err != nil {
			log.Fatal(err)
		}
		out := must1(grb.NewMatrix[float64](g.N, g.N, grb.InContext(ctx)))
		start := time.Now()
		if err := grb.MxM(out, nil, nil, grb.PlusTimes[float64](), ac, ac, nil); err != nil {
			log.Fatal(err)
		}
		if err := out.Wait(grb.Materialize); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  budget %d: mxm in %v\n", budget, time.Since(start))
		must(ctx.Free())
	}

	// Freeing a context invalidates it (GrB_free); GrB_finalize (deferred
	// above) frees all contexts.
	if err := outer.Free(); err != nil {
		log.Fatal(err)
	}
	_, err = grb.NewMatrix[float64](2, 2, grb.InContext(outer))
	fmt.Printf("construct in freed context: %v\n", grb.Code(err))
}

// must aborts on an unexpected error from a grb call; grblint (infocheck)
// forbids discarding these silently.
func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// must1 unwraps a (value, error) grb result, aborting on error.
func must1[A any](a A, err error) A { must(err); return a }
