package grb

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/grblas/grb/internal/obsv"
)

// Public-API semantics of the monomorphized hot-semiring kernels: a
// constructor's tagged semiring and its untagged twin must be observationally
// equivalent (the specialization is an implementation detail of the routing
// layer, never a semantic change), the kernel counters must expose which side
// served an operation, and the observability route labels must mark
// specialized kernels with "+mono".

// untagged is s without its constructor tag: the same operators in a
// literal, which no family loop recognises, so every multiply over it runs
// the closure loops.
func untagged[A, B, C any](s Semiring[A, B, C]) Semiring[A, B, C] {
	return Semiring[A, B, C]{Add: s.Add, Mul: s.Mul}
}

// monoRandMatrix builds a size×size matrix with ~3·size random entries.
func monoRandMatrix[T any](t *testing.T, rng *rand.Rand, size int, mk func(*rand.Rand) T) *Matrix[T] {
	t.Helper()
	var I, J []Index
	var X []T
	for k := 0; k < 3*size; k++ {
		I = append(I, Index(rng.Intn(size)))
		J = append(J, Index(rng.Intn(size)))
		X = append(X, mk(rng))
	}
	return mustMatrix(t, size, size, I, J, X)
}

// monoRandVector builds a size-vector, dense when full, ~1/3 filled else.
func monoRandVector[T any](t *testing.T, rng *rand.Rand, size int, full bool, mk func(*rand.Rand) T) *Vector[T] {
	t.Helper()
	var I []Index
	var X []T
	for i := 0; i < size; i++ {
		if full || rng.Intn(3) == 0 {
			I = append(I, Index(i))
			X = append(X, mk(rng))
		}
	}
	return mustVector(t, size, I, X)
}

// identicalVectors extracts both vectors and requires exact agreement.
func identicalVectors[T comparable](t *testing.T, label string, got, want *Vector[T]) {
	t.Helper()
	gi, gx := ck2(got.ExtractTuples())
	wi, wx := ck2(want.ExtractTuples())
	if len(gi) != len(wi) {
		t.Fatalf("%s: nvals %d != %d", label, len(gi), len(wi))
	}
	for k := range wi {
		if gi[k] != wi[k] || gx[k] != wx[k] {
			t.Fatalf("%s: entry %d = (%d,%v), want (%d,%v)", label, k, gi[k], gx[k], wi[k], wx[k])
		}
	}
}

// TestMonoDescriptorEquivalence: the program generator's (progen_test.go)
// matrix and matrix-vector products run over the tagged semiring and its
// untagged twin.
func TestMonoDescriptorEquivalence(t *testing.T) { matrixKit(t, kitPlusPair, nil, gMxM, gMxV, gVxM) }

// TestMonoKernelCounters pins the counter surface: a pull over PlusTimes
// ticks the mono counter and materializes a non-full frontier's block view
// exactly once (the second product on the unchanged vector reuses the cached
// view), the untagged twin ticks the fallback counter instead, and a full
// frontier is its own view: no conversion, no scratch, nothing charged.
func TestMonoKernelCounters(t *testing.T) {
	setMode(t, NonBlocking)
	rng := rand.New(rand.NewSource(3))
	a := monoRandMatrix(t, rng, 32, func(r *rand.Rand) float64 { return r.NormFloat64() })
	u := monoRandVector(t, rng, 32, false, func(r *rand.Rand) float64 { return r.NormFloat64() })
	ck(a.Wait(Materialize))
	ck(u.Wait(Materialize))

	ResetKernelCounts()
	w := ck1(NewVector[float64](32))
	ck(MxV(w, nil, nil, PlusTimes[float64](), a, u, DescPull))
	ck(w.Wait(Materialize))
	mono, _ := MonoKernelCounts()
	if mono == 0 {
		t.Fatal("a PlusTimes pull did not tick the mono kernel counter")
	}
	conv := obsv.FormatConversions.Load()
	if conv == 0 {
		t.Fatal("a PlusTimes pull did not materialize a block view")
	}

	// Unchanged frontier: the cached view serves the second product.
	w2 := ck1(NewVector[float64](32))
	ck(MxV(w2, nil, nil, PlusTimes[float64](), a, u, DescPull))
	ck(w2.Wait(Materialize))
	if got := obsv.FormatConversions.Load(); got != conv {
		t.Fatalf("unchanged frontier re-materialized its block view: %d -> %d conversions", conv, got)
	}
	identicalVectors(t, "cached-view", w2, w)

	ResetKernelCounts()
	wg := ck1(NewVector[float64](32))
	ck(MxV(wg, nil, nil, untagged(PlusTimes[float64]()), a, u, DescPull))
	ck(wg.Wait(Materialize))
	if mono, closure := MonoKernelCounts(); mono != 0 || closure == 0 {
		t.Fatalf("untagged pull: mono=%d closure=%d, want 0/>0", mono, closure)
	}

	ctx := ck1(NewContext(NonBlocking, nil, WithMemoryLimit(1<<20)))
	af, uf := ck1(a.ViewInContext(ctx)), monoRandVector(t, rng, 32, true, func(r *rand.Rand) float64 { return r.NormFloat64() })
	ck(uf.SwitchContext(ctx))
	wf := ck1(NewVector[float64](32, InContext(ctx)))
	ResetKernelCounts()
	ck(MxV(wf, nil, nil, PlusTimes[float64](), af, uf, DescPull))
	ck(wf.Wait(Materialize))
	if conv, scratch, peak := obsv.FormatConversions.Load(), KernelScratchBytes(), ctx.MemoryPeak(); conv != 0 || scratch != 0 || peak != 0 {
		t.Fatalf("a full frontier cost %d conversions, %d scratch bytes, %d charged bytes; want 0, 0, 0", conv, scratch, peak)
	}
}

// TestMonoViewCoherence pins the mutate→Wait contract for the cached block
// views: a vector mutation after a specialized product produces a new
// snapshot, so the next product materializes a fresh view (the stale one can
// never serve) and its result reflects the mutation exactly as the closure
// kernel sees it.
func TestMonoViewCoherence(t *testing.T) {
	setMode(t, NonBlocking)
	rng := rand.New(rand.NewSource(9))
	a := monoRandMatrix(t, rng, 32, func(r *rand.Rand) float64 { return r.NormFloat64() })
	u := monoRandVector(t, rng, 32, false, func(r *rand.Rand) float64 { return r.NormFloat64() })
	ck(a.Wait(Materialize))
	ck(u.Wait(Materialize))

	ResetKernelCounts()
	w1 := ck1(NewVector[float64](32))
	ck(MxV(w1, nil, nil, PlusTimes[float64](), a, u, DescPull))
	ck(w1.Wait(Materialize))
	conv := obsv.FormatConversions.Load()
	if conv == 0 {
		t.Fatal("first specialized pull did not materialize a block view")
	}

	// Mutate the frontier and drain: a fresh snapshot, a fresh view.
	ck(u.SetElement(1234.5, 7))
	ck(u.Wait(Materialize))
	w2 := ck1(NewVector[float64](32))
	ck(MxV(w2, nil, nil, PlusTimes[float64](), a, u, DescPull))
	ck(w2.Wait(Materialize))
	if got := obsv.FormatConversions.Load(); got <= conv {
		t.Fatalf("mutated frontier did not re-materialize its block view (%d -> %d conversions)", conv, got)
	}
	wg := ck1(NewVector[float64](32))
	ck(MxV(wg, nil, nil, untagged(PlusTimes[float64]()), a, u, DescPull))
	ck(wg.Wait(Materialize))
	identicalVectors(t, "post-mutation", w2, wg)
}

// TestMonoRouteLabel checks the observability surface: a kernel event for a
// specialized product carries the "+mono" route suffix in the trace, the
// untagged twin's does not, and both carry the plan row that decided their
// route.
func TestMonoRouteLabel(t *testing.T) {
	setMode(t, NonBlocking)
	var buf bytes.Buffer
	ck(TraceTo(&buf))

	rng := rand.New(rand.NewSource(5))
	a := monoRandMatrix(t, rng, 32, func(r *rand.Rand) float64 { return r.NormFloat64() })
	u := monoRandVector(t, rng, 32, true, func(r *rand.Rand) float64 { return r.NormFloat64() })
	w := ck1(NewVector[float64](32))
	ck(MxV(w, nil, nil, PlusTimes[float64](), a, u, DescPull))
	ck(w.Wait(Materialize))
	wg := ck1(NewVector[float64](32))
	ck(MxV(wg, nil, nil, untagged(PlusTimes[float64]()), a, u, DescPull))
	ck(wg.Wait(Materialize))
	ck(StopTrace())

	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	monoSeen, plainSeen := false, false
	for _, ev := range tr.TraceEvents {
		if ev.Cat != "kernel" || ev.Name != "MxV" {
			continue
		}
		route, _ := ev.Args["route"].(string)
		if strings.HasSuffix(route, "+mono") {
			monoSeen = true
		} else if route != "" {
			plainSeen = true
		}
		// Both products pin DirPull, and the label's reason says so.
		if why, _ := ev.Args["route_reason"].(string); !strings.HasPrefix(route, "pull") || why != "descriptor pin" {
			t.Fatalf("MxV event route %q because %q, want pull… because of the descriptor pin", route, why)
		}
	}
	if !monoSeen {
		t.Fatal("no MxV kernel event carries the +mono route label")
	}
	if !plainSeen {
		t.Fatal("the untagged MxV also got a +mono route label")
	}
}

// TestNewSemiringIsTheClosureTwin pins what GrB_Semiring_new builds:
// NewSemiring(PlusMonoid, Times) and the literal Semiring{Add, Mul} run the
// closure loops where PlusTimes runs its family loops, and all three give
// the same bits — MxM, MxV pulled and VxM pushed, on one worker and two, over
// operands spiked with ±0.0 and ±Inf. The hand-built two are the reference
// arm any test gets by building a semiring; recognising them as PlusTimes
// would change this test.
func TestNewSemiringIsTheClosureTwin(t *testing.T) {
	setMode(t, NonBlocking)
	built := ck1(NewSemiring(PlusMonoid[float64](), Times[float64]))
	literal := Semiring[float64, float64, float64]{Add: PlusMonoid[float64](), Mul: Times[float64]}
	rng := rand.New(rand.NewSource(31))
	spiked := func(r *rand.Rand) float64 {
		switch r.Intn(8) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return 0
		case 2:
			return math.Inf(1 - 2*r.Intn(2))
		}
		return r.NormFloat64()
	}
	const n = 48
	var aI, aJ, uI []Index
	var aX, uX []float64
	for i := 0; i < n; i++ {
		for _, j := range rng.Perm(n)[:6] {
			aI, aJ, aX = append(aI, Index(i)), append(aJ, Index(j)), append(aX, spiked(rng))
		}
		if rng.Intn(3) > 0 {
			uI, uX = append(uI, Index(i)), append(uX, spiked(rng))
		}
	}
	for _, threads := range []int{1, 2} {
		ctx := ck1(NewContext(NonBlocking, nil, WithThreads(threads), withChunk(1)))
		in := InContext(ctx)
		a := ck1(NewMatrix[float64](n, n, in))
		ck(a.Build(aI, aJ, aX, nil))
		u := ck1(NewVector[float64](n, in))
		ck(u.Build(uI, uX, nil))
		run := func(s Semiring[float64, float64, float64]) (*Matrix[float64], *Vector[float64], *Vector[float64]) {
			c := ck1(NewMatrix[float64](n, n, in))
			pull, push := ck1(NewVector[float64](n, in)), ck1(NewVector[float64](n, in))
			ck(MxM(c, nil, nil, s, a, a, nil))
			ck(MxV(pull, nil, nil, s, a, u, DescPull))
			ck(VxM(push, nil, nil, s, u, a, DescPush))
			ck(c.Wait(Materialize))
			ck(pull.Wait(Materialize))
			ck(push.Wait(Materialize))
			return c, pull, push
		}
		ResetKernelCounts()
		wantC, wantPull, wantPush := run(PlusTimes[float64]())
		if mono, closure := MonoKernelCounts(); mono != 3 || closure != 0 {
			t.Fatalf("PlusTimes, %d workers: mono=%d closure=%d, want 3/0", threads, mono, closure)
		}
		for _, tc := range []struct {
			name string
			s    Semiring[float64, float64, float64]
		}{{"NewSemiring", built}, {"literal", literal}} {
			ResetKernelCounts()
			c, pull, push := run(tc.s)
			if mono, closure := MonoKernelCounts(); mono != 0 || closure != 3 {
				t.Fatalf("%s, %d workers: mono=%d closure=%d, want 0/3", tc.name, threads, mono, closure)
			}
			sameBitVectors(t, tc.name+" MxV pull", threads, pull, wantPull)
			sameBitVectors(t, tc.name+" VxM push", threads, push, wantPush)
			gi, gj, gx := ck3(c.ExtractTuples())
			wi, wj, wx := ck3(wantC.ExtractTuples())
			if len(gi) != len(wi) {
				t.Fatalf("%s MxM, %d workers: nvals %d, want %d", tc.name, threads, len(gi), len(wi))
			}
			for k := range wi {
				if gi[k] != wi[k] || gj[k] != wj[k] {
					t.Fatalf("%s MxM, %d workers: entry %d at (%d,%d), want (%d,%d)", tc.name, threads, k, gi[k], gj[k], wi[k], wj[k])
				}
				sameBits(t, tc.name+" MxM", threads, gx[k], wx[k])
			}
		}
		ck(ctx.Free())
	}
}
