package grb

import (
	"fmt"
	"strings"
	"testing"

	"github.com/grblas/grb/internal/faults"
)

// The chaos differential suite: every registered fault-injection site is
// swept with both failure shapes (simulated allocation failure and simulated
// kernel panic), against an operation battery that reaches every site. The
// contract under any injected fault is the §V one — the process never
// crashes, the failure surfaces as a parked execution error through
// Wait(Materialize) with a non-empty ErrorString, and the victim object
// stays a valid (sticky-error) object. Run with -tags grbcheck, the chaos CI
// tier additionally validates every intermediate snapshot.

// opOutcome records one battery operation's surfaced error.
type opOutcome struct {
	op      string
	err     error // call error or parked error from Wait(Materialize)
	errText string
}

// chaosOperands are the battery's inputs. a (16×16, two entries a row) and u
// (one entry short of full) route every product to the dense accumulator and
// the dense gather; hyper (256×256, a 15-edge path) and hyperU (four
// entries) are hypersparse, so their product takes the hash accumulator and
// their pull the hash gather.
type chaosOperands struct {
	a, hyper  *Matrix[float64]
	u, hyperU *Vector[float64]
}

// chaosInputs builds and fully materializes the battery inputs so that
// injection (armed afterwards) hits only the operations under test.
func chaosInputs(t *testing.T) chaosOperands {
	t.Helper()
	var is, js, path []Index
	var xs, ps []float64
	for i := 0; i < 16; i++ {
		is = append(is, Index(i), Index(i))
		js = append(js, Index((i+1)%16), Index((i*5+2)%16))
		xs = append(xs, float64(i+1), float64(i+2))
		path, ps = append(path, Index(i)), append(ps, float64(i+1))
	}
	// u is one entry short of full: a full operand is its own block view, and
	// the battery's pulls must cross the gather and format-conversion sites.
	in := chaosOperands{
		a:      mustMatrix(t, 16, 16, is, js, xs),
		u:      mustVector(t, 16, path[1:], ps[1:]),
		hyper:  mustMatrix(t, 256, 256, path[:15], path[1:], ps[:15]),
		hyperU: mustVector(t, 256, path[1:5], ps[:4]),
	}
	for _, err := range []error{in.a.Wait(Materialize), in.u.Wait(Materialize), in.hyper.Wait(Materialize), in.hyperU.Wait(Materialize)} {
		if err != nil {
			t.Fatalf("materialize input: %v", err)
		}
	}
	return in
}

// runHardenedBattery drives one operation through every hardened site:
// tuple merge, both SpGEMM accumulators, the transpose builder, both SpMV
// gather buffers, the push-side SPA, the per-range checkpoint, and the
// monomorphized fast paths (loop entry, scatter SPA, block-format
// conversion). Only the operand shapes and the direction pin steer the
// routes: PlusTimes[float64] runs the family loops wherever the route admits
// one, and its untagged twin the closure loops. Inputs must be
// pre-materialized. Every op is drained with Wait(Materialize) immediately,
// so injection points fire deterministically in battery order.
func runHardenedBattery(t *testing.T, in chaosOperands) []opOutcome {
	t.Helper()
	var outs []opOutcome
	record := func(op string, callErr, waitErr error, errText string) {
		err := callErr
		if err == nil {
			err = waitErr
		}
		outs = append(outs, opOutcome{op: op, err: err, errText: errText})
	}

	// sparse.merge.tuples — deferred setElement merge.
	m, err := NewMatrix[float64](16, 16)
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	callErr := m.SetElement(3.5, 2, 2)
	record("merge", callErr, m.Wait(Materialize), m.ErrorString())

	plusTimes := PlusTimes[float64]()
	closure := untagged(plusTimes)
	mxm := func(op string, s Semiring[float64, float64, float64], a *Matrix[float64], desc *Descriptor) {
		n := ck1(a.Nrows())
		c, err := NewMatrix[float64](n, n)
		if err != nil {
			t.Fatalf("NewMatrix: %v", err)
		}
		callErr := MxM(c, nil, nil, s, a, a, desc)
		record(op, callErr, c.Wait(Materialize), c.ErrorString())
	}
	// sparse.spgemm.spa + sparse.kernel.range — the closure loop over the
	// dense SPA.
	mxm("mxm-dense", closure, in.a, nil)
	// sparse.spgemm.hash — the hypersparse product's hash SPA.
	mxm("mxm-hash", plusTimes, in.hyper, nil)
	// sparse.transpose.build — transposed input.
	mxm("mxm-transpose", plusTimes, in.a, DescT0)
	// sparse.mono.loop + sparse.mono.spa — the family loop over the dense SPA.
	mxm("mxm-mono", plusTimes, in.a, nil)

	mxv := func(op string, s Semiring[float64, float64, float64], a *Matrix[float64], u *Vector[float64], desc *Descriptor) {
		w, err := NewVector[float64](ck1(a.Nrows()))
		if err != nil {
			t.Fatalf("NewVector: %v", err)
		}
		callErr := MxV(w, nil, nil, s, a, u, desc)
		record(op, callErr, w.Wait(Materialize), w.ErrorString())
	}
	// sparse.spmv.gather — pinned pull, the closure loop over the dense
	// gather buffer.
	mxv("mxv-pull-dense", closure, in.a, in.u, DescPull)
	// sparse.spmv.hash — pinned pull of the hypersparse pair, the hash gather.
	mxv("mxv-pull-hash", plusTimes, in.hyper, in.hyperU, DescPull)
	// sparse.vxm.spa — pinned push (also crosses sparse.transpose.build).
	mxv("mxv-push", closure, in.a, in.u, DescPush)
	// sparse.format.convert + sparse.mono.loop — monomorphized pull through
	// the frontier's block view. The view caches on the vector snapshot, so
	// the convert site checks once per fresh input (the sweep rebuilds
	// inputs per point).
	mxv("mxv-pull-mono", plusTimes, in.a, in.u, DescPull)
	// sparse.mono.spa — monomorphized push scatter.
	mxv("mxv-push-mono", plusTimes, in.a, in.u, DescPush)

	return outs
}

// sweepPoint arms one site × action at its first hit, runs the battery on
// fresh inputs (the transpose cache lives on an input's snapshot, and a hit
// cached by a previous point would mask the transpose site's Check) and
// returns what is wrong with the outcome: nothing, when the fault surfaced
// as a well-formed parked execution error with the wanted code.
func sweepPoint(t *testing.T, site string, action faults.Action, want Info) []string {
	t.Helper()
	in := chaosInputs(t)
	faults.Enable(faults.Rule{Site: site, Action: action, Hit: 1})
	defer faults.Disable()
	var wrong []string
	hit := 0
	for _, o := range runHardenedBattery(t, in) {
		if o.err == nil {
			continue
		}
		hit++
		if Code(o.err) != want {
			wrong = append(wrong, fmt.Sprintf("%s: code = %v (%v), want %v", o.op, Code(o.err), o.err, want))
		}
		if !Code(o.err).IsExecutionError() {
			wrong = append(wrong, fmt.Sprintf("%s: %v is not an execution error", o.op, Code(o.err)))
		}
		if o.errText == "" {
			wrong = append(wrong, fmt.Sprintf("%s: parked error has empty ErrorString", o.op))
		}
	}
	if hit == 0 {
		wrong = append(wrong, fmt.Sprintf("site %s never fired: battery does not cover it", site))
	}
	return wrong
}

// TestChaosSweepAllSitesAllActions is the fault sweep of the acceptance
// criteria: every site in the registry × {alloc-failure, panic} must surface
// as a well-formed parked execution error with the right Info code. Ranging
// over faults.Sites() makes the sweep the dead-site check too: a site that
// is registered but that no kernel probes, or that the battery does not
// reach, never fires and fails its two points.
func TestChaosSweepAllSitesAllActions(t *testing.T) {
	setMode(t, NonBlocking)
	cases := []struct {
		action faults.Action
		want   Info
	}{
		{faults.AllocFail, OutOfMemory},
		{faults.Panic, Panic},
	}
	for _, site := range faults.Sites() {
		for _, tc := range cases {
			t.Run(site+"/"+tc.action.String(), func(t *testing.T) {
				for _, w := range sweepPoint(t, site, tc.action, tc.want) {
					t.Error(w)
				}
			})
		}
	}
}

// TestChaosSweepFailsOnUnprobedSite shows the sweep's dead-site assertion is
// live: a point whose site nothing probes comes back "never fired". The name
// is not registered here — the registry is process-wide and has no removal,
// so a site registered by a test would join the sweep above on a second
// -count run — and to sweepPoint a name out of faults.Sites() is only a name.
func TestChaosSweepFailsOnUnprobedSite(t *testing.T) {
	setMode(t, NonBlocking)
	wrong := sweepPoint(t, "chaos.unprobed", faults.AllocFail, OutOfMemory)
	if len(wrong) != 1 || !strings.Contains(wrong[0], "site chaos.unprobed never fired") {
		t.Fatalf("sweep point over an unprobed site reported %q, want one \"never fired\"", wrong)
	}
}

// TestScatteredChaosNeverCrashes is the scattered mode: pseudo-random but
// reproducible faults over every site while the battery runs repeatedly.
// Any surfaced error must be a well-formed execution error; the process must
// survive every seed.
func TestScatteredChaosNeverCrashes(t *testing.T) {
	setMode(t, NonBlocking)
	in := chaosInputs(t)
	for seed := int64(1); seed <= 5; seed++ {
		faults.EnableSeeded(seed,
			faults.Rule{Site: "*", Action: faults.AllocFail, OneIn: 5},
			faults.Rule{Site: "*", Action: faults.Panic, OneIn: 7},
		)
		for round := 0; round < 3; round++ {
			for _, o := range runHardenedBattery(t, in) {
				if o.err == nil {
					continue
				}
				if c := Code(o.err); !c.IsExecutionError() {
					t.Fatalf("seed %d %s: non-execution error %v (%v)", seed, o.op, c, o.err)
				}
				if o.errText == "" {
					t.Fatalf("seed %d %s: empty ErrorString for %v", seed, o.op, o.err)
				}
			}
		}
		faults.Disable()
	}
	// With injection disarmed the library is fully healthy again.
	c, err := NewMatrix[float64](16, 16)
	if err != nil {
		t.Fatalf("NewMatrix after chaos: %v", err)
	}
	if err := MxM(c, nil, nil, PlusTimes[float64](), in.a, in.a, nil); err != nil {
		t.Fatalf("MxM after chaos: %v", err)
	}
	if err := c.Wait(Materialize); err != nil {
		t.Fatalf("Wait after chaos: %v", err)
	}
}

// TestFaultSpecArming covers the GRB_FAULTS env arming path through Init:
// a bad spec fails Init cleanly, a good spec injects, and unsetting restores
// the fast path.
func TestFaultSpecArming(t *testing.T) {
	t.Setenv("GRB_FAULTS", "not a spec")
	reset()
	if err := Init(NonBlocking); Code(err) != InvalidValue {
		t.Fatalf("Init with bad GRB_FAULTS: err = %v, want InvalidValue", err)
	}
	t.Setenv("GRB_FAULTS", "sparse.merge.tuples:alloc@1")
	if err := Init(NonBlocking); err != nil {
		t.Fatalf("Init with valid GRB_FAULTS: %v", err)
	}
	t.Cleanup(func() {
		faults.Disable()
		_ = Finalize() //grblint:ignore infocheck -- best-effort teardown
	})
	m, err := NewMatrix[int](4, 4)
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	if err := m.SetElement(1, 0, 0); err != nil {
		t.Fatalf("SetElement: %v", err)
	}
	if err := m.Wait(Materialize); Code(err) != OutOfMemory {
		t.Fatalf("env-armed injection: err = %v, want OutOfMemory", err)
	}
}
