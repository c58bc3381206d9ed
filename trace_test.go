package grb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"
)

// chromeTrace is the subset of the Chrome trace-event schema the tests check.
type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Tid  uint64         `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// tracedThreads runs f under a writer trace session and returns, per
// operation name, the "threads" argument of each of its kernel events in
// emission order: the workers the kernel ran.
func tracedThreads(t *testing.T, f func()) map[string][]int {
	t.Helper()
	if os.Getenv("GRB_TRACE") != "" {
		t.Skip("GRB_TRACE owns the trace session")
	}
	var buf bytes.Buffer
	ck(TraceTo(&buf))
	f()
	ck(StopTrace())
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	out := map[string][]int{}
	for _, ev := range tr.TraceEvents {
		if ev.Cat == "kernel" {
			n, _ := ev.Args["threads"].(float64)
			out[ev.Name] = append(out[ev.Name], int(n))
		}
	}
	return out
}

// bfsLevels runs the classic push-pattern BFS (vxm over lor-land, masked by
// the complement of the visited set) so the trace tests exercise a real
// multi-step nonblocking workload without importing lagraph (import cycle).
func bfsLevels(t *testing.T, a *Matrix[bool], src Index) *Vector[int] {
	t.Helper()
	n := ck1(a.Nrows())
	levels := ck1(NewVector[int](n))
	visited := ck1(NewVector[bool](n))
	frontier := ck1(NewVector[bool](n))
	ck(frontier.SetElement(true, src))
	for depth := 0; ; depth++ {
		if ck1(frontier.Nvals()) == 0 {
			break
		}
		ck(VectorAssignScalar(levels, frontier, nil, depth, All, DescS))
		ck(VectorAssignScalar(visited, frontier, nil, true, All, DescS))
		ck(VxM(frontier, visited, nil, LOrLAnd(), frontier, a, DescRSC))
	}
	// Drain the last deferred assign so observers see the full sequence.
	ck(levels.Wait(Materialize))
	return levels
}

// ringBool builds the directed n-cycle, whose BFS has n levels — a long
// chain of deferred sequences.
func ringBool(t *testing.T, n int) *Matrix[bool] {
	t.Helper()
	I := make([]Index, n)
	J := make([]Index, n)
	X := make([]bool, n)
	for i := 0; i < n; i++ {
		I[i], J[i], X[i] = i, (i+1)%n, true
	}
	return mustMatrix(t, n, n, I, J, X)
}

// TestBFSTraceSequenceSpans is the end-to-end trace acceptance test: running
// a nonblocking BFS under an active trace session must produce a valid
// Chrome-trace JSON document in which kernel events carry a sequence id and
// fall inside the matching sequence span's time window. It works under both
// session flavours: with GRB_TRACE set (the env file session Init starts) it
// validates the trace file; otherwise it starts its own writer session.
func TestBFSTraceSequenceSpans(t *testing.T) {
	setMode(t, NonBlocking)
	envPath := os.Getenv("GRB_TRACE")
	var buf bytes.Buffer
	if envPath == "" {
		if err := TraceTo(&buf); err != nil {
			t.Fatal(err)
		}
	}

	a := ringBool(t, 32)
	levels := bfsLevels(t, a, 0)
	if got := ck1(levels.Nvals()); got != 32 {
		t.Fatalf("BFS reached %d vertices, want 32", got)
	}

	var blob []byte
	if envPath == "" {
		ck(StopTrace())
		blob = buf.Bytes()
	} else {
		ck(FlushTrace())
		blob = ck1(os.ReadFile(envPath))
	}

	var tr chromeTrace
	if err := json.Unmarshal(blob, &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tr.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", tr.DisplayTimeUnit)
	}
	if len(tr.TraceEvents) == 0 || tr.TraceEvents[0].Ph != "M" {
		t.Fatal("trace does not start with the process metadata event")
	}

	// Index the sequence spans by tid, then check every kernel/merge event
	// that claims a sequence parents under a span covering its time window.
	type window struct{ ts, end float64 }
	spans := map[uint64][]window{}
	seqs, kernels, attributed := 0, 0, 0
	for _, ev := range tr.TraceEvents {
		if ev.Cat == "sequence" {
			seqs++
			if ev.Tid == 0 {
				t.Fatalf("sequence span %q has tid 0", ev.Name)
			}
			spans[ev.Tid] = append(spans[ev.Tid], window{ev.Ts, ev.Ts + ev.Dur})
		}
	}
	const eps = 0.01 // µs; ns→µs float rounding slack
	for _, ev := range tr.TraceEvents {
		if ev.Cat != "kernel" && ev.Cat != "merge" {
			continue
		}
		kernels++
		if ev.Tid == 0 {
			continue // immediate execution (blocking mode, scalar reads)
		}
		attributed++
		ok := false
		for _, w := range spans[ev.Tid] {
			if ev.Ts >= w.ts-eps && ev.Ts+ev.Dur <= w.end+eps {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("kernel %q (tid %d, [%f,%f]) outside every span of its sequence",
				ev.Name, ev.Tid, ev.Ts, ev.Ts+ev.Dur)
		}
	}
	if seqs == 0 {
		t.Fatal("nonblocking BFS produced no sequence spans")
	}
	if attributed == 0 {
		t.Fatalf("none of the %d kernel events carry a sequence id", kernels)
	}
	// The BFS kernels must be visible by name.
	found := false
	for _, ev := range tr.TraceEvents {
		if ev.Name == "VxM" && ev.Cat == "kernel" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no VxM kernel event in the BFS trace")
	}
}

// TestBFSMetricsProfile checks the metrics sink over the same workload: per-
// op counts and routing splits for a direction-optimizing BFS.
func TestBFSMetricsProfile(t *testing.T) {
	setMode(t, NonBlocking)
	EnableMetrics(true)
	defer func() {
		EnableMetrics(false)
		ResetMetrics()
	}()
	ResetMetrics()

	a := ringBool(t, 64)
	_ = bfsLevels(t, a, 0)

	m := Metrics()
	vxm, ok := m["VxM"]
	if !ok {
		t.Fatalf("no VxM metrics; ops = %v", MetricsOps())
	}
	// The 64-cycle BFS runs one VxM per level.
	if vxm.Count < 64 {
		t.Fatalf("VxM count = %d, want >= 64", vxm.Count)
	}
	if push, pull := vxm.Counters["push_calls"], vxm.Counters["pull_calls"]; push+pull < 64 {
		t.Fatalf("VxM routing split %dp/%dg does not cover the levels", push, pull)
	}
	if vxm.TotalNs <= 0 {
		t.Fatalf("VxM TotalNs = %d", vxm.TotalNs)
	}
	if seq := m["sequence(vector)"]; seq.Count == 0 || seq.Steps == 0 {
		t.Fatalf("sequence spans not recorded: %+v", seq)
	}
	if assign, ok := m["VectorAssignScalar"]; !ok || assign.Count < 128 {
		t.Fatalf("VectorAssignScalar metrics = %+v (ok=%v)", assign, ok)
	}

	ResetMetrics()
	if len(Metrics()) != 0 {
		t.Fatalf("ResetMetrics left %v", MetricsOps())
	}
}

// TestStepEmitsOneEventPerOp pins the Begin/End pairing at its three sites —
// the sequence step, the drain's span, and the immediate reductions (to a
// Scalar or, typed, to a Go value): whatever the outcome (success, a kernel
// error, an operator panic), one execution adds exactly one event to its op's
// metrics, a failed one also one error, and every drain one span counting its
// steps. Removing any of the three End calls fails it.
func TestStepEmitsOneEventPerOp(t *testing.T) {
	setMode(t, NonBlocking)
	EnableMetrics(true)
	defer func() {
		EnableMetrics(false)
		ResetMetrics()
	}()
	// delta runs f and returns what it added to the named ops' metrics.
	delta := func(f func(), ops ...string) []OpMetrics {
		t.Helper()
		before := Metrics()
		f()
		after := Metrics()
		out := make([]OpMetrics, len(ops))
		for i, op := range ops {
			out[i] = OpMetrics{
				Count:  after[op].Count - before[op].Count,
				Errors: after[op].Errors - before[op].Errors,
				Steps:  after[op].Steps - before[op].Steps,
			}
		}
		return out
	}
	wantEvents := func(what, op string, got OpMetrics, errors int64) {
		t.Helper()
		if got.Count != 1 || got.Errors != errors {
			t.Errorf("%s: %s recorded %d events, %d errors; want 1 event, %d errors",
				what, op, got.Count, got.Errors, errors)
		}
	}
	// step drains one deferred operation on w and checks its event and span.
	step := func(what, op string, wait func(WaitMode) error, want Info, errors int64) {
		t.Helper()
		d := delta(func() { wantCode(t, wait(Materialize), want) }, op, "sequence(vector)")
		wantEvents(what, op, d[0], errors)
		if d[1].Count != 1 || d[1].Steps != 1 {
			t.Errorf("%s: the drain recorded %d spans over %d steps, want one span of 1 step",
				what, d[1].Count, d[1].Steps)
		}
	}

	a := mustMatrix(t, 8, 8, []Index{0, 1, 2}, []Index{1, 2, 3}, []float64{1, 2, 3})
	u := mustVector(t, 8, []Index{1, 2, 3}, []float64{1, 1, 1})
	ck(a.Wait(Materialize))
	ck(u.Wait(Materialize))

	w := ck1(NewVector[float64](8))
	ck(MxV(w, nil, nil, PlusTimes[float64](), a, u, nil))
	step("a step that succeeds", "MxV", w.Wait, Success, 0)

	// A kernel that returns an error: a 16-byte budget refuses every route.
	tight := ck1(NewContext(NonBlocking, nil, WithMemoryLimit(16)))
	ta, tu := pathGraph(t, tight, 64), ck1(NewVector[bool](64, InContext(tight)))
	ck(tu.SetElement(true, 0))
	ck(tu.Wait(Materialize))
	tw := ck1(NewVector[bool](64, InContext(tight)))
	ck(MxV(tw, nil, nil, LOrLAnd(), ta, tu, nil))
	step("a step whose kernel fails", "MxV", tw.Wait, OutOfMemory, 1)

	w = ck1(NewVector[float64](8))
	ck(VectorApply(w, nil, nil, func(float64) float64 { panic("user operator bug") }, u, nil))
	step("a step whose operator panics", "VectorApply", w.Wait, Panic, 1)

	// The scalar reductions run at the call and bracket their own kernel.
	boom := func(x, y float64) float64 { panic("user operator bug") }
	s := ck1(NewScalar[float64]())
	for _, tc := range []struct {
		op     string
		reduce func(op BinaryOp[float64, float64, float64]) error
	}{
		{"MatrixReduceToScalarBinaryOp", func(op BinaryOp[float64, float64, float64]) error {
			return MatrixReduceToScalarBinaryOp(s, nil, op, a, nil)
		}},
		{"VectorReduceToScalarBinaryOp", func(op BinaryOp[float64, float64, float64]) error {
			return VectorReduceToScalarBinaryOp(s, nil, op, u, nil)
		}},
		{"MatrixReduce", func(op BinaryOp[float64, float64, float64]) error {
			_, err := MatrixReduce(Monoid[float64]{Op: op}, a)
			return err
		}},
		{"VectorReduce", func(op BinaryOp[float64, float64, float64]) error {
			_, err := VectorReduce(Monoid[float64]{Op: op}, u)
			return err
		}},
	} {
		d := delta(func() { ck(tc.reduce(Plus[float64])) }, tc.op)
		wantEvents("a reduction that succeeds", tc.op, d[0], 0)
		d = delta(func() { wantCode(t, tc.reduce(boom), Panic) }, tc.op)
		wantEvents("a reduction whose operator panics", tc.op, d[0], 1)
	}
}

// TestObservabilityParallelKernels emits events from kernels running on
// separate goroutines with both sinks hot; under -race (the race tier) this
// is the subsystem's end-to-end data-race test.
func TestObservabilityParallelKernels(t *testing.T) {
	setMode(t, NonBlocking)
	EnableMetrics(true)
	defer func() {
		EnableMetrics(false)
		ResetMetrics()
	}()
	var buf bytes.Buffer
	tracing := Tracing() // GRB_TRACE env session already collecting
	if !tracing {
		if err := TraceTo(&buf); err != nil {
			t.Fatal(err)
		}
		defer func() { _ = StopTrace() }() //grblint:ignore infocheck -- best-effort teardown
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := 32 + 8*w
			I := make([]Index, n)
			J := make([]Index, n)
			X := make([]bool, n)
			for i := 0; i < n; i++ {
				I[i], J[i], X[i] = i, (i+1)%n, true
			}
			a := ck1(NewMatrix[bool](n, n))
			ck(a.Build(I, J, X, LOr))
			c := ck1(NewMatrix[bool](n, n))
			for i := 0; i < 8; i++ {
				ck(MxM(c, nil, nil, Semiring[bool, bool, bool]{Add: LOrMonoid(), Mul: LAnd}, a, a, nil))
				ck(c.Wait(Materialize))
			}
		}(w)
	}
	wg.Wait()

	if m := Metrics()["MxM"]; m.Count < 4*8 {
		t.Fatalf("parallel MxM count = %d, want >= 32", m.Count)
	}
	if !tracing {
		ck(StopTrace())
		var tr chromeTrace
		if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
			t.Fatalf("trace from parallel kernels is not valid JSON: %v", err)
		}
		if len(tr.TraceEvents) < 4*8 {
			t.Fatalf("trace holds %d events", len(tr.TraceEvents))
		}
	}
}

// TestTraceSecondSessionFails pins the public API error: one session at a time.
func TestTraceSecondSessionFails(t *testing.T) {
	setMode(t, NonBlocking)
	if Tracing() {
		t.Skip("GRB_TRACE session active")
	}
	var buf bytes.Buffer
	ck(TraceTo(&buf))
	err := TraceTo(&buf)
	wantCode(t, err, InvalidValue)
	ck(StopTrace())
}

// TestMetricsHandlerServesJSON smoke-tests the HTTP sink through the public
// constructor (the handler logic itself is tested in internal/obsv).
func TestMetricsHandlerServesJSON(t *testing.T) {
	if MetricsHandler() == nil {
		t.Fatal("MetricsHandler returned nil")
	}
}

// TestGRBTraceEnvBadPath checks that a bad GRB_TRACE path fails at Init with
// a clear error instead of at process exit.
func TestGRBTraceEnvBadPath(t *testing.T) {
	if Tracing() {
		t.Skip("a trace session is already active")
	}
	reset()
	t.Setenv("GRB_TRACE", fmt.Sprintf("%s/no-such-dir/t.json", t.TempDir()))
	err := Init(NonBlocking)
	wantCode(t, err, InvalidValue)
	if Tracing() {
		t.Fatal("failed Init left a trace session active")
	}
	t.Setenv("GRB_TRACE", "")
	setMode(t, NonBlocking) // leave the library initialized for later tests
}
