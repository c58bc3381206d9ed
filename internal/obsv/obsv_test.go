package obsv

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// metricsOn enables the registry for one test and restores the off state.
func metricsOn(t *testing.T) {
	t.Helper()
	EnableMetrics(true)
	t.Cleanup(func() {
		EnableMetrics(false)
		ResetMetrics()
	})
}

// The two tests below keep the names they had when the counters were an
// obsv.Group; they check the same add/get/snapshot and reset contract on
// the counter bank.

func TestGroupAddGetSnapshot(t *testing.T) {
	ResetCounters()
	t.Cleanup(func() { ResetCounters() })
	DenseRanges.Add(5)
	HashRanges.Add(7)
	HashRanges.Add(1)
	if got := HashRanges.Load(); got != 8 {
		t.Fatalf("HashRanges.Load() = %d, want 8", got)
	}
	if c := readCounters(); c[DenseRanges] != 5 || c[HashRanges] != 8 || c[PushCalls] != 0 {
		t.Fatalf("readCounters = %v", c)
	}
	if name := counterNames[HashRanges]; name == "" {
		t.Fatalf("HashRanges has no name")
	}
}

func TestGroupResetReturnsFinalValues(t *testing.T) {
	ResetCounters()
	t.Cleanup(func() { ResetCounters() })
	DenseRanges.Add(3)
	HashRanges.Add(4)
	if old := ResetCounters(); old[DenseRanges] != 3 || old[HashRanges] != 4 {
		t.Fatalf("ResetCounters returned %v, want the final values", old)
	}
	if c := readCounters(); c != (Counts{}) {
		t.Fatalf("post-reset readCounters = %v, want zeros", c)
	}
}

// TestCounterResetNeverTears hammers the bank with concurrent adders that
// bump two counters of one bank in lockstep (left, then right) while the
// test reads and swaps banks. What the bank guarantees is that a read reads
// one bank; it does not freeze the adders between its two loads. So within
// a bank left-right stays in [0, adders] (one pending right bump per adder),
// and a snapshot, which loads left first, observes
//
//	-adders <= right-left <= adders + bumps made while it was reading
//
// where the last term is bounded by the adders' own never-reset tally read
// before and after. A snapshot that mixed a retired bank's counter with a
// fresh bank's — the torn group the old per-variable Store(0) reset
// produced — breaks one side or the other by the whole pre-reset count.
// The previous form of this test asserted left == right, which the adders
// legitimately violate between the two loads (about 2 runs in 30).
func TestCounterResetNeverTears(t *testing.T) {
	const adders = 4
	const left, right = DenseRanges, HashRanges
	t.Cleanup(func() { ResetCounters() })
	var bumps atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < adders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					b := counters.Load()
					b[left].Add(1)
					b[right].Add(1)
					bumps.Add(1)
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	// read runs one group read (both load left before right) and checks it.
	read := func(what string, f func() Counts) {
		before := bumps.Load()
		v := f()
		during := bumps.Load() - before
		if d := v[right] - v[left]; d < -adders || d > adders+during || v[left] < 0 || v[right] < 0 {
			t.Fatalf("torn %s %v: right-left = %d outside [%d, %d]", what, v, d, -adders, adders+during)
		}
	}
	for i := 0; i < 1000; i++ {
		read("readCounters", readCounters)
		if i%10 == 0 {
			read("ResetCounters", ResetCounters)
		}
	}
}

func TestBeginEndRecordsMetrics(t *testing.T) {
	metricsOn(t)
	ev := (&Event{Op: "TestOp", Kind: "kernel"}).
		A(10, 10, 30).B(10, 1, 4).WithFlops(123).WithThreads(2)
	x := Begin(ev, 0)
	HashRanges.Add(3)
	ScratchBytes.Add(256)
	x.End(17, nil)

	m := MetricsSnapshot()["TestOp"]
	if m.Count != 1 || m.Errors != 0 {
		t.Fatalf("count/errors = %d/%d", m.Count, m.Errors)
	}
	if m.Flops != 123 || m.OutNNZ != 17 {
		t.Fatalf("flops/outNNZ = %d/%d", m.Flops, m.OutNNZ)
	}
	if m.Counters["hash_ranges"] != 3 || m.Counters["scratch_bytes"] != 256 {
		t.Fatalf("per-call deltas not recorded: %+v", m)
	}
	if m.TotalNs < 0 {
		t.Fatalf("TotalNs = %d", m.TotalNs)
	}
}

func TestEndEmitsOnError(t *testing.T) {
	metricsOn(t)
	x := Begin(&Event{Op: "FailOp"}, 0)
	x.End(0, errors.New("boom"))
	m := MetricsSnapshot()["FailOp"]
	if m.Count != 1 || m.Errors != 1 {
		t.Fatalf("failing kernel not recorded: %+v", m)
	}
}

func TestBeginNilEventIsInert(t *testing.T) {
	metricsOn(t)
	x := Begin(nil, 9)
	x.End(100, nil) // must not panic or record
	if len(MetricsSnapshot()) != 0 {
		t.Fatalf("nil event recorded: %v", MetricsOps())
	}
}

func TestMetricsOpsSorted(t *testing.T) {
	metricsOn(t)
	for _, op := range []string{"zeta", "alpha", "mid"} {
		Begin(&Event{Op: op}, 0).End(0, nil)
	}
	ops := MetricsOps()
	want := []string{"alpha", "mid", "zeta"}
	if len(ops) != 3 || ops[0] != want[0] || ops[1] != want[1] || ops[2] != want[2] {
		t.Fatalf("MetricsOps = %v, want %v", ops, want)
	}
}

func TestSequenceSpanEvent(t *testing.T) {
	metricsOn(t)
	span := SeqBegin("matrix")
	if span.ID() == 0 {
		t.Fatal("active span has id 0")
	}
	Begin(&Event{Op: "Child"}, span.ID()).End(0, nil)
	span.End(3)
	m := MetricsSnapshot()["sequence(matrix)"]
	if m.Count != 1 || m.Steps != 3 {
		t.Fatalf("sequence span metrics = %+v", m)
	}
}

func TestInertSpanWhenDisabled(t *testing.T) {
	if Active() {
		t.Skip("another sink active")
	}
	span := SeqBegin("vector")
	if span.ID() != 0 {
		t.Fatalf("disabled SeqBegin allocated id %d", span.ID())
	}
	span.End(5) // must not panic
}

// TestTraceChromeSchema is the golden-schema test: a writer session's output
// must be a valid Chrome trace-event file — metadata first, every event with
// ph "X", µs timestamps, the sequence id as tid.
func TestTraceChromeSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := TraceToWriter(&buf); err != nil {
		t.Fatal(err)
	}
	span := SeqBegin("matrix")
	ev := (&Event{Op: "MxM", Kind: "kernel"}).
		A(4, 4, 9).B(4, 4, 9).WithFlops(42).WithThreads(2)
	x := Begin(ev, span.ID())
	// The executing step stamps the planner's route between Begin and End.
	ev.Route, ev.RouteReason = "auto(dense)", "work >= width/2"
	x.End(11, nil)
	span.End(1)
	if !Tracing() {
		t.Fatal("Tracing() false with active session")
	}
	if TraceBuffered() != 2 {
		t.Fatalf("buffered %d events, want 2", TraceBuffered())
	}
	if err := EndTrace(); err != nil {
		t.Fatal(err)
	}
	if Tracing() {
		t.Fatal("Tracing() true after EndTrace")
	}

	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  uint64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", tf.DisplayTimeUnit)
	}
	if len(tf.TraceEvents) != 3 { // metadata + kernel + span
		t.Fatalf("traceEvents has %d entries, want 3", len(tf.TraceEvents))
	}
	meta := tf.TraceEvents[0]
	if meta.Ph != "M" || meta.Name != "process_name" {
		t.Fatalf("first event not process metadata: %+v", meta)
	}
	kernel := tf.TraceEvents[1]
	if kernel.Name != "MxM" || kernel.Cat != "kernel" || kernel.Ph != "X" {
		t.Fatalf("kernel event = %+v", kernel)
	}
	if kernel.Tid == 0 {
		t.Fatal("kernel event lost its sequence tid")
	}
	if kernel.Args["route"] != "auto(dense)" || kernel.Args["route_reason"] != "work >= width/2" {
		t.Fatalf("route = %v (%v)", kernel.Args["route"], kernel.Args["route_reason"])
	}
	if kernel.Args["flops"] != float64(42) {
		t.Fatalf("flops arg = %v", kernel.Args["flops"])
	}
	seq := tf.TraceEvents[2]
	if seq.Cat != "sequence" || seq.Tid != kernel.Tid {
		t.Fatalf("span does not share the kernel's tid: %+v vs %+v", seq, kernel)
	}
	if kernel.Ts < seq.Ts || kernel.Ts+kernel.Dur > seq.Ts+seq.Dur+0.001 {
		t.Fatalf("kernel [%f,%f] outside span [%f,%f]",
			kernel.Ts, kernel.Ts+kernel.Dur, seq.Ts, seq.Ts+seq.Dur)
	}
}

func TestTraceSecondSessionRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := TraceToWriter(&buf); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := EndTrace(); err != nil {
			t.Fatal(err)
		}
	}()
	if err := TraceToWriter(&buf); err != ErrTracing {
		t.Fatalf("second session: err = %v, want ErrTracing", err)
	}
	if err := TraceToFile(filepath.Join(t.TempDir(), "t.json")); err != ErrTracing {
		t.Fatalf("second file session: err = %v, want ErrTracing", err)
	}
}

func TestTraceFileFlushCumulative(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := TraceToFile(path); err != nil {
		t.Fatal(err)
	}
	Begin(&Event{Op: "One"}, 0).End(0, nil)
	if err := FlushTrace(); err != nil {
		t.Fatal(err)
	}
	Begin(&Event{Op: "Two"}, 0).End(0, nil)
	if err := EndTrace(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &tf); err != nil {
		t.Fatal(err)
	}
	// Cumulative: the final file holds both events, not just the post-flush one.
	if len(tf.TraceEvents) != 3 {
		t.Fatalf("final file has %d events, want metadata + One + Two", len(tf.TraceEvents))
	}
	if tf.TraceEvents[1].Name != "One" || tf.TraceEvents[2].Name != "Two" {
		t.Fatalf("events = %+v", tf.TraceEvents)
	}
}

func TestTraceToFileBadPathFailsEarly(t *testing.T) {
	if err := TraceToFile(filepath.Join(t.TempDir(), "missing-dir", "t.json")); err == nil {
		t.Fatal("TraceToFile accepted an uncreatable path")
	}
	if Tracing() {
		t.Fatal("failed TraceToFile left the trace bit set")
	}
}

func TestFlushWithoutSession(t *testing.T) {
	if err := FlushTrace(); err != ErrNotTracing {
		t.Fatalf("FlushTrace = %v, want ErrNotTracing", err)
	}
	if err := EndTrace(); err != ErrNotTracing {
		t.Fatalf("EndTrace = %v, want ErrNotTracing", err)
	}
}

func TestHTTPHandler(t *testing.T) {
	metricsOn(t)
	Begin(&Event{Op: "HTTPOp"}, 0).End(3, nil)
	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/grb", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var doc struct {
		MetricsEnabled bool                 `json:"metrics_enabled"`
		Ops            map[string]OpMetrics `json:"ops"`
		Counters       map[string]int64     `json:"kernel_counters"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("endpoint is not JSON: %v", err)
	}
	if !doc.MetricsEnabled {
		t.Fatal("metrics_enabled false while collecting")
	}
	if doc.Ops["HTTPOp"].Count != 1 {
		t.Fatalf("ops = %v", doc.Ops)
	}
	if len(doc.Counters) != int(numCounters) {
		t.Fatalf("kernel_counters has %d counters, want all %d: %v", len(doc.Counters), numCounters, doc.Counters)
	}
	// One counter group, one object: the document has no second bank.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["block_counters"]; ok {
		t.Fatal("metrics document still carries a block_counters object")
	}
}

// TestDisabledPathAllocatesNothing pins the overhead contract: with every
// sink off, the full emit-point pattern (Active check, nil event through
// Begin/End, inert span) performs zero heap allocations.
func TestDisabledPathAllocatesNothing(t *testing.T) {
	if Active() {
		t.Skip("a sink is active")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		var ev *Event
		if Active() {
			ev = &Event{Op: "MxM"}
		}
		x := Begin(ev, 0)
		x.End(0, nil)
		span := SeqBegin("matrix")
		span.End(0)
	})
	if allocs != 0 {
		t.Fatalf("disabled emit path allocates %.1f times per op, want 0", allocs)
	}
}

// TestParallelEmitRace exercises every sink from concurrent goroutines; run
// under -race (the race tier does) it is the data-race regression test for
// the whole subsystem.
func TestParallelEmitRace(t *testing.T) {
	metricsOn(t)
	var buf bytes.Buffer
	if err := TraceToWriter(&buf); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				span := SeqBegin("matrix")
				ev := (&Event{Op: fmt.Sprintf("Op%d", w%4)}).A(10, 10, 20)
				x := Begin(ev, span.ID())
				HashRanges.Add(1)
				x.End(i, nil)
				span.End(1)
				if i%50 == 0 {
					ResetCounters()
					MetricsSnapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if err := EndTrace(); err != nil {
		t.Fatal(err)
	}
	var tf map[string]any
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace from parallel emit is not valid JSON: %v", err)
	}
	total := int64(0)
	for _, m := range MetricsSnapshot() {
		total += m.Count
	}
	if total != 8*200*2 { // per iteration: one kernel + one span event
		t.Fatalf("metrics recorded %d events, want %d", total, 8*200*2)
	}
}

// BenchmarkDisabledEmit measures the contract the package doc states: one
// atomic load, no allocation, per emit point with every sink off.
func BenchmarkDisabledEmit(b *testing.B) {
	if Active() {
		b.Skip("a sink is active")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var ev *Event
		if Active() {
			ev = &Event{Op: "MxM"}
		}
		x := Begin(ev, 0)
		x.End(0, nil)
	}
}

// BenchmarkEnabledMetricsEmit is the reference point for the enabled path.
func BenchmarkEnabledMetricsEmit(b *testing.B) {
	EnableMetrics(true)
	defer func() {
		EnableMetrics(false)
		ResetMetrics()
	}()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev := (&Event{Op: "MxM", Kind: "kernel"}).A(100, 100, 500).WithFlops(1000)
		x := Begin(ev, 0)
		x.End(400, nil)
	}
}
