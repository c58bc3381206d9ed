// Package obsv is the library's observability substrate: a low-overhead
// event/metrics layer that records one structured Event per kernel execution
// and one span per deferred sequence drain, and fans both out to three sinks
// — an in-process metrics registry (registry.go), a Chrome-trace-format JSON
// writer (trace.go), and an expvar-style HTTP endpoint (http.go).
//
// The §III sequence model makes execution deferred and opaque: the user calls
// MxM but the work happens later, inside Wait, on whichever kernel the router
// picked. Events therefore carry a sequence span id (Seq), so nonblocking-
// mode cost is attributable to the user-level call that enqueued it, and the
// kernel route actually taken (dense/hash SPA, push/pull, transpose-cache
// miss), resolved from the kernel counters' per-call deltas.
//
// Overhead contract: with every sink disabled (the default), an emit point
// costs one atomic load and allocates nothing — Begin returns a zero Exec by
// value and End returns immediately. The grb layer additionally constructs
// its *Event only when Active() reports true, so the disabled fast path never
// touches the heap. A dedicated benchmark (BenchmarkDisabledEmit) and an
// AllocsPerRun test pin this down.
package obsv

import (
	"sync/atomic"
	"time"
)

// state is the master enable bitmask. Emit points check it with a single
// atomic load; all sinks are off by default.
const (
	stMetrics uint32 = 1 << iota // per-op metrics registry collecting
	stTrace                      // trace session buffering events
)

var state atomic.Uint32

// Active reports whether any sink wants events. Op layers call this before
// constructing an Event so the disabled path stays allocation-free.
func Active() bool { return state.Load() != 0 }

// setStateBit sets or clears one state bit, returning whether it was set.
func setStateBit(bit uint32, on bool) bool {
	for {
		old := state.Load()
		nw := old &^ bit
		if on {
			nw = old | bit
		}
		if state.CompareAndSwap(old, nw) {
			return old&bit != 0
		}
	}
}

// epoch anchors event timestamps: Start fields are nanoseconds since process
// init on the monotonic clock, so spans and their children order correctly
// even across wall-clock adjustments.
var epoch = time.Now()

// now returns nanoseconds since the epoch.
func now() int64 { return int64(time.Since(epoch)) }

// Uptime returns the time since the observability epoch (process init).
func Uptime() time.Duration { return time.Since(epoch) }

// SeqID identifies one deferred-sequence drain (enqueue → Wait). Zero means
// "no sequence": the event ran immediately (blocking mode or a scalar read).
type SeqID uint64

var seqCounter atomic.Uint64

// Event is one structured record per kernel execution (Kind "kernel"), per
// sequence drain (Kind "sequence") or per deferred tuple merge (Kind
// "merge"). The A* fields describe the first operand, B* the second (for
// vectors Cols is 1); zero-valued operand fields mean "no such operand".
type Event struct {
	Op    string `json:"op"`              // user-level operation ("MxM", "VxM", ...)
	Kind  string `json:"kind"`            // "kernel" | "sequence" | "merge"
	Route string `json:"route,omitempty"` // kernel route, from the planner's decision ("pull+mono", "auto(hash)")
	// RouteReason is the plan row that decided the route ("cut·products <
	// rows + probes", "budget refused dense gather", "descriptor pin").
	RouteReason string `json:"route_reason,omitempty"`
	Seq         SeqID  `json:"seq,omitempty"`     // owning sequence span, 0 = immediate
	Threads     int    `json:"threads,omitempty"` // goroutines the kernel's widest parallel section ran on

	// First operand dims / nnz; second operand dims / nnz (vectors: Cols 1).
	ARows  int `json:"a_rows,omitempty"`
	ACols  int `json:"a_cols,omitempty"`
	ANNZ   int `json:"a_nnz,omitempty"`
	BRows  int `json:"b_rows,omitempty"`
	BCols  int `json:"b_cols,omitempty"`
	BNNZ   int `json:"b_nnz,omitempty"`
	OutNNZ int `json:"out_nnz"` // result nnz

	Flops int64 `json:"flops,omitempty"` // call-time flop estimate

	// Per-call deltas of the kernel counters, captured around the kernel's
	// execution: Begin stores the counters here, End their deltas (so the
	// zero Exec the disabled path returns stays two words). Attribution is
	// approximate when kernels from other goroutines overlap this one (the
	// bank's totals remain exact); each value is clamped at zero so a
	// concurrent reset cannot go negative. A zero TransposeMats with Route
	// "transpose" is a transpose-cache hit.
	Counters Counts `json:"-"`

	Steps int `json:"steps,omitempty"` // sequence spans: drained step count

	Start int64  `json:"start_ns"` // ns since the obsv epoch
	Dur   int64  `json:"dur_ns"`   // wall time
	Err   string `json:"err,omitempty"`
}

// A records the first operand's shape; nil-safe and chainable so call sites
// can build events without guarding every field store.
func (e *Event) A(rows, cols, nnz int) *Event {
	if e != nil {
		e.ARows, e.ACols, e.ANNZ = rows, cols, nnz
	}
	return e
}

// B records the second operand's shape; nil-safe and chainable.
func (e *Event) B(rows, cols, nnz int) *Event {
	if e != nil {
		e.BRows, e.BCols, e.BNNZ = rows, cols, nnz
	}
	return e
}

// WithFlops records the call-time flop estimate; nil-safe and chainable.
func (e *Event) WithFlops(f int64) *Event {
	if e != nil {
		e.Flops = f
	}
	return e
}

// WithRoute records the kernel route ("push", "auto(dense)+mono",
// "transpose", ...); nil-safe and chainable.
func (e *Event) WithRoute(r string) *Event {
	if e != nil {
		e.Route = r
	}
	return e
}

// WithThreads records how many goroutines the kernel ran on; nil-safe and
// chainable.
func (e *Event) WithThreads(n int) *Event {
	if e != nil {
		e.Threads = n
	}
	return e
}

// Exec is the in-flight half of a kernel event: Begin captures the start
// time and a counter snapshot, End fills the deltas and hands the event to
// the sinks. It is passed by value and holds no heap state of its own, so
// the disabled path (zero Exec) allocates nothing.
type Exec struct {
	ev    *Event
	start int64
}

// Begin starts measuring one kernel execution. ev is the call-time half of
// the event (nil when observation was off at call time); seq attributes the
// event to the sequence drain executing it.
func Begin(ev *Event, seq SeqID) Exec {
	if ev == nil || !Active() {
		return Exec{}
	}
	ev.Seq = seq
	ev.Counters = readCounters()
	return Exec{ev: ev, start: now()}
}

// End completes the measurement and emits the event. err is recorded (the
// event is still emitted — a failing kernel is exactly what a trace should
// show); outNNZ is the result's stored-entry count.
func (x Exec) End(outNNZ int, err error) {
	if x.ev == nil {
		return
	}
	ev := x.ev
	ev.Start = x.start
	ev.Dur = now() - x.start
	ev.OutNNZ = outNNZ
	if ev.Kind == "" {
		ev.Kind = "kernel"
	}
	for i, v := range readCounters() {
		ev.Counters[i] = max(v-ev.Counters[i], 0)
	}
	if err != nil {
		ev.Err = err.Error()
	}
	emit(ev)
}

// Span is an open sequence span: one deferred-sequence drain from the first
// pending step through the last. The zero Span (observation off) is inert.
type Span struct {
	id    SeqID
	kind  string
	start int64
}

// SeqBegin opens a span for a sequence drain of the given object kind
// ("matrix", "vector"). When no sink is active it returns the zero Span.
func SeqBegin(kind string) Span {
	if !Active() {
		return Span{}
	}
	return Span{id: SeqID(seqCounter.Add(1)), kind: kind, start: now()}
}

// ID returns the span's sequence id (0 for the inert zero Span); kernel
// events executed inside the drain carry it in their Seq field.
func (s Span) ID() SeqID { return s.id }

// End closes the span, emitting one "sequence" event covering the drained
// steps. Children parent under it in the trace by sharing its Seq id and
// falling inside its [Start, Start+Dur] window.
func (s Span) End(steps int) {
	if s.id == 0 {
		return
	}
	emit(&Event{
		Op:    "sequence(" + s.kind + ")",
		Kind:  "sequence",
		Seq:   s.id,
		Steps: steps,
		Start: s.start,
		Dur:   now() - s.start,
	})
}

// emit fans a completed event out to whichever sinks are enabled.
func emit(ev *Event) {
	s := state.Load()
	if s&stMetrics != 0 {
		recordMetrics(ev)
	}
	if s&stTrace != 0 {
		recordTrace(ev)
	}
}
