package obsv

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"sync"
)

// The trace sink buffers events in memory and serializes them in Chrome
// trace-event format ("Trace Event Format", the JSON chrome://tracing and
// Perfetto load). Sequence spans and their kernel children share a tid (the
// sequence id), so viewers nest children under the span by time containment;
// immediate events land on tid 0.
//
// Two session flavours exist:
//
//   - writer sessions (TraceToWriter / grb.TraceTo): buffered until EndTrace
//     writes the complete JSON once. Used by tests and programs that want the
//     trace handed to them.
//   - file sessions (TraceToFile, the GRB_TRACE=path env handled by
//     grb.Init): persistent — FlushTrace rewrites the file with everything
//     buffered so far and keeps collecting, so a test binary that cycles
//     Init/Finalize still ends with one valid, cumulative trace file.
//
// maxTraceEvents bounds the buffer; events past the cap are counted in
// "dropped_events" rather than silently lost.
const maxTraceEvents = 1 << 20

type traceSession struct {
	events  []*Event
	dropped int64
	w       io.Writer // writer session (one-shot)
	path    string    // file session (persistent, rewritten by FlushTrace)
}

var (
	traceMu sync.Mutex
	trace   *traceSession
)

// ErrTracing is returned when a trace session is already active.
var ErrTracing = errors.New("obsv: trace session already active")

// ErrNotTracing is returned by flush/end with no active session.
var ErrNotTracing = errors.New("obsv: no active trace session")

// Tracing reports whether a trace session is collecting events.
func Tracing() bool { return state.Load()&stTrace != 0 }

// TraceToWriter starts a writer session: events buffer until EndTrace
// serializes them to w. Only one session may be active.
func TraceToWriter(w io.Writer) error {
	traceMu.Lock()
	defer traceMu.Unlock()
	if trace != nil {
		return ErrTracing
	}
	trace = &traceSession{w: w}
	setStateBit(stTrace, true)
	return nil
}

// TraceToFile starts a persistent file session: FlushTrace (and EndTrace)
// rewrite path with the full cumulative buffer. The path is validated by
// creating the file immediately, so a bad GRB_TRACE fails at Init rather
// than at the end of the run.
func TraceToFile(path string) error {
	traceMu.Lock()
	defer traceMu.Unlock()
	if trace != nil {
		return ErrTracing
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	trace = &traceSession{path: path}
	setStateBit(stTrace, true)
	return nil
}

// recordTrace appends one completed event to the active session's buffer.
func recordTrace(ev *Event) {
	traceMu.Lock()
	defer traceMu.Unlock()
	if trace == nil {
		return
	}
	if len(trace.events) >= maxTraceEvents {
		trace.dropped++
		return
	}
	trace.events = append(trace.events, ev)
}

// FlushTrace writes the cumulative buffer of a file session to its path and
// keeps the session collecting. It is a no-op for writer sessions (their one
// write happens at EndTrace) and returns ErrNotTracing with no session.
func FlushTrace() error {
	traceMu.Lock()
	defer traceMu.Unlock()
	if trace == nil {
		return ErrNotTracing
	}
	if trace.path == "" {
		return nil
	}
	blob, err := trace.marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(trace.path, blob, 0o644)
}

// EndTrace serializes the buffer to the session's writer or file and ends
// the session.
func EndTrace() error {
	traceMu.Lock()
	defer traceMu.Unlock()
	if trace == nil {
		return ErrNotTracing
	}
	t := trace
	trace = nil
	setStateBit(stTrace, false)
	blob, err := t.marshal()
	if err != nil {
		return err
	}
	if t.w != nil {
		_, err = t.w.Write(blob)
		return err
	}
	return os.WriteFile(t.path, blob, 0o644)
}

// TraceBuffered returns the number of events the active session holds (0
// without a session) — surfaced by the HTTP endpoint.
func TraceBuffered() int {
	traceMu.Lock()
	defer traceMu.Unlock()
	if trace == nil {
		return 0
	}
	return len(trace.events)
}

// traceEvent is one entry of the Chrome trace-event JSON. ts and dur are in
// microseconds (float, so sub-µs kernels keep their ordering).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the top-level Chrome trace JSON object.
type traceFile struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// marshal serializes the buffered events. Callers hold traceMu.
func (t *traceSession) marshal() ([]byte, error) {
	tes := make([]traceEvent, 0, len(t.events)+1)
	tes = append(tes, traceEvent{
		Name: "process_name", Cat: "__metadata", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "grb"},
	})
	for _, ev := range t.events {
		te := traceEvent{
			Name: ev.Op,
			Cat:  ev.Kind,
			Ph:   "X",
			Ts:   float64(ev.Start) / 1e3,
			Dur:  float64(ev.Dur) / 1e3,
			Pid:  1,
			Tid:  uint64(ev.Seq),
		}
		args := map[string]any{}
		if ev.Route != "" {
			args["route"] = ev.Route
		}
		if ev.RouteReason != "" {
			args["route_reason"] = ev.RouteReason
		}
		if ev.Threads != 0 {
			args["threads"] = ev.Threads
		}
		if ev.ARows != 0 || ev.ACols != 0 {
			args["a"] = []int{ev.ARows, ev.ACols, ev.ANNZ}
		}
		if ev.BRows != 0 || ev.BCols != 0 {
			args["b"] = []int{ev.BRows, ev.BCols, ev.BNNZ}
		}
		args["out_nnz"] = ev.OutNNZ
		if ev.Flops != 0 {
			args["flops"] = ev.Flops
		}
		for i, v := range ev.Counters {
			if v != 0 {
				args[counterNames[i]] = v
			}
		}
		if ev.Steps != 0 {
			args["steps"] = ev.Steps
		}
		if ev.Err != "" {
			args["err"] = ev.Err
		}
		te.Args = args
		tes = append(tes, te)
	}
	out := traceFile{
		TraceEvents:     tes,
		DisplayTimeUnit: "ms",
	}
	if t.dropped > 0 {
		out.OtherData = map[string]any{"dropped_events": t.dropped}
	}
	return json.Marshal(out)
}
