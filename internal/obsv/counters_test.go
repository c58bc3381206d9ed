package obsv

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// TestEveryCounterReachesEverySink bumps each kernel counter between Begin
// and End and checks that all four readers carry it under its one name: the
// event's deltas, that op's metrics (directly and in /metrics' "ops"), the
// Chrome trace args and /metrics' kernel_counters. A counter a sink leaves
// out, or files under a second name, fails its row.
func TestEveryCounterReachesEverySink(t *testing.T) {
	seen := map[string]bool{}
	for c := Counter(0); c < numCounters; c++ {
		name := counterNames[c]
		if name == "" || seen[name] {
			t.Fatalf("counter %d has the name %q, empty or taken", c, name)
		}
		seen[name] = true
		t.Run(name, func(t *testing.T) {
			metricsOn(t)
			ResetCounters()
			t.Cleanup(func() { ResetCounters() })
			var buf bytes.Buffer
			if err := TraceToWriter(&buf); err != nil {
				t.Fatal(err)
			}
			op := "Sink/" + name
			ev := &Event{Op: op, Kind: "kernel"}
			x := Begin(ev, 0)
			bump := int64(c) + 1
			c.Add(bump)
			x.End(0, nil)
			if err := EndTrace(); err != nil {
				t.Fatal(err)
			}

			want := Counts{}
			want[c] = bump
			if ev.Counters != want {
				t.Errorf("event deltas = %v, want %v", ev.Counters, want)
			}
			if m := MetricsSnapshot()[op]; len(m.Counters) != 1 || m.Counters[name] != bump {
				t.Errorf("op metrics counters = %v, want only %s: %d", m.Counters, name, bump)
			}

			var tf struct {
				TraceEvents []struct {
					Name string         `json:"name"`
					Args map[string]any `json:"args"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
				t.Fatal(err)
			}
			if n := len(tf.TraceEvents); n != 2 || tf.TraceEvents[1].Name != op {
				t.Fatalf("trace holds %d events, want metadata and %s", n, op)
			}
			if got := tf.TraceEvents[1].Args[name]; got != float64(bump) {
				t.Errorf("trace args[%s] = %v, want %d: %v", name, got, bump, tf.TraceEvents[1].Args)
			}

			rec := httptest.NewRecorder()
			Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			var doc struct {
				Ops            map[string]OpMetrics `json:"ops"`
				KernelCounters map[string]int64     `json:"kernel_counters"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
				t.Fatal(err)
			}
			if got := doc.KernelCounters[name]; got != bump {
				t.Errorf("/metrics kernel_counters[%s] = %d, want %d", name, got, bump)
			}
			if got := doc.Ops[op].Counters[name]; got != bump {
				t.Errorf("/metrics ops[%s].counters[%s] = %d, want %d", op, name, got, bump)
			}
		})
	}
}

// TestAlwaysOnPathsAllocateNothing pins the observations a serving process
// makes on every request whatever the sinks: a labeled request for a known
// tenant and op, and a serve cell that exists.
func TestAlwaysOnPathsAllocateNothing(t *testing.T) {
	ResetLabels()
	ResetServe()
	t.Cleanup(ResetLabels)
	t.Cleanup(ResetServe)
	NoteLabeled("acme", "bfs", 1, false)
	ServeSet("limiter.window.acme", 1)
	for _, tc := range []struct {
		what string
		f    func()
	}{
		{"NoteLabeled", func() { NoteLabeled("acme", "bfs", 100, false) }},
		{"ServeAdd", func() { ServeAdd("limiter.window.acme", 1) }},
		{"ServeSet", func() { ServeSet("limiter.window.acme", 4) }},
	} {
		if allocs := testing.AllocsPerRun(1000, tc.f); allocs != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", tc.what, allocs)
		}
	}
}

// TestEnabledMetricsEmitAllocatesNothing pins the metrics sink's cost per
// event for an op it has seen: Begin and End allocate nothing beyond the
// *Event the caller builds.
func TestEnabledMetricsEmitAllocatesNothing(t *testing.T) {
	if Tracing() {
		t.Skip("a trace session is active")
	}
	metricsOn(t)
	ev := &Event{Op: "MxM", Kind: "kernel"}
	Begin(ev, 0).End(1, nil)
	allocs := testing.AllocsPerRun(1000, func() {
		x := Begin(ev, 0)
		HashRanges.Add(1)
		x.End(1, nil)
	})
	if allocs != 0 {
		t.Fatalf("an enabled Begin/End allocates %.1f times per event, want 0", allocs)
	}
}
