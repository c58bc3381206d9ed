package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the program. Spans of one operation share OpID; Parent is the ID
// of the span one depth up the ladder for the same operation (0 at the
// top), or of the enclosing span for a stage inside an operation.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	OpID    int    `json:"op_id"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced passes run the same code.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// time runs fn inside a span and returns the span's ID and duration in
// milliseconds. fn receives the ID so that it can parent the stages inside
// it. On a nil tracer the ID is 0 and nothing is kept.
func (t *tracer) time(name, layer string, opID, parent int, fn func(id int)) (id int, ms float64) {
	if t != nil {
		t.spans = append(t.spans, span{Name: name, Layer: layer, OpID: opID, Parent: parent})
		id = len(t.spans)
		t.spans[id-1].ID = id
	}
	start := time.Now()
	fn(id)
	end := time.Now()
	if t != nil {
		t.spans[id-1].StartNs = start.Sub(t.epoch).Nanoseconds()
		t.spans[id-1].EndNs = end.Sub(t.epoch).Nanoseconds()
	}
	return id, float64(end.Sub(start)) / 1e6
}

func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// durationsMs returns the durations of the spans called name, in op order.
func (t *tracer) durationsMs(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// selfTimes turns the ladder's per-depth medians (top depth first) into
// per-layer self-times: each depth's median minus the next depth's, the
// bottom depth keeping its own. A missing depth (median 0) is skipped, so
// its neighbours subtract across it. The self-times of the depths present
// sum to the top median.
func selfTimes(depthMedians []float64) []float64 {
	self := make([]float64, len(depthMedians))
	for d, m := range depthMedians {
		if m == 0 {
			continue
		}
		self[d] = m
		for next := d + 1; next < len(depthMedians); next++ {
			if depthMedians[next] != 0 {
				self[d] = m - depthMedians[next]
				break
			}
		}
	}
	return self
}
