package obsv

import "sync/atomic"

// The serve-stats registry is the serving layer's operational dashboard:
// named gauges and counters for the overload-protection machinery — memory
// governor live bytes and sheds, per-tenant AIMD limiter windows, circuit
// breaker states and transitions, queue drops, drain state. It complements
// the label registry the same way gauges complement request counters: labels
// answer "who asked and how did it go", serve stats answer "what is the
// control plane doing right now". Like the label registry it is always on —
// one atomic per observation, far below emit-point cost concerns.
//
// Names are dotted paths ("govern.live_bytes", "limiter.window.gold",
// "breaker.state.gold"); the full map lands in the metrics Handler document
// under "serve".
var serveRegistry table[atomic.Int64]

// ServeSet records a gauge observation: the named cell is set to v.
func ServeSet(name string, v int64) { serveRegistry.get(name).Store(v) }

// ServeAdd folds delta into the named counter and returns the new total.
func ServeAdd(name string, delta int64) int64 { return serveRegistry.get(name).Add(delta) }

// ServeSnapshot returns every serve-stats cell by name.
func ServeSnapshot() map[string]int64 { return snapshot(&serveRegistry, (*atomic.Int64).Load) }

// ResetServe drops every serve-stats cell.
func ResetServe() { serveRegistry.reset() }
