// Package app is the atomiccheck corpus: every call to a package-level
// sync/atomic function is flagged, the typed wrappers are not.
package app

import "sync/atomic"

type counters struct {
	hits  int32
	total atomic.Int64
	head  atomic.Pointer[counters]
}

// Bad reaches a plain field through the function API, which leaves the
// plain read beside it legal Go.
func Bad(c *counters) int32 {
	atomic.AddInt32(&c.hits, 1)        // want `atomic.AddInt32 leaves its operand open to plain access`
	if atomic.LoadInt32(&c.hits) > 1 { // want `atomic.LoadInt32`
		return 0
	}
	return c.hits
}

// Good uses the typed wrappers: their method set is the only way in.
func Good(c *counters) int64 {
	c.total.Add(1)
	c.head.Store(c)
	return c.head.Load().total.Load()
}

// Ignored documents a deliberate suppression.
func Ignored(c *counters) {
	atomic.AddInt32(&c.hits, 1) //grblint:ignore atomiccheck -- corpus: deliberate suppressed case
}
