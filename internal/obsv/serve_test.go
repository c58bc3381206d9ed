package obsv

import (
	"sync"
	"testing"
)

// TestServeStatsBasics covers the gauge/counter surface: set overwrites,
// add accumulates and returns the total, a snapshot reads without creating,
// and the snapshot, the sorted names and reset see every cell.
func TestServeStatsBasics(t *testing.T) {
	ResetServe()
	t.Cleanup(ResetServe)

	ServeSet("govern.live_bytes", 1234)
	ServeSet("govern.live_bytes", 99)
	if got := ServeSnapshot()["govern.live_bytes"]; got != 99 {
		t.Fatalf("gauge = %d, want 99 (set overwrites)", got)
	}
	if got := ServeAdd("govern.sheds", 2); got != 2 {
		t.Fatalf("add total = %d, want 2", got)
	}
	if got := ServeAdd("govern.sheds", 3); got != 5 {
		t.Fatalf("add total = %d, want 5", got)
	}
	if got := ServeSnapshot()["never.recorded"]; got != 0 {
		t.Fatalf("unrecorded cell = %d, want 0", got)
	}
	snap := ServeSnapshot()
	if snap["govern.live_bytes"] != 99 || snap["govern.sheds"] != 5 {
		t.Fatalf("snapshot = %v", snap)
	}
	names := serveRegistry.names()
	if len(names) != 2 || names[0] != "govern.live_bytes" || names[1] != "govern.sheds" {
		t.Fatalf("names = %v", names)
	}
	ResetServe()
	if len(ServeSnapshot()) != 0 {
		t.Fatal("reset left cells behind")
	}
}

// TestServeStatsConcurrent hammers one counter and one gauge from many
// goroutines under -race; the counter total must be exact.
func TestServeStatsConcurrent(t *testing.T) {
	ResetServe()
	t.Cleanup(ResetServe)
	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ServeAdd("limiter.sheds.t", 1)
				ServeSet("limiter.window.t", int64(w*iters+i))
			}
		}(w)
	}
	wg.Wait()
	if got := ServeSnapshot()["limiter.sheds.t"]; got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
}
