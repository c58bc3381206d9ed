package serve

import (
	"fmt"
	"time"

	grb "github.com/grblas/grb"
	"github.com/grblas/grb/internal/obsv"
)

// beginDrain flips the server into draining mode: new requests are shed with
// 503 and queued waiters are woken to be shed too. Idempotent.
func (s *Server) beginDrain() {
	s.drainOnce.Do(func() {
		close(s.drainCh)
		obsv.ServeSet("drain.state", 1)
	})
}

// Draining reports whether the server has stopped accepting new work.
func (s *Server) Draining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// InFlight returns the number of requests currently holding a live context.
func (s *Server) InFlight() int64 { return s.inflight.Load() }

// enter counts an admitted request that now holds its context; a tenant's
// first one makes it active for the governor's fair share.
func (s *Server) enter(tn *tenant) {
	s.inflight.Add(1)
	if tn.running.Add(1) == 1 && s.gov != nil {
		s.gov.active.Add(1)
	}
}

// leave ends what enter began. Under a governor the request's peak feeds its
// tenant's estimate for op first, read before Free detaches the context
// from the rollup.
func (s *Server) leave(tn *tenant, op string, ctx *grb.Context) {
	if s.gov != nil {
		tn.learn(op, ctx.MemoryPeak())
	}
	_ = ctx.Free() //grblint:ignore infocheck -- request teardown; the response is already decided
	if tn.running.Add(-1) == 0 && s.gov != nil {
		s.gov.active.Add(-1)
	}
	s.inflight.Add(-1)
	if s.gov != nil {
		obsv.ServeSet("govern.live_bytes", s.gov.live())
	}
}

// Shutdown drains the server gracefully: stop accepting new requests
// immediately, give in-flight requests most of the timeout to finish on
// their own, then Cancel the root context — every request context descends
// from it, so kernels observe the flag at their next range checkpoint and
// park Canceled on the output — and wait out the remainder. A nil return
// means every request completed or was canceled to completion; an error
// means work was still in flight at the deadline (the process may exit
// anyway, but should log it).
func (s *Server) Shutdown(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	s.beginDrain()
	deadline := time.Now().Add(timeout)
	// Phase 1 — natural drain: three quarters of the budget for requests to
	// finish at their own pace.
	natural := time.Now().Add(timeout * 3 / 4)
	for time.Now().Before(natural) {
		if s.inflight.Load() == 0 {
			obsv.ServeSet("drain.state", 2)
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	// Phase 2 — cancel stragglers and wait for them to unwind.
	if s.root != nil {
		_ = s.root.Cancel() //grblint:ignore infocheck -- the root is created WithCancel; Cancel cannot fail
	}
	obsv.ServeAdd("drain.canceled", 1)
	for time.Now().Before(deadline) {
		if s.inflight.Load() == 0 {
			obsv.ServeSet("drain.state", 2)
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	n := s.inflight.Load()
	obsv.ServeSet("drain.state", 3)
	return fmt.Errorf("shutdown: %d request(s) still in flight after %v", n, timeout)
}

// SetGraphs atomically replaces the served graph set. In-flight requests
// keep the snapshot they resolved at admission; new requests see the new
// set. The previous graphs are not freed here — their snapshots may still
// back running queries.
func (s *Server) SetGraphs(graphs []*Graph) {
	m := make(map[string]*Graph, len(graphs))
	for _, g := range graphs {
		m[g.Name] = g
	}
	s.graphs.Store(&m)
}

// Reload hot-swaps the graph set from a loader function. The swap is atomic
// and all-or-nothing: if the loader fails or returns no graphs, the previous
// set stays in place (rollback is "never left it") and the error is
// returned.
func (s *Server) Reload(load func() ([]*Graph, error)) error {
	graphs, err := load()
	if err != nil {
		obsv.ServeAdd("reload.fail", 1)
		return fmt.Errorf("reload: %w", err)
	}
	if len(graphs) == 0 {
		obsv.ServeAdd("reload.fail", 1)
		return fmt.Errorf("reload: loader returned no graphs; keeping current set")
	}
	s.SetGraphs(graphs)
	obsv.ServeAdd("reload.ok", 1)
	return nil
}
