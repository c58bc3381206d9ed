package serve

import (
	"sort"
	"sync"
	"time"

	"github.com/grblas/grb/internal/obsv"
)

// outcome classifies one completed request for the adaptive control loops.
type outcome int

const (
	// outcomeOK: the request succeeded; its latency feeds the AIMD window.
	outcomeOK outcome = iota
	// outcomeOverload: the request hit a capacity signal — blown deadline
	// (408) or memory exhaustion (507). Halves the AIMD window and counts
	// against the circuit breaker.
	outcomeOverload
	// outcomeFailure: an execution failure that is not a capacity signal
	// (recovered panic, internal error). Counts against the breaker but does
	// not halve the window.
	outcomeFailure
	// outcomeNeutral: client-side errors (4xx) and abandoned requests.
	// Feeds neither loop.
	outcomeNeutral
)

// aimdLimiter is one tenant's adaptive concurrency controller: an AIMD
// window (additive increase while the observed p99 stays under target,
// multiplicative decrease on overload signals) in front of a deadline-aware
// bounded FIFO queue. The static MaxInFlight of earlier revisions survives
// as the window's ceiling; the window itself breathes between 1 and that
// ceiling on live latency and overload measurements.
type aimdLimiter struct {
	mu       sync.Mutex
	window   float64 // current concurrency allowance, [minW, maxW]
	minW     float64
	maxW     float64
	inflight int
	queue    []*waiter
	maxQueue int

	target    time.Duration // p99 latency target for additive increase
	cooldown  time.Duration // minimum spacing between halvings
	lastHalve time.Time

	lats [64]float64 // ring of recent success latencies, ms
	nLat int         // total recorded (ring fill level = min(nLat, len))
	good int         // successes since the last window adjustment

	tenant string // obsv gauge labeling
}

// waiter is one queued admission: granted receives the slot handover;
// abandoned marks a waiter that timed out or disconnected so release skips
// it without losing the slot.
type waiter struct {
	granted   chan struct{}
	abandoned bool
}

// limiterSnapshot is the state exposed in shed bodies and /metrics gauges.
type limiterSnapshot struct {
	Window   int `json:"window"`
	Inflight int `json:"inflight"`
	Queued   int `json:"queued"`
}

// newAIMDLimiter builds a limiter for one tenant. ceiling <= 0 means the
// tenant is unlimited and the caller should not construct a limiter at all.
func newAIMDLimiter(tenant string, ceiling, minW, maxQueue int, target, cooldown time.Duration) *aimdLimiter {
	if minW < 1 {
		minW = 1
	}
	if minW > ceiling {
		minW = ceiling
	}
	if target <= 0 {
		target = 250 * time.Millisecond
	}
	if cooldown <= 0 {
		cooldown = 500 * time.Millisecond
	}
	l := &aimdLimiter{
		window:   float64(ceiling), // start wide open: halve on evidence, not on guesses
		minW:     float64(minW),
		maxW:     float64(ceiling),
		maxQueue: maxQueue,
		target:   target,
		cooldown: cooldown,
		tenant:   tenant,
	}
	obsv.ServeSet("limiter.window."+tenant, int64(l.window))
	return l
}

// admitResult says how an admission attempt ended.
type admitResult int

const (
	admitGranted admitResult = iota
	admitShedQueueFull
	admitShedDeadline // queued, but the request's deadline expired before a slot freed
	admitShedDrain    // the server began draining while queued
	admitShedGone     // the client disconnected while queued
)

// tryAcquire is the non-blocking admission probe: a slot or nothing. The
// selfcheck and the tests hold a tenant's slot with it to provoke a 429.
func (l *aimdLimiter) tryAcquire() bool {
	if l == nil {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inflight >= int(l.window) {
		return false
	}
	l.inflight++
	return true
}

// acquire admits the request now, queues it (FIFO, bounded) until a slot
// frees, or sheds it. deadline is the request's absolute deadline (zero =
// none): a queued request whose deadline passes is dropped without ever
// executing, and because the deadline was anchored at arrival, queue wait is
// charged against the request's time budget. gone fires when the client
// disconnects; drain fires when the server stops accepting.
func (l *aimdLimiter) acquire(deadline time.Time, gone <-chan struct{}, drain <-chan struct{}) (admitResult, time.Duration) {
	if l == nil {
		return admitGranted, 0
	}
	l.mu.Lock()
	if l.inflight < int(l.window) {
		l.inflight++
		l.mu.Unlock()
		return admitGranted, 0
	}
	if len(l.queue) >= l.maxQueue {
		l.mu.Unlock()
		obsv.ServeAdd("limiter.sheds."+l.tenant, 1)
		return admitShedQueueFull, 0
	}
	w := &waiter{granted: make(chan struct{}, 1)}
	l.queue = append(l.queue, w)
	l.mu.Unlock()

	var expired <-chan time.Time
	var timer *time.Timer
	if !deadline.IsZero() {
		timer = time.NewTimer(time.Until(deadline))
		expired = timer.C
		defer timer.Stop()
	}
	start := time.Now()
	select {
	case <-w.granted:
		// The releaser handed its slot over; inflight already accounts for us.
		return admitGranted, time.Since(start)
	case <-expired:
		l.abandon(w)
		obsv.ServeAdd("queue.dropped_deadline."+l.tenant, 1)
		return admitShedDeadline, time.Since(start)
	case <-gone:
		l.abandon(w)
		return admitShedGone, time.Since(start)
	case <-drain:
		l.abandon(w)
		return admitShedDrain, time.Since(start)
	}
}

// abandon marks a queued waiter dead. If a grant raced in before the mark,
// the slot is pushed back so it is not lost.
func (l *aimdLimiter) abandon(w *waiter) {
	l.mu.Lock()
	w.abandoned = true
	select {
	case <-w.granted:
		// Lost the race: a slot was already handed to us. Return it.
		l.releaseSlotLocked()
	default:
	}
	l.mu.Unlock()
}

// releaseSlotLocked frees one slot or hands it to the first live waiter,
// preserving FIFO order. Callers hold l.mu.
func (l *aimdLimiter) releaseSlotLocked() {
	for len(l.queue) > 0 {
		w := l.queue[0]
		l.queue = l.queue[1:]
		if w.abandoned {
			continue
		}
		if l.inflight <= int(l.window) {
			// Hand the slot over without ever decrementing: the waiter
			// inherits this request's admission.
			w.granted <- struct{}{}
			return
		}
		// The window shrank below the in-flight count: shed the handover,
		// re-queue the waiter at the front, and shrink inflight instead.
		l.queue = append([]*waiter{w}, l.queue...)
		break
	}
	l.inflight--
}

// release completes one admitted request: frees (or hands over) the slot and
// feeds the adaptive loop with the request's outcome and latency.
func (l *aimdLimiter) release(o outcome, latency time.Duration) {
	l.releaseAt(o, latency, time.Now())
}

// releaseAt is release with an explicit clock, for deterministic tests.
func (l *aimdLimiter) releaseAt(o outcome, latency time.Duration, now time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.releaseSlotLocked()
	switch o {
	case outcomeOK:
		ms := float64(latency) / float64(time.Millisecond)
		l.lats[l.nLat%len(l.lats)] = ms
		l.nLat++
		if l.p99Locked() <= float64(l.target)/float64(time.Millisecond) {
			l.good++
			// Additive increase: one extra slot per window's worth of
			// on-target completions — roughly +1 per RTT at saturation.
			if need := int(l.window); l.good >= need {
				l.good = 0
				if l.window+1 <= l.maxW {
					l.window++
					obsv.ServeSet("limiter.window."+l.tenant, int64(l.window))
				}
			}
		} else {
			l.good = 0
		}
	case outcomeOverload:
		// Multiplicative decrease, rate-limited so one burst of deadline
		// failures does not collapse the window to the floor instantly.
		if now.Sub(l.lastHalve) >= l.cooldown {
			l.lastHalve = now
			l.good = 0
			l.window = l.window / 2
			if l.window < l.minW {
				l.window = l.minW
			}
			obsv.ServeSet("limiter.window."+l.tenant, int64(l.window))
		}
	case outcomeFailure, outcomeNeutral:
		// No window signal.
	}
}

// p99Locked estimates the 99th percentile of the recent-success latency ring.
// Callers hold l.mu.
func (l *aimdLimiter) p99Locked() float64 {
	n := l.nLat
	if n > len(l.lats) {
		n = len(l.lats)
	}
	if n == 0 {
		return 0
	}
	tmp := make([]float64, n)
	copy(tmp, l.lats[:n])
	sort.Float64s(tmp)
	idx := int(0.99*float64(n)+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return tmp[idx]
}

// snapshot returns the limiter's instantaneous state for shed bodies.
func (l *aimdLimiter) snapshot() *limiterSnapshot {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return &limiterSnapshot{Window: int(l.window), Inflight: l.inflight, Queued: len(l.queue)}
}
