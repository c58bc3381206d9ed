package serve

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	grb "github.com/grblas/grb"
	"github.com/grblas/grb/internal/obsv"
)

// outcome classifies one admitted request for the tenant's admission state.
type outcome int

const (
	// outcomeOK: the request succeeded; its latency feeds the AIMD window.
	outcomeOK outcome = iota
	// outcomeOverload: the request hit a capacity signal — blown deadline
	// (408) or memory exhaustion (507). Halves the AIMD window and counts
	// against the circuit.
	outcomeOverload
	// outcomeFailure: an execution failure that is not a capacity signal
	// (recovered panic, internal error). Counts against the circuit but does
	// not halve the window.
	outcomeFailure
	// outcomeNeutral: a client error (4xx), or a request admitted and then
	// shed before it ran. Frees its slot, and a half-open probe's, and feeds
	// nothing else.
	outcomeNeutral
)

// breakerState is the classic three-state circuit: closed (requests flow),
// open (requests rejected for the cooldown), half-open (one probe in flight
// decides whether to close again).
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// String returns the state name used in shed bodies and gauges.
func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "breaker(?)"
}

const (
	// breakerCooldown is how long an open circuit rejects before it lets
	// one half-open probe through.
	breakerCooldown = time.Second
	// halveEvery is the minimum spacing between two halvings of the window,
	// so one burst of overloads does not collapse it to 1 at once.
	halveEvery = 500 * time.Millisecond
	// defaultP99Target is the latency target when the config sets none.
	defaultP99Target = 250 * time.Millisecond
)

// tenant is the runtime state for one tenant name, created once on first
// sight: its config, its §IV context — the parent of its request contexts,
// whose MemoryUsed is the tenant's live memory — and its admission state.
//
// The admission state is one state machine under one mutex, fed by one
// outcome per admitted request (release):
//   - an AIMD concurrency window (when MaxInFlight > 0): additive increase
//     while the observed p99 stays under P99Target, multiplicative decrease
//     on overload, between 1 and MaxInFlight, in front of a deadline-aware
//     bounded FIFO queue of MaxQueue waiters;
//   - a circuit breaker (when BreakerThreshold > 0): it opens after
//     BreakerThreshold consecutive execution failures (blown deadlines,
//     memory exhaustion, recovered panics — never client errors or sheds),
//     rejects everything for breakerCooldown, then lets exactly one probe
//     through, whose outcome closes the circuit or re-opens it;
//   - the memory governor's estimate of each op's peak.
type tenant struct {
	name    string
	cfg     TenantConfig
	ctx     *grb.Context // nil when the server has no root context
	running atomic.Int64 // requests holding a request context

	mu sync.Mutex

	window    float64 // current concurrency allowance, [1, MaxInFlight]
	inflight  int
	queue     []chan struct{} // waiters, FIFO; a waiter receives its slot on its channel
	lastHalve time.Time
	lats      [64]float64 // ring of recent success latencies, ms
	nLat      int         // total recorded (ring fill level = min(nLat, len))
	good      int         // on-target successes since the last increase

	state    breakerState
	fails    int // consecutive execution failures while closed
	openedAt time.Time
	probing  bool // a half-open probe is in flight

	est map[string]float64 // op -> EWMA of request MemoryPeak
}

// limiterSnapshot and breakerSnapshot are the state exposed in shed bodies.
type limiterSnapshot struct {
	Window   int `json:"window"`
	Inflight int `json:"inflight"`
	Queued   int `json:"queued"`
}

type breakerSnapshot struct {
	State            string `json:"state"`
	ConsecutiveFails int    `json:"consecutive_fails"`
}

// newTenant builds a tenant's admission state; the caller sets ctx.
func newTenant(name string, cfg TenantConfig) *tenant {
	if cfg.P99Target <= 0 {
		cfg.P99Target = defaultP99Target
	}
	t := &tenant{name: name, cfg: cfg, window: float64(cfg.MaxInFlight), est: make(map[string]float64)}
	if cfg.MaxInFlight > 0 {
		// Start wide open: halve on evidence, not on guesses.
		obsv.ServeSet("limiter.window."+name, int64(cfg.MaxInFlight))
	}
	if cfg.BreakerThreshold > 0 {
		obsv.ServeSet("breaker.state."+name, int64(breakerClosed))
	}
	return t
}

// admitResult says how an admission attempt ended.
type admitResult int

const (
	admitGranted admitResult = iota
	admitShedBreaker
	admitShedQueueFull
	admitShedDeadline // queued, but the request's deadline expired before a slot freed
	admitShedDrain    // the server began draining while queued
	admitShedGone     // the client disconnected while queued
)

// admit asks the circuit, then the window, whether a request that arrived
// at now may run: it admits it, queues it (FIFO, bounded) until a slot
// frees, or sheds it; for a breaker shed the duration is the Retry-After.
// deadline is the request's absolute deadline (zero = none): a queued
// request whose deadline passes is dropped without ever executing, so queue
// wait is charged against the request's time budget. gone fires when the
// client disconnects, drain when the server stops accepting. A granted
// request must call release exactly once; a shed one must not.
func (t *tenant) admit(now, deadline time.Time, gone, drain <-chan struct{}) (admitResult, time.Duration) {
	t.mu.Lock()
	probe := false
	if t.cfg.BreakerThreshold > 0 {
		switch t.state {
		case breakerOpen:
			if wait := breakerCooldown - now.Sub(t.openedAt); wait > 0 {
				t.mu.Unlock()
				return admitShedBreaker, wait
			}
			t.setStateLocked(breakerHalfOpen)
			t.probing, probe = true, true
		case breakerHalfOpen:
			if t.probing {
				t.mu.Unlock()
				return admitShedBreaker, breakerCooldown
			}
			t.probing, probe = true, true
		}
	}
	if t.cfg.MaxInFlight == 0 || t.inflight < int(t.window) {
		if t.cfg.MaxInFlight > 0 {
			t.inflight++
		}
		t.mu.Unlock()
		return admitGranted, 0
	}
	if len(t.queue) >= t.cfg.MaxQueue {
		if probe {
			t.probing = false // the probe ran nothing; let the next one through
		}
		t.mu.Unlock()
		obsv.ServeAdd("limiter.sheds."+t.name, 1)
		return admitShedQueueFull, 0
	}
	w := make(chan struct{}, 1)
	t.queue = append(t.queue, w)
	t.mu.Unlock()

	var expired <-chan time.Time
	if !deadline.IsZero() {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		expired = timer.C
	}
	var res admitResult
	select {
	case <-w:
		// The releaser handed its slot over; inflight already accounts for us.
		return admitGranted, 0
	case <-expired:
		obsv.ServeAdd("queue.dropped_deadline."+t.name, 1)
		res = admitShedDeadline
	case <-gone:
		res = admitShedGone
	case <-drain:
		res = admitShedDrain
	}
	// Leave the queue. A waiter no longer in it was handed a slot that raced
	// in before the lock: pass that slot on so it is not lost.
	t.mu.Lock()
	if i := slices.Index(t.queue, w); i >= 0 {
		t.queue = slices.Delete(t.queue, i, i+1)
	} else {
		t.releaseSlotLocked()
	}
	if probe {
		t.probing = false
	}
	t.mu.Unlock()
	return res, 0
}

// releaseSlotLocked frees one slot or hands it to the first waiter,
// preserving FIFO order. Callers hold t.mu.
func (t *tenant) releaseSlotLocked() {
	// Unless the window shrank below the in-flight count, hand the slot over
	// without decrementing: the waiter inherits this request's admission.
	if len(t.queue) > 0 && t.inflight <= int(t.window) {
		t.queue[0] <- struct{}{}
		t.queue = t.queue[1:]
		return
	}
	t.inflight--
}

// release reports one admitted request's outcome, once: it frees (or hands
// over) the request's slot and moves the window and the circuit.
func (t *tenant) release(o outcome, latency time.Duration, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cfg.MaxInFlight > 0 {
		t.releaseSlotLocked()
		t.adaptLocked(o, latency, now)
	}
	if t.cfg.BreakerThreshold > 0 {
		t.noteLocked(o, now)
	}
}

// adaptLocked is the AIMD law. Callers hold t.mu.
func (t *tenant) adaptLocked(o outcome, latency time.Duration, now time.Time) {
	switch o {
	case outcomeOK:
		t.lats[t.nLat%len(t.lats)] = float64(latency) / float64(time.Millisecond)
		t.nLat++
		if t.p99Locked() > float64(t.cfg.P99Target)/float64(time.Millisecond) {
			t.good = 0
			return
		}
		// Additive increase: one extra slot per window's worth of on-target
		// completions — roughly +1 per RTT at saturation.
		if t.good++; t.good >= int(t.window) {
			t.good = 0
			if t.window+1 <= float64(t.cfg.MaxInFlight) {
				t.window++
				obsv.ServeSet("limiter.window."+t.name, int64(t.window))
			}
		}
	case outcomeOverload:
		// Multiplicative decrease, rate-limited by halveEvery.
		if now.Sub(t.lastHalve) >= halveEvery {
			t.lastHalve, t.good = now, 0
			t.window = max(t.window/2, 1)
			obsv.ServeSet("limiter.window."+t.name, int64(t.window))
		}
	case outcomeFailure, outcomeNeutral:
		// No window signal.
	}
}

// p99Locked is the 99th percentile of the recent-success latency ring,
// sorted in a copy on the stack. Callers hold t.mu.
func (t *tenant) p99Locked() float64 {
	n := min(t.nLat, len(t.lats))
	if n == 0 {
		return 0
	}
	tmp := t.lats
	slices.Sort(tmp[:n])
	return tmp[min(max(int(0.99*float64(n)+0.5)-1, 0), n-1)]
}

// noteLocked moves the circuit on one admitted request's outcome. Callers
// hold t.mu.
func (t *tenant) noteLocked(o outcome, now time.Time) {
	failed := o == outcomeOverload || o == outcomeFailure
	switch t.state {
	case breakerClosed:
		if o == outcomeNeutral {
			return
		}
		if !failed {
			t.fails = 0
			return
		}
		if t.fails++; t.fails >= t.cfg.BreakerThreshold {
			t.openLocked(now)
		}
	case breakerHalfOpen:
		// Whatever reports while half-open answers for the probe. One that
		// ran nothing — a client error, or shed after admission — frees
		// the probe slot and leaves the circuit half-open.
		t.probing = false
		switch {
		case o == outcomeNeutral:
		case failed:
			t.fails = t.cfg.BreakerThreshold
			t.openLocked(now)
		default:
			t.fails = 0
			t.setStateLocked(breakerClosed)
		}
	case breakerOpen:
		// A request admitted before the circuit opened finished late; its
		// outcome carries no new information about the open circuit.
	}
}

// openLocked opens the circuit at now. Callers hold t.mu.
func (t *tenant) openLocked(now time.Time) {
	t.openedAt = now
	t.setStateLocked(breakerOpen)
	obsv.ServeAdd("breaker.opened."+t.name, 1)
}

// setStateLocked transitions the circuit and mirrors it to the gauge.
// Callers hold t.mu.
func (t *tenant) setStateLocked(s breakerState) {
	t.state = s
	obsv.ServeSet("breaker.state."+t.name, int64(s))
}

// learn folds a finished request's memory peak into op's estimate: the
// first peak seeds it, later ones blend in at 0.2.
func (t *tenant) learn(op string, peak int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, seen := t.est[op]; seen {
		t.est[op] = 0.8*old + 0.2*float64(peak)
	} else {
		t.est[op] = float64(peak)
	}
}

// estimate returns op's learned peak-memory estimate.
func (t *tenant) estimate(op string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(t.est[op])
}

// snapshot returns the window's and the circuit's state for shed bodies;
// each is nil when the tenant does not configure it.
func (t *tenant) snapshot() (*limiterSnapshot, *breakerSnapshot) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var l *limiterSnapshot
	var b *breakerSnapshot
	if t.cfg.MaxInFlight > 0 {
		l = &limiterSnapshot{Window: int(t.window), Inflight: t.inflight, Queued: len(t.queue)}
	}
	if t.cfg.BreakerThreshold > 0 {
		b = &breakerSnapshot{State: t.state.String(), ConsecutiveFails: t.fails}
	}
	return l, b
}
