package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/grblas/grb/internal/faults"
	"github.com/grblas/grb/internal/obsv"
)

// tryAdmit is the non-blocking admission probe: with the window full and no
// queue it returns the shed at once. The tests hold a tenant's slot with it.
func tryAdmit(tn *tenant, now time.Time) admitResult {
	res, _ := tn.admit(now, time.Time{}, nil, nil)
	return res
}

// window reads the tenant's window snapshot.
func window(tn *tenant) limiterSnapshot {
	l, _ := tn.snapshot()
	return *l
}

// circuit reads the tenant's circuit snapshot.
func circuit(tn *tenant) breakerSnapshot {
	_, b := tn.snapshot()
	return *b
}

// TestAIMDLimiterWindow pins the control law with an explicit clock:
// multiplicative decrease on overload (rate-limited by halveEvery),
// additive increase on on-target completions, both clamped to [1, max],
// and no increase while the p99 is over P99Target.
func TestAIMDLimiterWindow(t *testing.T) {
	obsv.ResetServe()
	t.Cleanup(obsv.ResetServe)
	tn := newTenant("aimd", TenantConfig{MaxInFlight: 8, P99Target: 50 * time.Millisecond})
	base := time.Now()
	for i := 0; i < 8; i++ {
		if tryAdmit(tn, base) != admitGranted {
			t.Fatalf("slot %d refused under full window", i)
		}
	}
	if tryAdmit(tn, base) == admitGranted {
		t.Fatal("9th slot granted over the ceiling")
	}

	tn.release(outcomeOverload, 0, base)
	if w := window(tn).Window; w != 4 {
		t.Fatalf("after 1st overload: window %d, want 4", w)
	}
	// Within halveEvery a second overload must not halve again.
	tn.release(outcomeOverload, 0, base.Add(10*time.Millisecond))
	if w := window(tn).Window; w != 4 {
		t.Fatalf("overload inside cooldown: window %d, want 4", w)
	}
	tn.release(outcomeOverload, 0, base.Add(halveEvery+time.Millisecond))
	tn.release(outcomeOverload, 0, base.Add(2*halveEvery+2*time.Millisecond))
	if w := window(tn).Window; w != 1 {
		t.Fatalf("after repeated overloads: window %d, want floor 1", w)
	}
	if g := obsv.ServeSnapshot()["limiter.window.aimd"]; g != 1 {
		t.Fatalf("window gauge = %d, want 1", g)
	}
	// Drain the remaining held slots without feeding the loop.
	for window(tn).Inflight > 0 {
		tn.release(outcomeNeutral, 0, base)
	}

	// Additive regrowth: on-target completions climb the window back to the
	// ceiling — one extra slot per window's worth of good finishes — and
	// never past it.
	for i := 0; i < 40; i++ {
		if tryAdmit(tn, base) != admitGranted {
			t.Fatalf("regrow iter %d: slot refused with empty inflight", i)
		}
		tn.release(outcomeOK, time.Millisecond, base.Add(time.Second))
	}
	if w := window(tn).Window; w != 8 {
		t.Fatalf("after regrowth: window %d, want ceiling 8", w)
	}

	// Completions over the target hold the window where it is: 100 ms is
	// on target for the default 250 ms, not for this tenant's 50 ms.
	slow := newTenant("slow", TenantConfig{MaxInFlight: 4, P99Target: 50 * time.Millisecond})
	slow.release(outcomeOverload, 0, base)
	for i := 0; i < 20; i++ {
		tryAdmit(slow, base)
		slow.release(outcomeOK, 100*time.Millisecond, base)
	}
	if w := window(slow).Window; w != 2 {
		t.Fatalf("over-target completions: window %d, want 2", w)
	}
}

// TestAIMDQueueHandover covers the bounded FIFO queue: a full-window arrival
// waits, the releasing request hands its slot over without a decrement race,
// and arrivals past the queue bound shed immediately.
func TestAIMDQueueHandover(t *testing.T) {
	obsv.ResetServe()
	t.Cleanup(obsv.ResetServe)
	tn := newTenant("queue", TenantConfig{MaxInFlight: 1, MaxQueue: 2})
	now := time.Now()
	if tryAdmit(tn, now) != admitGranted {
		t.Fatal("first slot refused")
	}
	got := make(chan admitResult, 2)
	for queued := 1; queued <= 2; queued++ {
		go func() { got <- tryAdmit(tn, now) }()
		waitFor(t, "waiter queued", func() bool { return window(tn).Queued == queued })
	}
	if res := tryAdmit(tn, now); res != admitShedQueueFull {
		t.Fatalf("over-bound arrival: %v, want admitShedQueueFull", res)
	}
	// Each release hands the slot to the next waiter in turn.
	for i := 0; i < 2; i++ {
		tn.release(outcomeOK, time.Millisecond, now)
		if res := <-got; res != admitGranted {
			t.Fatalf("handover %d: %v", i, res)
		}
	}
	tn.release(outcomeOK, time.Millisecond, now)
	if snap := window(tn); snap.Inflight != 0 || snap.Queued != 0 {
		t.Fatalf("after drain: %+v", snap)
	}
}

// TestAIMDQueueDeadline pins the deadline-aware drop: a queued request whose
// deadline expires is shed without ever holding a slot, and the abandoned
// waiter does not swallow the next handover.
func TestAIMDQueueDeadline(t *testing.T) {
	obsv.ResetServe()
	t.Cleanup(obsv.ResetServe)
	tn := newTenant("qd", TenantConfig{MaxInFlight: 1, MaxQueue: 4})
	start := time.Now()
	if tryAdmit(tn, start) != admitGranted {
		t.Fatal("first slot refused")
	}
	if res, _ := tn.admit(start, start.Add(20*time.Millisecond), nil, nil); res != admitShedDeadline {
		t.Fatalf("expired waiter: %v, want admitShedDeadline", res)
	}
	if waited := time.Since(start); waited < 15*time.Millisecond {
		t.Fatalf("queue wait %v did not consume the deadline", waited)
	}
	if got := obsv.ServeSnapshot()["queue.dropped_deadline.qd"]; got != 1 {
		t.Fatalf("dropped_deadline counter = %d, want 1", got)
	}
	// The dropped waiter left the queue: release frees the slot outright.
	tn.release(outcomeOK, time.Millisecond, time.Now())
	if snap := window(tn); snap.Inflight != 0 || snap.Queued != 0 {
		t.Fatalf("after release past abandoned waiter: %+v", snap)
	}
	if tryAdmit(tn, time.Now()) != admitGranted {
		t.Fatal("slot lost to an abandoned waiter")
	}
}

// TestBreakerStateMachine walks the circuit with a fixed clock: closed under
// scattered failures, open at the consecutive-failure threshold, half-open
// single probe after the cooldown, re-open on probe failure, closed on probe
// success.
func TestBreakerStateMachine(t *testing.T) {
	obsv.ResetServe()
	t.Cleanup(obsv.ResetServe)
	now := time.Now()
	tn := newTenant("cb", TenantConfig{BreakerThreshold: 3})

	// Scattered failures never open the circuit: a success resets the run.
	for _, o := range []outcome{outcomeFailure, outcomeFailure, outcomeOK, outcomeFailure} {
		tn.release(o, 0, now)
	}
	if tryAdmit(tn, now) != admitGranted {
		t.Fatal("circuit opened below threshold")
	}
	// Three consecutive failures open it.
	tn.release(outcomeFailure, 0, now)
	tn.release(outcomeFailure, 0, now)
	if res, retry := tn.admit(now, time.Time{}, nil, nil); res != admitShedBreaker || retry <= 0 {
		t.Fatalf("circuit not open at threshold (res=%v retry=%v)", res, retry)
	}
	if got := obsv.ServeSnapshot()["breaker.opened.cb"]; got != 1 {
		t.Fatalf("opened counter = %d, want 1", got)
	}
	// After the cooldown exactly one probe passes; a second is rejected.
	probe := now.Add(breakerCooldown + 10*time.Millisecond)
	if tryAdmit(tn, probe) != admitGranted {
		t.Fatal("half-open probe rejected")
	}
	if tryAdmit(tn, probe) != admitShedBreaker {
		t.Fatal("second concurrent probe allowed")
	}
	// Probe failure re-opens; probe success closes.
	tn.release(outcomeOverload, 0, probe)
	if tryAdmit(tn, probe.Add(10*time.Millisecond)) != admitShedBreaker {
		t.Fatal("circuit closed despite failed probe")
	}
	reprobe := probe.Add(breakerCooldown + 20*time.Millisecond)
	if tryAdmit(tn, reprobe) != admitGranted {
		t.Fatal("second probe rejected after cooldown")
	}
	tn.release(outcomeOK, 0, reprobe)
	if tryAdmit(tn, reprobe) != admitGranted {
		t.Fatal("circuit not closed after successful probe")
	}
	if snap := circuit(tn); snap.State != "closed" || snap.ConsecutiveFails != 0 {
		t.Fatalf("final snapshot: %+v", snap)
	}
}

// TestHalfOpenProbeThatRanNothing pins what frees a half-open probe besides
// a success or a failure: a probe shed by the full window after the circuit
// let it through, one dropped from the queue at its deadline, and one that
// ends in a client error. Each leaves the circuit half-open with the probe
// slot free, so the next request probes. A probe slot left taken would
// refuse every later request of the tenant with 503, for good.
func TestHalfOpenProbeThatRanNothing(t *testing.T) {
	obsv.ResetServe()
	t.Cleanup(obsv.ResetServe)
	now := time.Now()
	probe := now.Add(breakerCooldown + time.Millisecond)
	// opened has two requests in flight, one of which overloads: that opens
	// the circuit and halves the window to 1, which the other fills.
	opened := func(maxQueue int) *tenant {
		tn := newTenant("wedge", TenantConfig{MaxInFlight: 2, MaxQueue: maxQueue, BreakerThreshold: 1})
		tryAdmit(tn, now)
		tryAdmit(tn, now)
		tn.release(outcomeOverload, 0, now)
		return tn
	}
	tn := opened(0)
	for i := 0; i < 2; i++ {
		if res := tryAdmit(tn, probe); res != admitShedQueueFull {
			t.Fatalf("probe %d into a full window: %v, want admitShedQueueFull", i, res)
		}
	}
	tn = opened(1)
	for i := 0; i < 2; i++ {
		if res, _ := tn.admit(probe, time.Now().Add(5*time.Millisecond), nil, nil); res != admitShedDeadline {
			t.Fatalf("queued probe %d: %v, want admitShedDeadline", i, res)
		}
	}
	if snap := circuit(tn); snap.State != "half-open" {
		t.Fatalf("after shed probes: %+v, want half-open", snap)
	}

	tn = opened(0)
	tn.release(outcomeNeutral, 0, now) // the request from before the circuit opened
	if tryAdmit(tn, probe) != admitGranted {
		t.Fatal("probe refused")
	}
	tn.release(outcomeNeutral, 0, probe)
	if snap := circuit(tn); snap.State != "half-open" {
		t.Fatalf("after a client-error probe: %+v, want half-open", snap)
	}
	// The next request is the probe, and its success closes the circuit.
	if tryAdmit(tn, probe) != admitGranted {
		t.Fatal("probe refused after a client-error probe")
	}
	tn.release(outcomeOK, 0, probe)
	if snap := circuit(tn); snap.State != "closed" {
		t.Fatalf("after a successful probe: %+v, want closed", snap)
	}
}

// TestMemGovernorAdmission pins the governor against real tenant contexts:
// each tenant's context is a child of the server's root, budgeted with the
// high-water mark, and a request's context a child of its tenant's. The
// admission arithmetic runs on injected live readings: a global projection
// past high water sheds, the fair-share carve-out binds only above the soft
// watermark, and headroom admits. A departure folds its peak into the
// tenant's estimate for the op at 0.2.
func TestMemGovernorAdmission(t *testing.T) {
	initLib(t)
	obsv.ResetServe()
	t.Cleanup(obsv.ResetServe)
	s := NewServer(nil, Config{MemHighWater: 1000})
	named := func(name string) *tenant {
		return s.tenantFor(httptest.NewRequest(http.MethodGet, "/query/bfs?tenant="+name, nil), url.Values{"tenant": {name}})
	}
	tn := named("t")
	if tn.ctx == nil || tn.ctx.Parent() != s.root || tn.ctx.MemoryLimit() != 1000 {
		t.Fatalf("tenant context is not a child of the root budgeted at the high-water mark")
	}
	var live, mine int64
	s.gov.readings = func(got *tenant) (int64, int64) {
		if got != tn {
			t.Fatalf("readings for tenant %q, want %q", got.name, tn.name)
		}
		return live, mine
	}
	tn.est["triangles"] = 500

	live = 600
	if ok, reason := s.gov.admit(tn, "triangles"); ok || reason != "governor" {
		t.Fatalf("projection 1100/1000 admitted (ok=%v reason=%q)", ok, reason)
	}
	// Below the soft watermark the fair share does not bind.
	live, mine = 400, 400
	if ok, _ := s.gov.admit(tn, "triangles"); !ok {
		t.Fatal("request below soft watermark shed")
	}
	// Above it, a tenant over its slice is shed even though the global
	// projection fits. Two other tenants are in flight, so with the
	// requester the slice is highWater/3 = 333.
	others := []*tenant{named("other1"), named("other2")}
	for _, o := range others {
		s.enter(o)
	}
	live, mine = 750, 400
	tn.est["bfs"] = 100
	if ok, reason := s.gov.admit(tn, "bfs"); ok || reason != "fairshare" {
		t.Fatalf("over-slice tenant admitted (ok=%v reason=%q)", ok, reason)
	}
	if got := obsv.ServeSnapshot()["govern.fair_sheds"]; got != 1 {
		t.Fatalf("fair_sheds = %d, want 1", got)
	}
	live, mine = 750, 100
	if ok, _ := s.gov.admit(tn, "bfs"); !ok {
		t.Fatal("under-slice tenant shed")
	}

	// The estimator blends departures: EWMA of observed peaks. A request
	// context with no reservations reports peak 0, pulling a seeded
	// estimate down.
	ctx, err := tn.requestCtx(time.Now(), s.cfg.MemHighWater)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Parent() != tn.ctx {
		t.Fatal("request context is not a child of its tenant's")
	}
	s.enter(tn)
	s.leave(tn, "triangles", ctx)
	if est := tn.estimate("triangles"); est != 400 {
		t.Fatalf("EWMA after zero-peak departure: %d, want 0.8*500 = 400", est)
	}
	if got := s.gov.active.Load(); got != 2 {
		t.Fatalf("active tenants after the departure: %d, want the other 2", got)
	}
	for _, o := range others {
		ctx, err := o.requestCtx(time.Now(), s.cfg.MemHighWater)
		if err != nil {
			t.Fatal(err)
		}
		s.leave(o, "bfs", ctx)
	}
	if s.gov.active.Load() != 0 || s.InFlight() != 0 {
		t.Fatalf("after every departure: %d active tenants, %d in flight", s.gov.active.Load(), s.InFlight())
	}
}

// shedResp decodes one shed response body.
type shedResp struct {
	Error string `json:"error"`
	Shed  *struct {
		Reason       string `json:"reason"`
		RetryAfterMs int64  `json:"retry_after_ms"`
	} `json:"shed"`
}

// TestOverloadBattery floods a narrow tenant (window 2, queue 2) with slow
// queries under -race: every response must be 200 or a well-formed shed
// (429 + Retry-After + structured body), some load must actually shed, and
// the server must serve cleanly the moment the storm and faults stop.
func TestOverloadBattery(t *testing.T) {
	initLib(t)
	obsv.ResetServe()
	t.Cleanup(obsv.ResetServe)
	g := testGraph(t)
	cfg := Config{
		Default: TenantConfig{Deadline: 30 * time.Second},
		Tenants: map[string]TenantConfig{
			"burst": {Deadline: 5 * time.Second, MaxInFlight: 2, MaxQueue: 2},
		},
	}
	s := NewServer([]*Graph{g}, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	faults.Enable(faults.Rule{Site: "sparse.kernel.range", Action: faults.Delay, Delay: 2 * time.Millisecond})
	defer faults.Disable()

	const workers, iters = 8, 6
	var wg sync.WaitGroup
	var mu sync.Mutex
	counts := map[int]int{}
	errs := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				req, err := http.NewRequest("GET", fmt.Sprintf("%s/query/bfs?src=%d", ts.URL, (w+i)%4), nil)
				if err != nil {
					errs <- err
					return
				}
				req.Header.Set("X-Grb-Tenant", "burst")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errs <- err
					return
				}
				var body shedResp
				decErr := json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				mu.Lock()
				counts[resp.StatusCode]++
				mu.Unlock()
				switch resp.StatusCode {
				case http.StatusOK:
				case http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						errs <- fmt.Errorf("429 without Retry-After header")
						return
					}
					if decErr != nil || body.Shed == nil || body.Shed.Reason == "" || body.Shed.RetryAfterMs <= 0 {
						errs <- fmt.Errorf("429 shed body malformed: %+v (err %v)", body, decErr)
						return
					}
				default:
					errs <- fmt.Errorf("unexpected status %d under overload", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if counts[http.StatusTooManyRequests] == 0 {
		t.Fatalf("8-wide closed loop against window 2 + queue 2 never shed: %v", counts)
	}
	if counts[http.StatusOK] == 0 {
		t.Fatalf("storm starved every request: %v", counts)
	}
	faults.Disable()
	if status, body := get(t, ts.URL+"/query/bfs?src=0", "burst"); status != http.StatusOK {
		t.Fatalf("after storm: %d: %s", status, body)
	}
	if obsv.ServeSnapshot()["limiter.sheds.burst"] == 0 {
		t.Fatal("limiter shed counter never ticked")
	}
}

// TestBreakerHTTP drives the circuit over HTTP: repeated injected 507s open
// it (503 + shed body without executing), and after the cooldown a clean
// probe closes it again.
func TestBreakerHTTP(t *testing.T) {
	initLib(t)
	obsv.ResetServe()
	t.Cleanup(obsv.ResetServe)
	g := testGraph(t)
	cfg := Config{
		Default: TenantConfig{Deadline: 30 * time.Second},
		Tenants: map[string]TenantConfig{
			"flaky": {Deadline: 30 * time.Second, BreakerThreshold: 2},
		},
	}
	ts := httptest.NewServer(NewServer([]*Graph{g}, cfg).Handler())
	defer ts.Close()

	faults.Enable(faults.Rule{Site: "sparse.spgemm.spa", Action: faults.AllocFail})
	defer faults.Disable()
	for i := 0; i < 2; i++ {
		if status, body := get(t, ts.URL+"/query/triangles", "flaky"); status != http.StatusInsufficientStorage {
			t.Fatalf("injected failure %d: status %d: %s", i, status, body)
		}
	}
	status, body := get(t, ts.URL+"/query/triangles", "flaky")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("open circuit: status %d, want 503: %s", status, body)
	}
	var shed shedResp
	if err := json.Unmarshal(body, &shed); err != nil || shed.Shed == nil || shed.Shed.Reason != "breaker" {
		t.Fatalf("breaker shed body: %s (err %v)", body, err)
	}
	if got := obsv.ServeSnapshot()["breaker.state.flaky"]; got != int64(breakerOpen) {
		t.Fatalf("breaker gauge = %d, want open", got)
	}

	// Heal the backend; after the cooldown the half-open probe succeeds and
	// the tenant is back in business.
	faults.Disable()
	time.Sleep(breakerCooldown + 50*time.Millisecond)
	if status, body := get(t, ts.URL+"/query/triangles", "flaky"); status != http.StatusOK {
		t.Fatalf("probe after heal: status %d: %s", status, body)
	}
	if status, _ := get(t, ts.URL+"/query/triangles", "flaky"); status != http.StatusOK {
		t.Fatal("circuit did not close after successful probe")
	}
}

// TestBreakerHalfOpenClientErrorHTTP is the half-open wedge over HTTP: one
// injected 507 opens a threshold-1 circuit, and after the cooldown the probe
// is a bad request (400), which says nothing about the backend. The next
// query must probe again and close the circuit, not get 503 with the
// circuit half-open however long the tenant waits.
func TestBreakerHalfOpenClientErrorHTTP(t *testing.T) {
	initLib(t)
	obsv.ResetServe()
	t.Cleanup(obsv.ResetServe)
	g := testGraph(t)
	cfg := Config{
		Default: TenantConfig{Deadline: 30 * time.Second},
		Tenants: map[string]TenantConfig{"wedge": {Deadline: 30 * time.Second, BreakerThreshold: 1}},
	}
	ts := httptest.NewServer(NewServer([]*Graph{g}, cfg).Handler())
	defer ts.Close()

	faults.Enable(faults.Rule{Site: "sparse.spgemm.spa", Action: faults.AllocFail})
	defer faults.Disable()
	if status, body := get(t, ts.URL+"/query/triangles", "wedge"); status != http.StatusInsufficientStorage {
		t.Fatalf("injected failure: status %d: %s", status, body)
	}
	faults.Disable()
	if status, body := get(t, ts.URL+"/query/triangles", "wedge"); status != http.StatusServiceUnavailable {
		t.Fatalf("open circuit: status %d, want 503: %s", status, body)
	}
	time.Sleep(breakerCooldown + 50*time.Millisecond)
	if status, body := get(t, ts.URL+"/query/bfs?src=x", "wedge"); status != http.StatusBadRequest {
		t.Fatalf("client-error probe: status %d, want 400: %s", status, body)
	}
	for i := 0; i < 2; i++ {
		if status, body := get(t, ts.URL+"/query/triangles", "wedge"); status != http.StatusOK {
			t.Fatalf("query %d after a client-error probe: status %d, want 200: %s", i, status, body)
		}
	}
	if got := obsv.ServeSnapshot()["breaker.state.wedge"]; got != int64(breakerClosed) {
		t.Fatalf("breaker gauge = %d, want closed", got)
	}
}

// TestGovernorShedHTTP drives the governor's global shed end to end: a
// tenant whose per-request budget exceeds the high-water mark runs one
// query, whose peak becomes its estimate for the op, and the next such query
// projects past the mark and is shed before it runs — 429, Retry-After and
// the governor's state in the shed body — while another op, with no
// estimate yet, still runs.
func TestGovernorShedHTTP(t *testing.T) {
	initLib(t)
	obsv.ResetServe()
	t.Cleanup(obsv.ResetServe)
	g := testGraph(t)
	cfg := Config{
		Default:      TenantConfig{Deadline: 30 * time.Second, MemoryBytes: 1 << 30},
		MemHighWater: 64,
	}
	ts := httptest.NewServer(NewServer([]*Graph{g}, cfg).Handler())
	defer ts.Close()
	if status, body := get(t, ts.URL+"/query/triangles", "hungry"); status != http.StatusOK {
		t.Fatalf("first query: status %d: %s", status, body)
	}
	req, err := http.NewRequest("GET", ts.URL+"/query/triangles", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Grb-Tenant", "hungry")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Shed struct {
			Reason   string            `json:"reason"`
			Governor *governorSnapshot `json:"governor"`
		} `json:"shed"`
	}
	decErr := json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" || decErr != nil ||
		body.Shed.Reason != "governor" || body.Shed.Governor == nil || body.Shed.Governor.HighWater != 64 {
		t.Fatalf("second query: status %d, Retry-After %q, body %+v (err %v)", resp.StatusCode, resp.Header.Get("Retry-After"), body, decErr)
	}
	if obsv.ServeSnapshot()["govern.sheds"] != 1 {
		t.Fatalf("govern.sheds = %d, want 1", obsv.ServeSnapshot()["govern.sheds"])
	}
	if status, body := get(t, ts.URL+"/query/bfs?src=0", "hungry"); status != http.StatusOK {
		t.Fatalf("an op with no estimate: status %d: %s", status, body)
	}
}

// TestShutdownDrain covers the graceful path: draining rejects new requests
// with 503 while the in-flight slow query runs to a clean 200, and Shutdown
// returns nil once the last request leaves.
func TestShutdownDrain(t *testing.T) {
	initLib(t)
	obsv.ResetServe()
	t.Cleanup(obsv.ResetServe)
	g := testGraph(t)
	s := NewServer([]*Graph{g}, Config{Default: TenantConfig{Deadline: 30 * time.Second}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	faults.Enable(faults.Rule{Site: "sparse.kernel.range", Action: faults.Delay, Delay: 5 * time.Millisecond})
	defer faults.Disable()

	slow := make(chan error, 1)
	go func() {
		status, body := get(t, ts.URL+"/query/pagerank?maxiter=10", "slowpoke")
		if status != http.StatusOK {
			slow <- fmt.Errorf("in-flight query during drain: %d: %s", status, body)
			return
		}
		slow <- nil
	}()
	waitFor(t, "query in flight", func() bool { return s.InFlight() == 1 })

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(10 * time.Second) }()
	waitFor(t, "drain begun", s.Draining)

	status, body := get(t, ts.URL+"/query/bfs?src=0", "latecomer")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: %d, want 503: %s", status, body)
	}
	var shed shedResp
	if err := json.Unmarshal(body, &shed); err != nil || shed.Shed == nil || shed.Shed.Reason != "draining" {
		t.Fatalf("drain shed body: %s (err %v)", body, err)
	}
	if err := <-slow; err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if s.InFlight() != 0 {
		t.Fatalf("in-flight after shutdown: %d", s.InFlight())
	}
	if obsv.ServeSnapshot()["drain.state"] != 2 {
		t.Fatalf("drain.state = %d, want 2 (drained)", obsv.ServeSnapshot()["drain.state"])
	}
}

// TestShutdownCancelsStragglers covers the hard tail of the drain: a query
// that outlives the natural-drain phase is canceled at range granularity,
// surfaces 408 to its client, and Shutdown still returns nil within its
// timeout.
func TestShutdownCancelsStragglers(t *testing.T) {
	initLib(t)
	obsv.ResetServe()
	t.Cleanup(obsv.ResetServe)
	g := testGraph(t)
	s := NewServer([]*Graph{g}, Config{Default: TenantConfig{Deadline: 60 * time.Second}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// 25ms per range checkpoint across a full 400-iteration PageRank (tol=0
	// disables convergence): seconds of work, far past the natural-drain
	// phase below.
	faults.Enable(faults.Rule{Site: "sparse.kernel.range", Action: faults.Delay, Delay: 25 * time.Millisecond})
	defer faults.Disable()

	slow := make(chan int, 1)
	go func() {
		status, _ := get(t, ts.URL+"/query/pagerank?maxiter=400&tol=0", "straggler")
		slow <- status
	}()
	waitFor(t, "straggler in flight", func() bool { return s.InFlight() == 1 })

	if err := s.Shutdown(400 * time.Millisecond); err != nil {
		t.Fatalf("shutdown with straggler: %v", err)
	}
	if status := <-slow; status != http.StatusRequestTimeout {
		t.Fatalf("canceled straggler: status %d, want 408", status)
	}
	if got := obsv.ServeSnapshot()["drain.canceled"]; got != 1 {
		t.Fatalf("drain.canceled = %d, want 1", got)
	}
}

// TestPanicReleasesSlot pins the panic fence: an injected kernel panic maps
// to 500/GrB_PANIC for that request only, and — the regression this guards —
// the tenant's single concurrency slot is released so the next request runs.
func TestPanicReleasesSlot(t *testing.T) {
	initLib(t)
	obsv.ResetServe()
	t.Cleanup(obsv.ResetServe)
	g := testGraph(t)
	cfg := Config{
		Default: TenantConfig{Deadline: 30 * time.Second},
		Tenants: map[string]TenantConfig{
			"pan": {Deadline: 30 * time.Second, MaxInFlight: 1},
		},
	}
	s := NewServer([]*Graph{g}, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	faults.Enable(faults.Rule{Site: "sparse.spgemm.spa", Action: faults.Panic, Hit: 1})
	defer faults.Disable()
	status, body := get(t, ts.URL+"/query/triangles", "pan")
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking query: status %d: %s", status, body)
	}
	var eb struct {
		InfoName string `json:"info_name"`
	}
	if err := json.Unmarshal(body, &eb); err != nil || eb.InfoName != "GrB_PANIC" {
		t.Fatalf("panic body: %s (err %v)", body, err)
	}
	faults.Disable()
	// The slot must be free: with MaxInFlight=1 a leaked token would make
	// this 429, not 200.
	if status, body := get(t, ts.URL+"/query/triangles", "pan"); status != http.StatusOK {
		t.Fatalf("after panic: status %d (slot leaked?): %s", status, body)
	}
	if s.InFlight() != 0 {
		t.Fatalf("in-flight after panic: %d", s.InFlight())
	}
}

// TestReload covers the hot graph swap: the new set serves immediately, the
// old names 404, and a failing or empty loader leaves the serving set
// untouched.
func TestReload(t *testing.T) {
	initLib(t)
	obsv.ResetServe()
	t.Cleanup(obsv.ResetServe)
	g1 := testGraph(t)
	s := NewServer([]*Graph{g1}, Config{Default: TenantConfig{Deadline: 30 * time.Second}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if status, _ := get(t, ts.URL+"/query/triangles?graph=g", ""); status != http.StatusOK {
		t.Fatal("initial graph not served")
	}
	g2, err := ParseGenSpec("fresh=grid:10")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(func() ([]*Graph, error) { return []*Graph{g2}, nil }); err != nil {
		t.Fatalf("reload: %v", err)
	}
	if status, body := get(t, ts.URL+"/query/triangles?graph=fresh", ""); status != http.StatusOK {
		t.Fatalf("reloaded graph: %d: %s", status, body)
	}
	if status, _ := get(t, ts.URL+"/query/triangles?graph=g", ""); status != http.StatusNotFound {
		t.Fatal("stale graph name still resolves")
	}
	// Rollback: a failing loader must not disturb the serving set.
	if err := s.Reload(func() ([]*Graph, error) { return nil, fmt.Errorf("disk gone") }); err == nil {
		t.Fatal("failing loader reported success")
	}
	if err := s.Reload(func() ([]*Graph, error) { return nil, nil }); err == nil {
		t.Fatal("empty loader reported success")
	}
	if status, _ := get(t, ts.URL+"/query/triangles?graph=fresh", ""); status != http.StatusOK {
		t.Fatal("failed reload disturbed the serving set")
	}
	if obsv.ServeSnapshot()["reload.ok"] != 1 || obsv.ServeSnapshot()["reload.fail"] != 2 {
		t.Fatalf("reload counters: ok=%d fail=%d", obsv.ServeSnapshot()["reload.ok"], obsv.ServeSnapshot()["reload.fail"])
	}
}

// TestOverloadSoak is the soak battery behind the advisory CI soak tier:
// mixed tenants, armed delay + sampled allocation faults, a memory governor,
// breakers, and bounded queues, all hammered closed-loop under -race for the
// soak duration (default 1.5s locally; GRB_SOAK stretches it in CI). Every
// response must be a mapped status with well-formed shed metadata, and the
// server must come out of the storm healthy, drained to zero in-flight, and
// serving 200s.
func TestOverloadSoak(t *testing.T) {
	initLib(t)
	obsv.ResetServe()
	t.Cleanup(obsv.ResetServe)
	dur := 1500 * time.Millisecond
	if env := os.Getenv("GRB_SOAK"); env != "" {
		d, err := time.ParseDuration(env)
		if err != nil {
			t.Fatalf("GRB_SOAK=%q: %v", env, err)
		}
		dur = d
	}
	g := testGraph(t)
	cfg := Config{
		Default:      TenantConfig{Deadline: 10 * time.Second},
		MemHighWater: 64 << 20,
		Tenants: map[string]TenantConfig{
			"soak0": {Deadline: 2 * time.Second, MaxInFlight: 2, MaxQueue: 2, BreakerThreshold: 4},
			"soak1": {Deadline: 2 * time.Second, MaxInFlight: 3, MaxQueue: 1},
			"soak2": {Deadline: 50 * time.Millisecond, MaxInFlight: 2},
		},
	}
	s := NewServer([]*Graph{g}, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	faults.EnableSeeded(7,
		faults.Rule{Site: "sparse.kernel.range", Action: faults.Delay, Delay: time.Millisecond},
		faults.Rule{Site: "sparse.spgemm.spa", Action: faults.AllocFail, OneIn: 3},
		faults.Rule{Site: "sparse.vxm.spa", Action: faults.AllocFail, OneIn: 4},
	)
	defer faults.Disable()

	paths := []string{
		"/query/bfs?src=1", "/query/triangles", "/query/pagerank?maxiter=8",
		"/query/sssp?src=2", "/query/ego?src=3&hops=1",
	}
	allowed := map[int]bool{
		http.StatusOK:                  true,
		http.StatusRequestTimeout:      true, // blown/queue-burned deadline
		http.StatusTooManyRequests:     true, // limiter or governor shed
		http.StatusServiceUnavailable:  true, // open breaker
		http.StatusInsufficientStorage: true, // injected allocation failure
	}
	const workers = 9
	stop := time.Now().Add(dur)
	var wg sync.WaitGroup
	var mu sync.Mutex
	counts := map[int]int{}
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := fmt.Sprintf("soak%d", w%3)
			for i := 0; time.Now().Before(stop); i++ {
				req, err := http.NewRequest("GET", ts.URL+paths[(w+i)%len(paths)], nil)
				if err != nil {
					errs <- err
					return
				}
				req.Header.Set("X-Grb-Tenant", tenant)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errs <- err
					return
				}
				var body shedResp
				decErr := json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				mu.Lock()
				counts[resp.StatusCode]++
				mu.Unlock()
				if !allowed[resp.StatusCode] {
					errs <- fmt.Errorf("soak: unmapped status %d on %s", resp.StatusCode, paths[(w+i)%len(paths)])
					return
				}
				if decErr != nil {
					errs <- fmt.Errorf("soak: status %d body not JSON: %v", resp.StatusCode, decErr)
					return
				}
				if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
					errs <- fmt.Errorf("soak: 429 without Retry-After")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	t.Logf("soak status mix over %v: %v", dur, counts)
	if counts[http.StatusOK] == 0 {
		t.Fatal("soak never completed a request")
	}

	// Storm over: faults off, breakers cool, the server must be clean.
	faults.Disable()
	time.Sleep(150 * time.Millisecond)
	waitFor(t, "in-flight drained", func() bool { return s.InFlight() == 0 })
	if status, _ := get(t, ts.URL+"/healthz", ""); status != http.StatusOK {
		t.Fatal("healthz after soak failed")
	}
	if status, body := get(t, ts.URL+"/query/bfs?src=0", "soak1"); status != http.StatusOK {
		t.Fatalf("after soak: %d: %s", status, body)
	}
	if s.gov != nil && s.gov.live() != 0 {
		t.Fatalf("governor live bytes after drain: %d", s.gov.live())
	}
}

// waitFor polls cond (1ms cadence) until true or the 5s cap, failing the
// test on timeout.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
