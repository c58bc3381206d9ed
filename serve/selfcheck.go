package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"github.com/grblas/grb/internal/faults"
)

// SelfCheck is the serve smoke gate behind `grbserve -selfcheck` and the
// ci.sh serve tier: it stands up a real HTTP server on a loopback port
// over small generated graphs and drives the whole contract — every
// endpoint answers 200 with valid JSON, a deliberately over-budget tenant
// gets 507, a no-time tenant gets 408, admission rejection gets 429, the
// 404/400 paths map, /metrics parses and carries the per-tenant counters,
// a short closed-loop burst of mixed tenants stays clean, and graceful
// shutdown drains: with a slow query in flight, new requests shed 503
// ("draining") while the in-flight one completes 200. It returns nil only
// if every probe passed.
func SelfCheck() error {
	g1, err := ParseGenSpec("rmat=rmat:8")
	if err != nil {
		return err
	}
	g2, err := ParseGenSpec("ring=grid:12")
	if err != nil {
		return err
	}
	cfg := Config{
		Default: TenantConfig{Deadline: 10 * time.Second},
		Tenants: map[string]TenantConfig{
			"starved": {Deadline: 10 * time.Second, MemoryBytes: 1},
			"notime":  {Deadline: time.Nanosecond},
			"gated":   {Deadline: 10 * time.Second, MaxInFlight: 1},
		},
	}
	s := NewServer([]*Graph{g1, g2}, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path, tenant string) (int, []byte, error) {
		req, err := http.NewRequest("GET", ts.URL+path, nil)
		if err != nil {
			return 0, nil, err
		}
		if tenant != "" {
			req.Header.Set("X-Grb-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}
	expect := func(path, tenant string, want int) error {
		status, body, err := get(path, tenant)
		if err != nil {
			return fmt.Errorf("GET %s: %w", path, err)
		}
		if status != want {
			return fmt.Errorf("GET %s (tenant %q): status %d, want %d: %s", path, tenant, status, want, body)
		}
		var doc map[string]any
		if err := json.Unmarshal(body, &doc); err != nil {
			return fmt.Errorf("GET %s: response is not JSON: %w", path, err)
		}
		return nil
	}

	// Every endpoint answers 200 with valid JSON, on both graphs.
	for _, path := range []string{
		"/healthz", "/graphs", "/metrics",
		"/query/bfs?graph=rmat&src=0",
		"/query/sssp?graph=rmat&src=0",
		"/query/pagerank?graph=rmat&maxiter=20",
		"/query/triangles?graph=rmat",
		"/query/ego?graph=rmat&src=0&hops=2",
		"/query/bfs?graph=ring&src=0",
		"/query/triangles?graph=ring",
	} {
		if err := expect(path, "", http.StatusOK); err != nil {
			return err
		}
	}

	// The error taxonomy: over-budget → 507, out-of-time → 408,
	// unknown graph → 404, bad parameter → 400.
	if err := expect("/query/triangles?graph=rmat", "starved", http.StatusInsufficientStorage); err != nil {
		return err
	}
	if err := expect("/query/pagerank?graph=rmat", "notime", http.StatusRequestTimeout); err != nil {
		return err
	}
	if err := expect("/query/bfs?graph=nope", "", http.StatusNotFound); err != nil {
		return err
	}
	if err := expect("/query/bfs?graph=rmat&src=banana", "", http.StatusBadRequest); err != nil {
		return err
	}

	// Admission rejection: hold the gated tenant's only slot and probe.
	req, err := http.NewRequest("GET", ts.URL+"/query/bfs", nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-Grb-Tenant", "gated")
	tn := s.tenantFor(req, req.URL.Query())
	if !tn.limiter.tryAcquire() {
		return fmt.Errorf("gated tenant slot unexpectedly busy")
	}
	err = expect("/query/bfs?graph=rmat", "gated", http.StatusTooManyRequests)
	tn.limiter.release(outcomeNeutral, 0)
	if err != nil {
		return err
	}
	if err := expect("/query/bfs?graph=rmat", "gated", http.StatusOK); err != nil {
		return err
	}

	// Closed-loop burst: mixed tenants and endpoints, all clean, while the
	// starved tenant keeps failing in its mapped way — neighbors unharmed.
	paths := []string{
		"/query/bfs?graph=rmat&src=1",
		"/query/sssp?graph=ring&src=2",
		"/query/triangles?graph=ring",
		"/query/ego?graph=rmat&src=3&hops=1",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer func() {
				if p := recover(); p != nil {
					errs <- fmt.Errorf("selfcheck worker panic: %v", p)
				}
				wg.Done()
			}()
			for i := 0; i < 6; i++ {
				if w == 3 {
					if err := expect("/query/triangles?graph=rmat", "starved", http.StatusInsufficientStorage); err != nil {
						errs <- err
						return
					}
					continue
				}
				if err := expect(paths[(w+i)%len(paths)], fmt.Sprintf("team%d", w), http.StatusOK); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}

	// Graceful-shutdown probe: with a slow query in flight, Shutdown must
	// stop new admissions (503 + draining shed body) while the in-flight
	// request completes cleanly, and then return nil.
	s2 := NewServer([]*Graph{g1}, Config{Default: TenantConfig{Deadline: 30 * time.Second}})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	faults.Enable(faults.Rule{Site: "sparse.kernel.range", Action: faults.Delay, Delay: 5 * time.Millisecond})
	defer faults.Disable()
	slow := make(chan error, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				slow <- fmt.Errorf("selfcheck slow query panic: %v", p)
			}
		}()
		resp, err := http.Get(ts2.URL + "/query/pagerank?maxiter=10")
		if err != nil {
			slow <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			slow <- fmt.Errorf("in-flight query during drain: status %d: %s", resp.StatusCode, b)
			return
		}
		slow <- nil
	}()
	probeDeadline := time.Now().Add(5 * time.Second)
	for s2.InFlight() != 1 {
		if time.Now().After(probeDeadline) {
			return fmt.Errorf("selfcheck: slow query never entered flight")
		}
		time.Sleep(time.Millisecond)
	}
	shutdownErr := make(chan error, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				shutdownErr <- fmt.Errorf("selfcheck shutdown panic: %v", p)
			}
		}()
		shutdownErr <- s2.Shutdown(10 * time.Second)
	}()
	for !s2.Draining() {
		if time.Now().After(probeDeadline) {
			return fmt.Errorf("selfcheck: shutdown never began draining")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(ts2.URL + "/query/bfs?src=0")
	if err != nil {
		return err
	}
	drainBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		return fmt.Errorf("request during drain: status %d, want 503: %s", resp.StatusCode, drainBody)
	}
	var drainDoc struct {
		Shed struct {
			Reason string `json:"reason"`
		} `json:"shed"`
	}
	if err := json.Unmarshal(drainBody, &drainDoc); err != nil || drainDoc.Shed.Reason != "draining" {
		return fmt.Errorf("drain shed body malformed: %s (err %v)", drainBody, err)
	}
	if err := <-slow; err != nil {
		return err
	}
	if err := <-shutdownErr; err != nil {
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	faults.Disable()

	// The ops endpoint reflects the tenants that just ran.
	status, body, err := get("/metrics", "")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("GET /metrics: status %d err %v", status, err)
	}
	var doc struct {
		Tenants map[string]struct {
			Requests int64 `json:"requests"`
			Errors   int64 `json:"errors"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("/metrics does not parse: %w", err)
	}
	if doc.Tenants["starved"].Requests == 0 || doc.Tenants["starved"].Errors == 0 {
		return fmt.Errorf("/metrics tenants section missing starved tenant activity: %+v", doc.Tenants)
	}
	if doc.Tenants["team0"].Requests == 0 || doc.Tenants["team0"].Errors != 0 {
		return fmt.Errorf("/metrics tenants section wrong for team0: %+v", doc.Tenants)
	}
	return nil
}
