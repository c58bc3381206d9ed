package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	grb "github.com/grblas/grb"
	"github.com/grblas/grb/gen"
	"github.com/grblas/grb/internal/faults"
	"github.com/grblas/grb/internal/obsv"
	"github.com/grblas/grb/lagraph"
)

func initLib(t testing.TB) {
	t.Helper()
	_ = grb.Finalize() //grblint:ignore infocheck -- reset idiom: "not initialized" is expected
	if err := grb.Init(grb.NonBlocking); err != nil {
		t.Fatal(err)
	}
	obsv.ResetLabels()
	t.Cleanup(func() {
		obsv.ResetLabels()
		_ = grb.Finalize() //grblint:ignore infocheck -- best-effort teardown
	})
}

func testGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := FromGen("g", gen.Graph500RMAT(7, 8, 11).Symmetrize())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func get(t *testing.T, url, tenant string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Grb-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// bfsOracle runs the differential reference: direct lagraph BFS on the
// shared pattern, returned as an index→level map for comparison with
// response JSON.
func bfsOracle(t *testing.T, g *Graph, src int) map[int]int {
	t.Helper()
	levels, err := lagraph.BFSLevels(g.pattern, src)
	if err != nil {
		t.Fatal(err)
	}
	idx, vals, err := levels.ExtractTuples()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int]int, len(idx))
	for k := range idx {
		out[idx[k]] = vals[k]
	}
	return out
}

// TestServerTenantIsolation is the satellite isolation battery, built to
// run under -race: several well-behaved tenants hammer mixed endpoints
// concurrently while one tenant's every query blows its 1-byte memory
// budget and another's every query starts past its deadline. The
// well-behaved tenants' responses must stay bit-identical to direct
// lagraph calls on the shared graph, the saboteurs must keep getting their
// mapped statuses, and the server must answer a final health probe — it
// never wedges.
func TestServerTenantIsolation(t *testing.T) {
	initLib(t)
	g := testGraph(t)
	cfg := Config{
		Default: TenantConfig{Deadline: 30 * time.Second},
		Tenants: map[string]TenantConfig{
			"starved": {Deadline: 30 * time.Second, MemoryBytes: 1},
			"notime":  {Deadline: time.Nanosecond},
		},
	}
	ts := httptest.NewServer(NewServer([]*Graph{g}, cfg).Handler())
	defer ts.Close()

	// Oracles computed once, before the storm, straight from lagraph.
	oracles := map[int]map[int]int{}
	for src := 0; src < 4; src++ {
		oracles[src] = bfsOracle(t, g, src)
	}
	wantTri, err := lagraph.TriangleCount(g.pattern)
	if err != nil {
		t.Fatal(err)
	}

	const goodWorkers, iters = 4, 12
	var wg sync.WaitGroup
	errs := make(chan error, (goodWorkers+2)*iters)
	for w := 0; w < goodWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := fmt.Sprintf("good%d", w)
			for i := 0; i < iters; i++ {
				src := (w + i) % 4
				switch i % 2 {
				case 0:
					status, body := get(t, fmt.Sprintf("%s/query/bfs?src=%d", ts.URL, src), tenant)
					if status != http.StatusOK {
						errs <- fmt.Errorf("%s bfs: status %d: %s", tenant, status, body)
						return
					}
					var resp struct {
						Indices []int `json:"indices"`
						Levels  []int `json:"levels"`
					}
					if err := json.Unmarshal(body, &resp); err != nil {
						errs <- fmt.Errorf("%s bfs: %v", tenant, err)
						return
					}
					want := oracles[src]
					if len(resp.Indices) != len(want) {
						errs <- fmt.Errorf("%s bfs src=%d: %d reached, oracle %d", tenant, src, len(resp.Indices), len(want))
						return
					}
					for k := range resp.Indices {
						if want[resp.Indices[k]] != resp.Levels[k] {
							errs <- fmt.Errorf("%s bfs src=%d: level[%d]=%d, oracle %d",
								tenant, src, resp.Indices[k], resp.Levels[k], want[resp.Indices[k]])
							return
						}
					}
				case 1:
					status, body := get(t, ts.URL+"/query/triangles", tenant)
					if status != http.StatusOK {
						errs <- fmt.Errorf("%s triangles: status %d: %s", tenant, status, body)
						return
					}
					var resp struct {
						Triangles int64 `json:"triangles"`
					}
					if err := json.Unmarshal(body, &resp); err != nil {
						errs <- fmt.Errorf("%s triangles: %v", tenant, err)
						return
					}
					if resp.Triangles != wantTri {
						errs <- fmt.Errorf("%s triangles: %d, oracle %d", tenant, resp.Triangles, wantTri)
						return
					}
				}
			}
		}(w)
	}
	// Saboteur 1: every query exceeds its memory budget.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			status, body := get(t, ts.URL+"/query/triangles", "starved")
			if status != http.StatusInsufficientStorage {
				errs <- fmt.Errorf("starved: status %d, want 507: %s", status, body)
				return
			}
		}
	}()
	// Saboteur 2: every query starts past its deadline.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			status, body := get(t, ts.URL+"/query/pagerank?maxiter=40", "notime")
			if status != http.StatusRequestTimeout {
				errs <- fmt.Errorf("notime: status %d, want 408: %s", status, body)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Server answers after the storm, and the ledger saw every tenant.
	if status, _ := get(t, ts.URL+"/healthz", ""); status != http.StatusOK {
		t.Fatalf("healthz after storm: %d", status)
	}
	snap := obsv.LabelsSnapshot()
	if snap["starved"].Errors != iters || snap["notime"].Errors != iters {
		t.Fatalf("saboteur accounting: starved=%+v notime=%+v", snap["starved"], snap["notime"])
	}
	for w := 0; w < goodWorkers; w++ {
		name := fmt.Sprintf("good%d", w)
		if lm := snap[name]; lm.Requests != iters || lm.Errors != 0 {
			t.Fatalf("%s accounting: %+v", name, lm)
		}
	}
}

// TestServerFaultInjection arms the kernel fault plan against a live
// server: sampled allocation failures at the SpGEMM and VxM sites must
// surface as mapped 507s (never hangs, wedges, or unmapped 500s), and the
// server must return to all-200 service the moment the plan is disarmed.
func TestServerFaultInjection(t *testing.T) {
	initLib(t)
	g := testGraph(t)
	ts := httptest.NewServer(NewServer([]*Graph{g},
		Config{Default: TenantConfig{Deadline: 30 * time.Second}}).Handler())
	defer ts.Close()

	if err := faults.ArmFromSpec("sparse.spgemm.spa:alloc%2;sparse.vxm.spa:alloc%3;seed=7"); err != nil {
		t.Fatal(err)
	}
	defer faults.Disable()
	sawInjected := false
	for i := 0; i < 20; i++ {
		path := "/query/triangles"
		if i%2 == 1 {
			path = fmt.Sprintf("/query/bfs?src=%d", i%4)
		}
		status, body := get(t, ts.URL+path, "chaos")
		switch status {
		case http.StatusOK:
		case http.StatusInsufficientStorage:
			sawInjected = true
			var eb struct {
				InfoName string `json:"info_name"`
			}
			if err := json.Unmarshal(body, &eb); err != nil || eb.InfoName != "GrB_OUT_OF_MEMORY" {
				t.Fatalf("injected failure body: %s (err %v)", body, err)
			}
		default:
			t.Fatalf("GET %s under faults: status %d: %s", path, status, body)
		}
	}
	if !sawInjected {
		t.Fatal("fault plan armed but no query ever failed")
	}
	faults.Disable()
	for i := 0; i < 3; i++ {
		if status, body := get(t, ts.URL+"/query/triangles", "chaos"); status != http.StatusOK {
			t.Fatalf("after disarm: status %d: %s", status, body)
		}
	}
}

// TestClientDisconnectReleasesResources pins the mid-flight abandonment
// path: a client that walks away from an expensive PageRank gets its query
// canceled at range granularity, the request's concurrency slot frees, and
// the memory governor's live aggregate returns to zero — an abandoned
// request cannot keep either the engine or the admission budget occupied.
func TestClientDisconnectReleasesResources(t *testing.T) {
	initLib(t)
	obsv.ResetServe()
	t.Cleanup(obsv.ResetServe)
	g := testGraph(t)
	cfg := Config{
		Default:      TenantConfig{Deadline: 60 * time.Second},
		MemHighWater: 64 << 20,
		Tenants: map[string]TenantConfig{
			"walker": {Deadline: 60 * time.Second, MaxInFlight: 1},
		},
	}
	s := NewServer([]*Graph{g}, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Slow the kernels down so the disconnect lands mid-iteration.
	faults.Enable(faults.Rule{Site: "sparse.kernel.range", Action: faults.Delay, Delay: 10 * time.Millisecond})
	defer faults.Disable()

	rctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(rctx, "GET", ts.URL+"/query/pagerank?maxiter=400&tol=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Grb-Tenant", "walker")
	clientErr := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("abandoned request completed with status %d", resp.StatusCode)
		}
		clientErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.InFlight() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("query never entered flight")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-clientErr; err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("client error: %v, want context.Canceled", err)
	}
	// The watcher cancels the grb context; kernels park Canceled at the next
	// range checkpoint and the handler unwinds, releasing slot + reservation.
	for s.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned request still in flight (%d)", s.InFlight())
		}
		time.Sleep(time.Millisecond)
	}
	faults.Disable()
	if s.gov == nil {
		t.Fatal("governor not constructed despite MemHighWater")
	}
	if live := s.gov.live(); live != 0 {
		t.Fatalf("governor live bytes after disconnect: %d, want 0", live)
	}
	// The single concurrency slot must be free again.
	if status, body := get(t, ts.URL+"/query/bfs?src=0", "walker"); status != http.StatusOK {
		t.Fatalf("after disconnect: status %d (slot leaked?): %s", status, body)
	}
}

// TestSelfCheck keeps the ci.sh serve tier's driver honest (and covered).
func TestSelfCheck(t *testing.T) {
	initLib(t)
	if err := SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestServeHTTPContract covers the endpoint surface the smoke tier relies
// on, without concurrency: response fields, the 404/400/429 mappings, and
// the ego response's original-id edge list.
func TestServeHTTPContract(t *testing.T) {
	initLib(t)
	// 0→1→2→3→4 path with a shortcut 0→2.
	pg, err := buildGraph("p", 5,
		[]grb.Index{0, 1, 2, 3, 0}, []grb.Index{1, 2, 3, 4, 2},
		[]float64{1, 1, 1, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Default: TenantConfig{Deadline: 10 * time.Second},
		Tenants: map[string]TenantConfig{"gated": {MaxInFlight: 1}},
	}
	s := NewServer([]*Graph{pg}, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, body := get(t, ts.URL+"/query/ego?src=0&hops=1", "")
	if status != http.StatusOK {
		t.Fatalf("ego: %d: %s", status, body)
	}
	var ego struct {
		Vertices []int     `json:"vertices"`
		ESrc     []int     `json:"edge_src"`
		EDst     []int     `json:"edge_dst"`
		EW       []float64 `json:"edge_w"`
	}
	if err := json.Unmarshal(body, &ego); err != nil {
		t.Fatal(err)
	}
	if len(ego.Vertices) != 3 || ego.Vertices[0] != 0 || ego.Vertices[2] != 2 {
		t.Fatalf("ego vertices: %v", ego.Vertices)
	}
	// Induced edges in original ids: 0→1, 0→2 (w=5), 1→2.
	if len(ego.ESrc) != 3 {
		t.Fatalf("ego edges: %v -> %v", ego.ESrc, ego.EDst)
	}
	found5 := false
	for k := range ego.ESrc {
		if ego.ESrc[k] == 0 && ego.EDst[k] == 2 && ego.EW[k] == 5 {
			found5 = true
		}
	}
	if !found5 {
		t.Fatalf("ego shortcut edge missing: %v %v %v", ego.ESrc, ego.EDst, ego.EW)
	}

	if status, _ := get(t, ts.URL+"/query/sssp?graph=absent", ""); status != http.StatusNotFound {
		t.Fatalf("unknown graph: %d", status)
	}
	if status, _ := get(t, ts.URL+"/query/pagerank?damping=2", ""); status != http.StatusBadRequest {
		t.Fatalf("bad damping: %d", status)
	}
	if status, _ := get(t, ts.URL+"/query/bfs?hops=x&src=x", ""); status != http.StatusBadRequest {
		t.Fatalf("bad src: %d", status)
	}

	// 429 deterministically: hold the gated tenant's single slot.
	req, err := http.NewRequest("GET", ts.URL+"/query/bfs", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Grb-Tenant", "gated")
	tn := s.tenantFor(req, req.URL.Query())
	if !tn.limiter.tryAcquire() {
		t.Fatal("gated slot busy")
	}
	status, _ = get(t, ts.URL+"/query/bfs", "gated")
	tn.limiter.release(outcomeNeutral, 0)
	if status != http.StatusTooManyRequests {
		t.Fatal("gated tenant not rejected")
	}
	if status, _ := get(t, ts.URL+"/query/bfs", "gated"); status != http.StatusOK {
		t.Fatal("gated tenant not restored")
	}

	// /graphs and /metrics surface.
	status, body = get(t, ts.URL+"/graphs", "")
	if status != http.StatusOK {
		t.Fatalf("/graphs: %d", status)
	}
	var gl struct {
		Graphs []struct {
			Name  string `json:"name"`
			N     int    `json:"n"`
			Edges int    `json:"edges"`
		} `json:"graphs"`
	}
	if err := json.Unmarshal(body, &gl); err != nil {
		t.Fatal(err)
	}
	if len(gl.Graphs) != 1 || gl.Graphs[0].Name != "p" || gl.Graphs[0].N != 5 || gl.Graphs[0].Edges != 5 {
		t.Fatalf("/graphs: %+v", gl)
	}
}

// TestNonFiniteAnswerIsAnError pins what a value JSON cannot spell gets: a
// +Inf edge weight (mtx.Read parses inf and nan, so LoadMTX can serve one)
// puts non-finite numbers in the ego, SSSP and PageRank answers, and each
// must be a 500 with the error envelope, counted as failed — never a 200
// with an empty body counted as a success.
func TestNonFiniteAnswerIsAnError(t *testing.T) {
	initLib(t)
	g, err := buildGraph("inf", 3, []grb.Index{0, 1}, []grb.Index{1, 2}, []float64{math.Inf(1), 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer([]*Graph{g}, Config{}).Handler())
	defer ts.Close()
	paths := []string{"/query/ego?src=0&hops=1", "/query/sssp?src=0", "/query/pagerank"}
	for _, path := range paths {
		status, body := get(t, ts.URL+path, "inf")
		var eb struct {
			Error string `json:"error"`
		}
		if status != http.StatusInternalServerError || json.Unmarshal(body, &eb) != nil || eb.Error == "" {
			t.Fatalf("GET %s: status %d, body %q; want 500 with the error envelope", path, status, body)
		}
	}
	if lm := obsv.LabelsSnapshot()["inf"]; lm.Requests != int64(len(paths)) || lm.Errors != int64(len(paths)) {
		t.Fatalf("accounting: %+v, want %d requests all failed", lm, len(paths))
	}
}
