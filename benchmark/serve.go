package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	grb "github.com/grblas/grb"
	"github.com/grblas/grb/gen"
	"github.com/grblas/grb/lagraph"
	"github.com/grblas/grb/serve"
)

// The serve workload: a graph behind an in-process serve.Server on a real
// loopback listener, with the admission stack configured, queried by a
// seeded mix.

const (
	benchTenant   = "bench"
	memHighWater  = 1 << 30
	queryDeadline = 30 * time.Second
	pagerankIters = 10
	egoHops       = 2
)

// admissionConfig is the tenant envelope the serve workload runs under.
func admissionConfig() serve.Config {
	return serve.Config{
		Default: serve.TenantConfig{Deadline: queryDeadline},
		Tenants: map[string]serve.TenantConfig{benchTenant: {
			Deadline: queryDeadline, MaxInFlight: 8, MaxQueue: 16,
			BreakerThreshold: 5, P99Target: time.Second,
		}},
		MemHighWater: memHighWater,
	}
}

// query is one scheduled request.
type query struct {
	kind string // bfs, sssp, ego, pagerank
	src  int
	path string
}

// mixBlock is the query mix as counts per block of scheduled queries. The
// schedule is a sequence of shuffled blocks, so the distinct operations hold
// the mix exactly, and so does every window of a block's length.
type mixBlock []struct {
	kind  string
	count int
}

var smallMix = mixBlock{{"bfs", 10}, {"sssp", 5}, {"ego", 3}, {"pagerank", 2}}

// schedule draws `distinct` queries, a whole number of blocks.
func (m mixBlock) schedule(g *inputGraph, distinct int, rng *rand.Rand) []query {
	var block []string
	for _, e := range m {
		for c := 0; c < e.count; c++ {
			block = append(block, e.kind)
		}
	}
	if distinct%len(block) != 0 {
		must(fmt.Errorf("schedule: %d distinct queries are not whole blocks of %d", distinct, len(block)))
	}
	blocks := distinct / len(block)
	srcs := g.sources(blocks*len(block), rng)
	out := make([]query, 0, len(srcs))
	for b := 0; b < blocks; b++ {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			q := query{kind: kind, src: srcs[len(out)]}
			switch kind {
			case "ego":
				q.path = fmt.Sprintf("/query/ego?src=%d&hops=%d", q.src, egoHops)
			case "pagerank":
				q.path = fmt.Sprintf("/query/pagerank?maxiter=%d&tol=0", pagerankIters)
			default:
				q.path = fmt.Sprintf("/query/%s?src=%d", kind, q.src)
			}
			out = append(out, q)
		}
	}
	return out
}

type serveWL struct {
	seed int64
	sz   sizing
	mix  mixBlock

	g      *inputGraph
	graph  *serve.Graph
	srv    *serve.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
	base   string
	client *http.Client
	sched  []query
	bufs   []bytes.Buffer // one response buffer per caller

	t         tally
	respBytes atomic.Int64
	respCount atomic.Int64
	mu        sync.Mutex
	kept      []keptResponse

	// Traced run only: the same graph as grb objects and as kernel operands.
	pattern *grb.Matrix[bool]
	weights *grb.Matrix[float64]
	govCtx  *grb.Context
	oneCtx  *grb.Context
	kern    *kernelGraph
	peakKB  float64
	bfsLvls []float64
	prIters []float64
}

type keptResponse struct {
	q    query
	body []byte
}

func newServeSmall(seed int64, sz sizing) workload {
	return &serveWL{seed: seed, sz: sz, mix: smallMix}
}

func (s *serveWL) tally() *tally { return &s.t }

func (s *serveWL) describe() string {
	return fmt.Sprintf("graph rmat-%d n=%d edges=%d; tenant %q MaxInFlight 8 MaxQueue 16 BreakerThreshold 5 P99Target 1s Deadline 30s MemHighWater 1GiB",
		s.sz.scale, s.g.N, s.graph.Edges, benchTenant)
}

func (s *serveWL) setup() {
	s.g = genRMAT(s.sz.scale, true)
	s.graph = must1(serve.FromGen("g", s.g.Graph))
	s.srv = serve.NewServer([]*serve.Graph{s.graph}, admissionConfig())
	ln := must1(net.Listen("tcp", "127.0.0.1:0"))
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns ErrServerClosed from close()
	}()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: s.sz.openConns, MaxIdleConnsPerHost: s.sz.openConns,
	}}
	s.bufs = make([]bytes.Buffer, s.sz.openConns)
	s.sched = s.mix.schedule(s.g, s.sz.distinct, rand.New(rand.NewSource(s.seed)))
	// Warm-up: forty queries of the mix on every connection, so that the
	// caches, the cached transposes and the connection pool are in place.
	var wg sync.WaitGroup
	for c := 0; c < s.sz.openConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if status, _, err := s.get(c, s.query(i).path); err != nil || status != http.StatusOK {
					must(fmt.Errorf("warm-up %s: status %d: %v", s.query(i).path, status, err))
				}
			}
		}(c)
	}
	wg.Wait()
}

func (s *serveWL) close() {
	must(s.srv.Shutdown(5 * time.Second))
	must(s.hs.Shutdown(context.Background()))
	<-s.served
	s.client.CloseIdleConnections()
	for _, c := range []*grb.Context{s.oneCtx, s.govCtx} {
		if c != nil {
			must(c.Free())
		}
	}
}

func (s *serveWL) prepare() { s.g.index() }

// get sends one request on caller c's behalf and reads the whole body into
// that caller's buffer.
func (s *serveWL) get(c int, path string) (status int, body []byte, err error) {
	req, err := http.NewRequest(http.MethodGet, s.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Grb-Tenant", benchTenant)
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf := &s.bufs[c]
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, buf.Bytes(), nil
}

func (s *serveWL) query(i int) query { return s.sched[i%len(s.sched)] }

func (s *serveWL) op(c, i int) {
	q := s.query(i)
	s.t.attempted.Add(1)
	status, body, err := s.get(c, q.path)
	switch {
	case err != nil:
		s.t.fail(fmt.Errorf("GET %s: %w", q.path, err))
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		s.t.shed.Add(1)
	case status != http.StatusOK:
		s.t.fail(fmt.Errorf("GET %s: status %d: %s", q.path, status, body))
	default:
		s.respBytes.Add(int64(len(body)))
		s.respCount.Add(1)
		if i%s.sz.checkEach == 0 {
			s.mu.Lock()
			if len(s.kept) < s.sz.maxKept {
				s.kept = append(s.kept, keptResponse{q, append([]byte(nil), body...)})
			}
			s.mu.Unlock()
		}
	}
}

// queryBody is the union of the fields the four endpoints answer with.
type queryBody struct {
	Reached    int       `json:"reached"`
	Indices    []int     `json:"indices"`
	Levels     []int     `json:"levels"`
	Dist       []float64 `json:"dist"`
	Iterations int       `json:"iterations"`
	Ranks      []float64 `json:"ranks"`
	Vertices   []int     `json:"vertices"`
	EdgeSrc    []int     `json:"edge_src"`
}

func (s *serveWL) check() {
	for _, k := range s.kept {
		var b queryBody
		err := json.Unmarshal(k.body, &b)
		if err == nil {
			switch k.q.kind {
			case "bfs":
				err = s.g.checkLevels(k.q.src, b.Indices, b.Levels)
			case "sssp":
				err = s.g.checkDist(k.q.src, b.Indices, b.Dist)
			case "pagerank":
				err = checkRanks(b.Iterations, pagerankIters, b.Ranks)
			case "ego":
				err = s.g.checkEgo(k.q.src, egoHops, b.Vertices, len(b.EdgeSrc))
			}
		}
		if err != nil {
			s.t.fail(err)
		}
	}
	s.kept = nil
}

// ladder builds the traced run's depths. The graph is built a second time
// as grb objects the benchmark owns, the way serve builds its own, because
// the request-ctx, algo and kernel depths run below the server.
func (s *serveWL) ladder() ladder {
	s.pattern = must1(grb.MatrixFromTuples(s.g.N, s.g.N, s.g.Src, s.g.Dst, gen.BoolWeights(s.g.Graph), grb.LOr))
	s.weights = must1(grb.MatrixFromTuples(s.g.N, s.g.N, s.g.Src, s.g.Dst, s.g.W, grb.Plus[float64]))
	must(s.pattern.Wait(grb.Materialize))
	must(s.weights.Wait(grb.Materialize))
	s.govCtx = must1(grb.NewContext(grb.NonBlocking, nil, grb.WithMemoryLimit(memHighWater)))
	s.oneCtx = must1(grb.NewContext(grb.NonBlocking, nil, grb.WithThreads(1)))
	top := must1(grb.GlobalContext())
	s.kern = newKernelGraph(s.pattern, s.weights, top.Threads())
	noAdmission := serve.NewServer([]*serve.Graph{s.graph}, serve.Config{}).Handler()

	handler := func(h http.Handler) depthFn {
		return func(op int, _ *tracer, _ int) {
			q := s.query(op)
			req := httptest.NewRequest(http.MethodGet, q.path, nil)
			req.Header.Set("X-Grb-Tenant", benchTenant)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			s.t.attempted.Add(1)
			if rec.Code != http.StatusOK {
				s.t.fail(fmt.Errorf("handler %s: status %d", q.path, rec.Code))
			}
		}
	}
	return ladder{
		depths: [numDepths]depthFn{
			depthHTTP:    func(op int, _ *tracer, _ int) { s.op(0, op) },
			depthHandler: handler(s.srv.Handler()),
			depthRequest: func(op int, _ *tracer, _ int) { s.requestCtx(s.query(op)) },
			depthAlgo: func(op int, tr *tracer, parent int) {
				s.algo(s.query(op), s.pattern, s.weights, tr, op, parent)
			},
			depthKernel: func(op int, tr *tracer, _ int) { s.kernel(s.query(op), tr != nil) },
		},
		noAdmission: handler(noAdmission),
		algoAlt: func(op int, _ *tracer, _ int) {
			s.algo(s.query(op), must1(s.pattern.ViewInContext(s.oneCtx)), must1(s.weights.ViewInContext(s.oneCtx)), nil, op, 0)
		},
		altThreads: 1,
		healthz: func() {
			if status, _, err := s.get(0, "/healthz"); err != nil || status != http.StatusOK {
				must(fmt.Errorf("healthz: status %d: %v", status, err))
			}
		},
		openRate: s.sz.openRate,
		openPct:  s.sz.openPct,
		clients:  s.sz.openConns,
		finish: func(tr *tracer, m map[string]float64) {
			m["serve.response_kb"] = ratio(float64(s.respBytes.Load())/1024, float64(s.respCount.Load()))
			m["grb.mem_peak_kb"] = s.peakKB
			for _, kind := range []string{"bfs", "sssp", "pagerank", "ego"} {
				m["lagraph."+kind+"_ms"] = spanMedianMs(tr, "lagraph."+kind)
			}
			m["lagraph.bfs_levels"] = mean(s.bfsLvls)
			m["lagraph.pagerank_iters"] = mean(s.prIters)
			m["gen.rmat_medges_s"] = ratio(float64(len(s.g.Src))/1e6, s.g.genS)
		},
	}
}

// requestCtx re-does the handler's body with the public API: a per-request
// context under a budgeted governor context, a view of the shared graph in
// it, the algorithm, the tuple extraction, and the teardown.
func (s *serveWL) requestCtx(q query) {
	ctx := must1(grb.NewContext(grb.NonBlocking, s.govCtx, grb.WithCancel(),
		grb.WithDeadline(time.Now().Add(queryDeadline)), grb.WithMemoryLimit(memHighWater)))
	switch q.kind {
	case "bfs":
		levels := must1(lagraph.BFSLevels(must1(s.pattern.ViewInContext(ctx)), q.src))
		must2(levels.ExtractTuples())
	case "sssp":
		dist := must1(lagraph.SSSP(must1(s.weights.ViewInContext(ctx)), q.src))
		must2(dist.ExtractTuples())
	case "pagerank":
		res := must1(lagraph.PageRank(must1(s.weights.ViewInContext(ctx)), 0.85, 0, pagerankIters))
		must2(res.Ranks.ExtractTuples())
	case "ego":
		sub, _ := must2(lagraph.EgoNet(must1(s.weights.ViewInContext(ctx)), q.src, egoHops))
		must3(sub.ExtractTuples())
	}
	if kb := float64(ctx.MemoryPeak()) / 1024; kb > s.peakKB {
		s.peakKB = kb
	}
	must(ctx.Free())
}

// algo runs only the lagraph call, on the given matrices, in their context.
func (s *serveWL) algo(q query, pattern *grb.Matrix[bool], weights *grb.Matrix[float64],
	tr *tracer, op, parent int) {
	tr.time("lagraph."+q.kind, "lagraph", op, parent, func(int) {
		switch q.kind {
		case "bfs":
			must(must1(lagraph.BFSLevels(pattern, q.src)).Free())
		case "sssp":
			must(must1(lagraph.SSSP(weights, q.src)).Free())
		case "pagerank":
			res := must1(lagraph.PageRank(weights, 0.85, 0, pagerankIters))
			if tr != nil {
				s.prIters = append(s.prIters, float64(res.Iterations))
			}
			must(res.Ranks.Free())
		case "ego":
			sub, _ := must2(lagraph.EgoNet(weights, q.src, egoHops))
			must(sub.Free())
		}
	})
}

// kernel replays the query's multiplies; introspect keeps the BFS depth.
func (s *serveWL) kernel(q query, introspect bool) {
	switch q.kind {
	case "bfs":
		levels, _ := s.kern.bfs(q.src)
		if introspect {
			s.bfsLvls = append(s.bfsLvls, float64(levels))
		}
	case "sssp":
		s.kern.sssp(q.src)
	case "pagerank":
		s.kern.pagerank(pagerankIters)
	case "ego":
		s.kern.ego(q.src, egoHops)
	}
}
