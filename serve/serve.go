package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	grb "github.com/grblas/grb"
	"github.com/grblas/grb/internal/obsv"
	"github.com/grblas/grb/lagraph"
)

// TenantConfig is one tenant's admission-control envelope. Zero values mean
// "no limit" for that axis; the server default fills unset deadlines.
type TenantConfig struct {
	Deadline    time.Duration // per-request wall-clock budget
	MemoryBytes int64         // per-request memory budget (grb.WithMemoryLimit)
	MaxInFlight int           // concurrency ceiling; the AIMD window breathes below it

	// Adaptive-control knobs; zero values keep earlier revisions' behavior
	// (static limit, no queue, no breaker).
	MinInFlight      int           // AIMD window floor (default 1)
	MaxQueue         int           // bounded admission queue depth; 0 = shed immediately
	P99Target        time.Duration // latency target for additive increase (default 250ms)
	BreakerThreshold int           // consecutive failures to open the circuit; 0 = no breaker
	BreakerCooldown  time.Duration // open-state hold before the half-open probe (default 1s)
}

// Config carries the per-tenant table plus the envelope applied to tenants
// the table does not name (including the implicit "default" tenant).
type Config struct {
	Default TenantConfig
	Tenants map[string]TenantConfig

	// MemHighWater bounds the server-wide live memory reservation aggregate:
	// requests whose projected footprint would push past it are rejected at
	// admission (429 + Retry-After). 0 disables the governor.
	MemHighWater int64
}

// tenant is the runtime state for one tenant name: its config plus the
// adaptive concurrency limiter and circuit breaker, created once on first
// sight.
type tenant struct {
	name    string
	cfg     TenantConfig
	limiter *aimdLimiter // nil when MaxInFlight == 0
	breaker *breaker     // nil when BreakerThreshold == 0
}

// newRequestCtx derives the §IV per-request context from the tenant
// envelope: always cancellable (for client disconnects), with the deadline
// and memory budget layered on when configured. The deadline anchors at the
// request's arrival, not at admission, so time spent queued is charged
// against the request's own budget. Under a governor the context parents
// under the governor's budgeted context — the budget rollup then aggregates
// every in-flight reservation there — and an unbudgeted tenant gets the
// high-water mark as its per-request cap. Without a governor the parent is
// the library top context; either way shared snapshots (owned by the top
// context) remain legal operands under the hierarchical sharing rule.
func (t *tenant) newRequestCtx(arrival time.Time, gov *memGovernor) (*grb.Context, error) {
	opts := []grb.ContextOption{grb.WithCancel()}
	if t.cfg.Deadline > 0 {
		opts = append(opts, grb.WithDeadline(arrival.Add(t.cfg.Deadline)))
	}
	mem := t.cfg.MemoryBytes
	var parent *grb.Context
	if gov != nil && gov.ctx != nil {
		parent = gov.ctx
		if mem <= 0 {
			mem = gov.highWater
		}
	}
	if mem > 0 {
		opts = append(opts, grb.WithMemoryLimit(mem))
	}
	return grb.NewContext(grb.NonBlocking, parent, opts...)
}

// Server serves concurrent algorithm queries over a shared graph set. The
// graph map is an atomic snapshot — Reload/SetGraphs swap the whole map and
// in-flight requests keep whichever snapshot they resolved — and all
// per-request mutable state lives in the request's own Context, so handlers
// need no locks around the graph data itself.
type Server struct {
	graphs  atomic.Pointer[map[string]*Graph]
	cfg     Config
	tenants sync.Map // name -> *tenant
	mux     *http.ServeMux
	gov     *memGovernor // nil when cfg.MemHighWater == 0
	lc      *lifecycle
}

// graphMap returns the current graph snapshot.
func (s *Server) graphMap() map[string]*Graph { return *s.graphs.Load() }

// NewServer builds the handler tree over the given graphs. Queries name
// their graph with ?graph=; when exactly one graph is loaded it is the
// default.
func NewServer(graphs []*Graph, cfg Config) *Server {
	s := &Server{cfg: cfg, lc: newLifecycle()}
	s.SetGraphs(graphs)
	if cfg.MemHighWater > 0 {
		s.gov = newMemGovernor(cfg.MemHighWater)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/graphs", s.handleGraphs)
	mux.Handle("/metrics", grb.MetricsHandler())
	mux.HandleFunc("/query/bfs", s.query("bfs", runBFS))
	mux.HandleFunc("/query/sssp", s.query("sssp", runSSSP))
	mux.HandleFunc("/query/pagerank", s.query("pagerank", runPageRank))
	mux.HandleFunc("/query/triangles", s.query("triangles", runTriangles))
	mux.HandleFunc("/query/ego", s.query("ego", runEgo))
	s.mux = mux
	return s
}

// Handler returns the root handler: queries, /graphs, /healthz, and the
// ops endpoint (/metrics = grb.MetricsHandler, whose document includes the
// per-tenant request counters this package records).
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	type graphInfo struct {
		Name  string `json:"name"`
		N     int    `json:"n"`
		Edges int    `json:"edges"`
	}
	graphs := s.graphMap()
	out := make([]graphInfo, 0, len(graphs))
	for _, g := range graphs {
		out = append(out, graphInfo{Name: g.Name, N: g.N, Edges: g.Edges})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, map[string]any{"graphs": out})
}

// tenantFor resolves the caller's tenant from the X-Grb-Tenant header or
// ?tenant= parameter (q is the request's parsed query; "default" otherwise)
// and returns its runtime state, creating it from the config table — or the
// default envelope — on first sight.
func (s *Server) tenantFor(r *http.Request, q url.Values) *tenant {
	name := r.Header.Get("X-Grb-Tenant")
	if name == "" {
		name = q.Get("tenant")
	}
	if name == "" {
		name = "default"
	}
	if t, ok := s.tenants.Load(name); ok {
		return t.(*tenant)
	}
	cfg, ok := s.cfg.Tenants[name]
	if !ok {
		cfg = s.cfg.Default
	}
	if cfg.Deadline == 0 {
		cfg.Deadline = s.cfg.Default.Deadline
	}
	t := &tenant{name: name, cfg: cfg}
	if cfg.MaxInFlight > 0 {
		t.limiter = newAIMDLimiter(name, cfg.MaxInFlight, cfg.MinInFlight, cfg.MaxQueue,
			cfg.P99Target, 0)
	}
	if cfg.BreakerThreshold > 0 {
		t.breaker = newBreaker(name, cfg.BreakerThreshold, cfg.BreakerCooldown)
	}
	actual, _ := s.tenants.LoadOrStore(name, t)
	return actual.(*tenant)
}

// errBody is the JSON error envelope: the mapped Info code rides along so
// clients can distinguish "over budget" from "bad request" without parsing
// prose, and shed responses carry the control-plane state that produced
// them so clients can back off intelligently.
type errBody struct {
	Error    string    `json:"error"`
	Info     int       `json:"info,omitempty"`
	InfoName string    `json:"info_name,omitempty"`
	Shed     *shedInfo `json:"shed,omitempty"`
}

// shedInfo explains an admission rejection: which control loop shed the
// request, how long to back off, and that loop's instantaneous state.
type shedInfo struct {
	Reason       string            `json:"reason"`
	RetryAfterMs int64             `json:"retry_after_ms"`
	Limiter      *limiterSnapshot  `json:"limiter,omitempty"`
	Breaker      *breakerSnapshot  `json:"breaker,omitempty"`
	Governor     *governorSnapshot `json:"governor,omitempty"`
}

// writeShed answers an admission rejection: Retry-After header (whole
// seconds, ceiling, minimum 1) plus the structured shed body.
func (s *Server) writeShed(w http.ResponseWriter, status int, tn *tenant, reason, msg string, retry time.Duration) {
	if retry <= 0 {
		retry = time.Second
	}
	secs := int64(math.Ceil(retry.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeJSON(w, status, errBody{
		Error: msg,
		Shed: &shedInfo{
			Reason:       reason,
			RetryAfterMs: retry.Milliseconds(),
			Limiter:      tn.limiter.snapshot(),
			Breaker:      tn.breaker.snapshot(),
			Governor:     s.gov.snapshot(),
		},
	})
}

// httpStatus maps a query error to its HTTP status — the Info→HTTP
// taxonomy: resource exhaustion inside the engine is the server's capacity
// (507), a blown deadline is the request's time budget (408), admission
// rejection is backpressure (429, applied before execution), and the API
// errors are the caller's fault (400).
func httpStatus(err error) int {
	var nf notFoundError
	if errors.As(err, &nf) {
		return http.StatusNotFound
	}
	switch grb.Code(err) {
	case grb.Canceled:
		return http.StatusRequestTimeout // 408
	case grb.OutOfMemory, grb.InsufficientSpace:
		return http.StatusInsufficientStorage // 507
	case grb.InvalidValue, grb.InvalidIndex, grb.NullPointer, grb.DomainMismatch,
		grb.DimensionMismatch, grb.OutputNotEmpty, grb.EmptyObject, grb.IndexOutOfBounds:
		return http.StatusBadRequest
	case grb.NotImplemented:
		return http.StatusNotImplemented
	case grb.Panic:
		// A recovered handler panic: the request failed, the process lives.
		return http.StatusInternalServerError
	default:
		return http.StatusInternalServerError
	}
}

// classify maps one executed request's result to the adaptive-control
// outcome: capacity signals halve the AIMD window, execution failures feed
// the breaker, client errors feed nothing.
func classify(err error) outcome {
	if err == nil {
		return outcomeOK
	}
	switch httpStatus(err) {
	case http.StatusRequestTimeout, http.StatusInsufficientStorage:
		return outcomeOverload
	case http.StatusBadRequest, http.StatusNotFound, http.StatusNotImplemented:
		return outcomeNeutral
	default:
		return outcomeFailure
	}
}

// writeJSON answers with a control-plane body (health, the graph list, an
// error or shed envelope), marshalled before the status goes out.
func writeJSON(w http.ResponseWriter, status int, body any) {
	b, err := json.Marshal(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(b, '\n')) // a failed write is a client that left
}

func writeErr(w http.ResponseWriter, status int, err error) {
	body := errBody{Error: err.Error()}
	var ge *grb.Error
	if errors.As(err, &ge) {
		body.Info = int(ge.Info)
		body.InfoName = ge.Info.String()
	}
	writeJSON(w, status, body)
}

// answer is a query's result: it writes what its handler extracted as the
// members of the response's JSON object, once the slot is released.
type answer func(w *jsonWriter)

// jsonWriter builds a query's body byte for byte as encoding/json wrote the
// map[string]any the handlers used to return: members in the sorted key
// order it gave a map, each written `"key":value,` (render turns the last
// comma into the brace), a nil slice as null and an empty one as []. A
// non-finite float, which JSON cannot spell, is kept in err instead.
type jsonWriter struct {
	b   []byte
	err error
}

func (w *jsonWriter) key(k string) []byte { return append(append(append(w.b, '"'), k...), '"', ':') }

// raw writes a value that is JSON already: a graph's name, escaped at load.
func (w *jsonWriter) raw(k string, v []byte) *jsonWriter {
	w.b = append(append(w.key(k), v...), ',')
	return w
}

func (w *jsonWriter) int(k string, n int64) *jsonWriter {
	w.b = append(strconv.AppendInt(w.key(k), n, 10), ',')
	return w
}

func (w *jsonWriter) ints(k string, v []int) *jsonWriter {
	if v == nil {
		w.b = append(w.key(k), "null,"...)
		return w
	}
	b := append(w.key(k), '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	w.b = append(b, ']', ',')
	return w
}

func (w *jsonWriter) floats(k string, v []float64) *jsonWriter {
	if v == nil {
		w.b = append(w.key(k), "null,"...)
		return w
	}
	b := append(w.key(k), '[')
	for i, x := range v {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			w.err = fmt.Errorf("%s holds %v, which JSON cannot represent", k, x)
			return w
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, x)
	}
	w.b = append(b, ']', ',')
	return w
}

// appendFloat is encoding/json's float64 form: the shortest 'f' digits, 'e'
// for a nonzero magnitude below 1e-6 or from 1e21 up, e-07 written e-7.
func appendFloat(b []byte, x float64) []byte {
	if a := math.Abs(x); a == 0 || a >= 1e-6 && a < 1e21 {
		return strconv.AppendFloat(b, x, 'f', -1, 64)
	}
	b = strconv.AppendFloat(b, x, 'e', -1, 64)
	if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// answerBufs replaces encoding/json's buffer pool: a fresh 34 KB body per
// query would outweigh the rest of what it allocates.
var answerBufs = sync.Pool{New: func() any { return &jsonWriter{b: make([]byte, 0, 64<<10)} }}

// render replaces w's body with a's, or returns a non-finite value's error.
func (w *jsonWriter) render(a answer) error {
	w.b, w.err = append(w.b[:0], '{'), nil
	if a(w); w.err != nil {
		return w.err
	}
	w.b = append(w.b[:len(w.b)-1], '}', '\n')
	return nil
}

// writeAnswer builds a's body whole and sends it with its Content-Length in
// one Write — or, for a non-finite value, returns the error before any
// header goes out.
func writeAnswer(w http.ResponseWriter, a answer) error {
	jw := answerBufs.Get().(*jsonWriter)
	defer answerBufs.Put(jw)
	if err := jw.render(a); err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(jw.b)))
	_, _ = w.Write(jw.b) // a failed write is a client that left
	return nil
}

// runRecovered executes one handler with a panic fence: a panicking
// algorithm is converted to a GrB_PANIC error for this request alone, so
// the slot, breaker, and governor bookkeeping that follows still runs and
// the process survives.
func runRecovered(run func(*Graph, url.Values, *grb.Context) (answer, error), g *Graph, q url.Values, ctx *grb.Context) (ans answer, err error) {
	defer func() {
		if p := recover(); p != nil {
			obsv.ServeAdd("panics.recovered", 1)
			ans, err = nil, &grb.Error{Info: grb.Panic, Msg: fmt.Sprintf("handler panic: %v", p)}
		}
	}()
	return run(g, q, ctx)
}

// query wraps one algorithm endpoint in the full request lifecycle:
// tenant resolution → drain gate → circuit breaker → adaptive concurrency
// admission (AIMD window + deadline-aware bounded queue) → memory-governor
// admission → per-request Context derivation (deadline anchored at arrival)
// → client-disconnect watcher → panic-fenced execution → Info→HTTP mapping
// → adaptive-loop feedback → writing the answer → per-tenant accounting. run
// receives the graph and the query string the wrapper parsed once, and the
// request's Context; it must allocate every grb object it creates inside
// that context (the lagraph algorithms inherit it from the graph views).
func (s *Server) query(op string, run func(*Graph, url.Values, *grb.Context) (answer, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		arrival := time.Now()
		q := r.URL.Query()
		tn := s.tenantFor(r, q)
		failed := true
		defer func() {
			obsv.NoteLabeled(tn.name, op, time.Since(arrival).Nanoseconds(), failed)
		}()
		if s.Draining() {
			s.writeShed(w, http.StatusServiceUnavailable, tn, "draining",
				"server is draining; not accepting new queries", time.Second)
			return
		}
		if ok, wait := tn.breaker.allow(arrival); !ok {
			s.writeShed(w, http.StatusServiceUnavailable, tn, "breaker",
				fmt.Sprintf("tenant %q: circuit open after repeated failures", tn.name), wait)
			return
		}
		var deadline time.Time
		if tn.cfg.Deadline > 0 {
			deadline = arrival.Add(tn.cfg.Deadline)
		}
		admit, _ := tn.limiter.acquire(deadline, r.Context().Done(), s.lc.drainCh)
		switch admit {
		case admitGranted:
		case admitShedQueueFull:
			s.writeShed(w, http.StatusTooManyRequests, tn, "queue_full",
				fmt.Sprintf("tenant %q: in-flight limit %d reached", tn.name, tn.cfg.MaxInFlight), 0)
			return
		case admitShedDeadline:
			// Queued past its own deadline: drop without executing — running
			// it now could only produce a late 408 at full cost.
			s.writeShed(w, http.StatusRequestTimeout, tn, "queue_deadline",
				fmt.Sprintf("tenant %q: deadline expired while queued", tn.name), 0)
			return
		case admitShedDrain:
			s.writeShed(w, http.StatusServiceUnavailable, tn, "draining",
				"server began draining while request was queued", time.Second)
			return
		case admitShedGone:
			// The client disconnected while queued; nobody is listening.
			return
		}
		slotHeld := true
		releaseSlot := func(o outcome, lat time.Duration) {
			if slotHeld {
				slotHeld = false
				tn.limiter.release(o, lat)
			}
		}
		defer releaseSlot(outcomeNeutral, 0)
		if ok, reason, retry := s.gov.admit(tn.name, op); !ok {
			releaseSlot(outcomeNeutral, 0)
			s.writeShed(w, http.StatusTooManyRequests, tn, reason,
				fmt.Sprintf("tenant %q: memory governor rejected request (%s)", tn.name, reason), retry)
			return
		}
		ctx, err := tn.newRequestCtx(arrival, s.gov)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		defer func() {
			_ = ctx.Free() //grblint:ignore infocheck -- request teardown; the response is already decided
		}()
		s.gov.enter(tn.name, ctx)
		defer s.gov.depart(tn.name, op, ctx)
		s.lc.register(ctx)
		defer s.lc.unregister(ctx)
		// A client that goes away cancels its own query — at abort-probe
		// granularity — so an abandoned expensive request cannot occupy the
		// engine. The done channel unblocks the watcher on normal completion.
		done := make(chan struct{})
		defer close(done)
		go func() {
			defer func() {
				_ = recover() // watcher must never take the process down
			}()
			select {
			case <-r.Context().Done():
				_ = ctx.Cancel() //grblint:ignore infocheck -- best-effort abort of an abandoned request
			case <-done:
			}
		}()
		var ans answer
		g, err := s.graphParam(q)
		if err == nil {
			ans, err = runRecovered(run, g, q, ctx)
		}
		o := classify(err)
		releaseSlot(o, time.Since(arrival))
		tn.breaker.note(o, time.Now())
		if err == nil {
			err = writeAnswer(w, ans)
		}
		if err != nil {
			writeErr(w, httpStatus(err), err)
			return
		}
		failed = false
	}
}

// graphParam resolves the ?graph= parameter; with a single loaded graph the
// parameter is optional.
func (s *Server) graphParam(q url.Values) (*Graph, error) {
	graphs := s.graphMap()
	name := q.Get("graph")
	if name == "" && len(graphs) == 1 {
		for _, g := range graphs {
			return g, nil
		}
	}
	if g, ok := graphs[name]; ok {
		return g, nil
	}
	return nil, notFoundError{fmt.Errorf("unknown graph %q", name)}
}

func intParam(q url.Values, name string, def int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, &grb.Error{Info: grb.InvalidValue, Msg: fmt.Sprintf("parameter %s=%q is not an integer", name, v)}
	}
	return n, nil
}

func floatParam(q url.Values, name string, def float64) (float64, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, &grb.Error{Info: grb.InvalidValue, Msg: fmt.Sprintf("parameter %s=%q is not a number", name, v)}
	}
	return f, nil
}

func runBFS(g *Graph, q url.Values, ctx *grb.Context) (answer, error) {
	src, err := intParam(q, "src", 0)
	if err != nil {
		return nil, err
	}
	view, err := g.pattern.ViewInContext(ctx)
	if err != nil {
		return nil, err
	}
	levels, err := lagraph.BFSLevels(view, src)
	if err != nil {
		return nil, err
	}
	idx, vals, err := levels.ExtractTuples()
	if err != nil {
		return nil, err
	}
	return func(w *jsonWriter) {
		w.raw("graph", g.nameJSON).ints("indices", idx).ints("levels", vals).int("reached", int64(len(idx))).int("src", int64(src))
	}, nil
}

func runSSSP(g *Graph, q url.Values, ctx *grb.Context) (answer, error) {
	src, err := intParam(q, "src", 0)
	if err != nil {
		return nil, err
	}
	view, err := g.weights.ViewInContext(ctx)
	if err != nil {
		return nil, err
	}
	dist, err := lagraph.SSSP(view, src)
	if err != nil {
		return nil, err
	}
	idx, vals, err := dist.ExtractTuples()
	if err != nil {
		return nil, err
	}
	return func(w *jsonWriter) {
		w.floats("dist", vals).raw("graph", g.nameJSON).ints("indices", idx).int("reached", int64(len(idx))).int("src", int64(src))
	}, nil
}

func runPageRank(g *Graph, q url.Values, ctx *grb.Context) (answer, error) {
	damping, err := floatParam(q, "damping", 0.85)
	if err != nil {
		return nil, err
	}
	tol, err := floatParam(q, "tol", 1e-6)
	if err != nil {
		return nil, err
	}
	maxIter, err := intParam(q, "maxiter", 50)
	if err != nil {
		return nil, err
	}
	view, err := g.weights.ViewInContext(ctx)
	if err != nil {
		return nil, err
	}
	res, err := lagraph.PageRank(view, damping, tol, maxIter)
	if err != nil {
		return nil, err
	}
	idx, vals, err := res.Ranks.ExtractTuples()
	if err != nil {
		return nil, err
	}
	return func(w *jsonWriter) {
		w.raw("graph", g.nameJSON).ints("indices", idx).int("iterations", int64(res.Iterations)).floats("ranks", vals)
	}, nil
}

func runTriangles(g *Graph, q url.Values, ctx *grb.Context) (answer, error) {
	view, err := g.pattern.ViewInContext(ctx)
	if err != nil {
		return nil, err
	}
	count, err := lagraph.TriangleCount(view)
	if err != nil {
		return nil, err
	}
	return func(w *jsonWriter) { w.raw("graph", g.nameJSON).int("triangles", count) }, nil
}

func runEgo(g *Graph, q url.Values, ctx *grb.Context) (answer, error) {
	src, err := intParam(q, "src", 0)
	if err != nil {
		return nil, err
	}
	hops, err := intParam(q, "hops", 1)
	if err != nil {
		return nil, err
	}
	view, err := g.weights.ViewInContext(ctx)
	if err != nil {
		return nil, err
	}
	sub, verts, err := lagraph.EgoNet(view, src, hops)
	if err != nil {
		return nil, err
	}
	si, sj, sx, err := sub.ExtractTuples()
	if err != nil {
		return nil, err
	}
	// Report edges in original vertex ids, written over the tuples (the
	// caller's copies), so the response stands alone; no edges is [], not null.
	if si == nil {
		si, sj = []grb.Index{}, []grb.Index{}
	}
	for k := range si {
		si[k], sj[k] = verts[si[k]], verts[sj[k]]
	}
	return func(w *jsonWriter) {
		w.ints("edge_dst", sj).ints("edge_src", si).floats("edge_w", sx).raw("graph", g.nameJSON).
			int("hops", int64(hops)).int("src", int64(src)).ints("vertices", verts)
	}, nil
}

// notFoundError tags "unknown graph" so httpStatus can answer 404 instead
// of the generic 500.
type notFoundError struct{ error }
