// Command grbserve is the multi-tenant graph query server: it loads Matrix
// Market graphs (or generated ones) as shared immutable snapshots at
// startup and serves concurrent algorithm queries over HTTP/JSON, each
// request under its own deadline- and memory-budgeted Context derived from
// per-tenant config. See the serve package for the endpoint contract.
//
//	grbserve -graph wiki=wiki.mtx -gen smoke=rmat:10 \
//	         -tenant gold:2000:67108864:8:16:5 -addr :8080 \
//	         -mem-highwater 1073741824 -shutdown-timeout 15s -reload
//
// Endpoints: /query/{bfs,sssp,pagerank,triangles,ego}, /graphs, /healthz,
// and /metrics (the grb ops document plus per-tenant request counters and
// the serve control-plane gauges). SIGTERM/SIGINT drain gracefully within
// -shutdown-timeout; SIGHUP re-runs the graph specs and hot-swaps the set
// when -reload is on.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	grb "github.com/grblas/grb"
	"github.com/grblas/grb/serve"
)

// multiFlag collects repeated string flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// parseTenant parses
// name:deadline_ms[:mem_bytes[:max_inflight[:max_queue[:breaker_threshold]]]]
// (later fields optional; 0 means unlimited / disabled). max_inflight is the
// AIMD concurrency ceiling, max_queue the bounded admission queue depth, and
// breaker_threshold the consecutive-failure count that opens the tenant's
// circuit.
func parseTenant(spec string) (string, serve.TenantConfig, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || parts[0] == "" {
		return "", serve.TenantConfig{}, fmt.Errorf("tenant spec %q: want name:deadline_ms[:mem_bytes[:max_inflight[:max_queue[:breaker_threshold]]]]", spec)
	}
	var cfg serve.TenantConfig
	ms, err := strconv.Atoi(parts[1])
	if err != nil {
		return "", cfg, fmt.Errorf("tenant spec %q: bad deadline %q", spec, parts[1])
	}
	cfg.Deadline = time.Duration(ms) * time.Millisecond
	if len(parts) > 2 {
		b, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			return "", cfg, fmt.Errorf("tenant spec %q: bad mem_bytes %q", spec, parts[2])
		}
		cfg.MemoryBytes = b
	}
	if len(parts) > 3 {
		n, err := strconv.Atoi(parts[3])
		if err != nil {
			return "", cfg, fmt.Errorf("tenant spec %q: bad max_inflight %q", spec, parts[3])
		}
		cfg.MaxInFlight = n
	}
	if len(parts) > 4 {
		n, err := strconv.Atoi(parts[4])
		if err != nil {
			return "", cfg, fmt.Errorf("tenant spec %q: bad max_queue %q", spec, parts[4])
		}
		cfg.MaxQueue = n
	}
	if len(parts) > 5 {
		n, err := strconv.Atoi(parts[5])
		if err != nil {
			return "", cfg, fmt.Errorf("tenant spec %q: bad breaker_threshold %q", spec, parts[5])
		}
		cfg.BreakerThreshold = n
	}
	return parts[0], cfg, nil
}

func main() {
	var graphs, gens, tenants multiFlag
	addr := flag.String("addr", ":8080", "listen address")
	deadlineMs := flag.Int("deadline-ms", 5000, "default per-request deadline in milliseconds")
	memBudget := flag.Int64("mem-budget", 0, "default per-request memory budget in bytes (0 = unlimited)")
	memHighWater := flag.Int64("mem-highwater", 0, "server-wide live-memory admission ceiling in bytes (0 = governor off)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "graceful-drain budget on SIGTERM/SIGINT before in-flight queries are canceled")
	reload := flag.Bool("reload", false, "reload the graph set from the -graph/-gen specs on SIGHUP (atomic swap, rollback on failure)")
	selfcheck := flag.Bool("selfcheck", false, "run the serve smoke battery against a live loopback server and exit")
	flag.Var(&graphs, "graph", "name=path.mtx graph to load (repeatable)")
	flag.Var(&gens, "gen", "name=kind:arg generated graph, e.g. smoke=rmat:10 (repeatable)")
	flag.Var(&tenants, "tenant", "name:deadline_ms[:mem_bytes[:max_inflight[:max_queue[:breaker_threshold]]]] tenant envelope (repeatable)")
	flag.Parse()

	if err := grb.Init(grb.NonBlocking); err != nil {
		log.Fatal(err)
	}
	grb.EnableMetrics(true)

	if *selfcheck {
		if err := serve.SelfCheck(); err != nil {
			log.Printf("selfcheck: FAIL: %v", err)
			os.Exit(1)
		}
		log.Printf("selfcheck: ok")
		return
	}

	// loadAll realizes the -graph/-gen specs; SIGHUP reloads reuse it so a
	// hot swap sees exactly what a restart would.
	loadAll := func() ([]*serve.Graph, error) {
		var loaded []*serve.Graph
		for _, spec := range graphs {
			name, path, ok := strings.Cut(spec, "=")
			if !ok {
				return nil, fmt.Errorf("-graph %q: want name=path.mtx", spec)
			}
			t0 := time.Now()
			g, err := serve.LoadMTX(name, path)
			if err != nil {
				return nil, err
			}
			log.Printf("loaded %s: n=%d edges=%d (%.2fs)", name, g.N, g.Edges, time.Since(t0).Seconds())
			loaded = append(loaded, g)
		}
		for _, spec := range gens {
			t0 := time.Now()
			g, err := serve.ParseGenSpec(spec)
			if err != nil {
				return nil, err
			}
			log.Printf("generated %s: n=%d edges=%d (%.2fs)", g.Name, g.N, g.Edges, time.Since(t0).Seconds())
			loaded = append(loaded, g)
		}
		return loaded, nil
	}
	loaded, err := loadAll()
	if err != nil {
		log.Fatal(err)
	}
	if len(loaded) == 0 {
		log.Fatal("no graphs: pass at least one -graph name=path.mtx or -gen name=kind:arg")
	}

	cfg := serve.Config{
		Default: serve.TenantConfig{
			Deadline:    time.Duration(*deadlineMs) * time.Millisecond,
			MemoryBytes: *memBudget,
		},
		Tenants:      map[string]serve.TenantConfig{},
		MemHighWater: *memHighWater,
	}
	for _, spec := range tenants {
		name, tc, err := parseTenant(spec)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Tenants[name] = tc
	}

	s := serve.NewServer(loaded, cfg)
	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}

	// Signal plumbing: SIGTERM/SIGINT drain gracefully (stop admissions,
	// let in-flight queries finish, cancel stragglers past the budget);
	// SIGHUP hot-reloads the graph set when -reload is on.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				log.Printf("signal handler panic: %v", p)
			}
		}()
		for sig := range sigCh {
			if sig == syscall.SIGHUP {
				if !*reload {
					log.Printf("SIGHUP ignored: start with -reload to enable hot graph reload")
					continue
				}
				if err := s.Reload(loadAll); err != nil {
					log.Printf("reload failed, serving previous graph set: %v", err)
				} else {
					log.Printf("graph set reloaded")
				}
				continue
			}
			log.Printf("%v: draining (budget %v)", sig, *shutdownTimeout)
			if err := s.Shutdown(*shutdownTimeout); err != nil {
				log.Printf("drain incomplete: %v", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_ = httpSrv.Shutdown(ctx) // best-effort listener close; the drain already ran
			cancel()
			return
		}
	}()

	log.Printf("grbserve listening on %s (%d graphs, %d tenant envelopes)", *addr, len(loaded), len(cfg.Tenants))
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Printf("grbserve: drained, exiting")
}
