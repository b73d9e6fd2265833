// Command ssspd is a shortest-path query daemon: it serves a catalog of
// graphs, each with at most one Component Hierarchy queried many times
// concurrently — the service shape the paper's shared-CH design is made for
// (one immutable hierarchy, many simultaneous traversals, cheap per-query
// state).
//
// Usage:
//
//	ssspd -gen rand -logn 16 -addr :8080
//	ssspd -graph city.gr -workers 8 -max-inflight 64 -timeout 10s
//	ssspd -snapshot city.snap -mem-budget 2147483648
//
// Endpoints (all return JSON; query endpoints take ?graph=<name>, default
// the startup graph):
//
//	GET  /sssp?src=17              distances summary + optional full vector
//	GET  /sssp?src=17&full=1       include the distance vector
//	GET  /sssp?src=17&solver=delta force a specific solver (default: policy)
//	GET  /dist?src=17&dst=99       one source-target distance (a targeted query: the engine picks the plan)
//	GET  /st?s=17&t=99             the same query under the s-t names
//	GET  /table?src=1,2&dst=3,4    many-to-many distance table
//	POST /batch                    many queries in one request (JSON body)
//	GET  /graphs                   catalog listing: every graph's lifecycle state
//	POST /graphs/load              admin: load a graph (snapshot, file, or generator); 200 once it serves
//	POST /graphs/reload            admin: rebuild a graph and hot-swap it in; 200 once the new generation serves
//	POST /graphs/unload            admin: drain a graph out of service
//	POST /graphs/{name}/mutate     admin: apply a batch of edge mutations as a new generation
//	GET  /stats                    instance, hierarchy, cache, and catalog statistics
//	GET  /metrics                  per-endpoint + engine + catalog + tracing + runtime metrics
//	GET  /debug/traces             retained request traces (span trees), filterable
//	GET  /healthz                  liveness
//
// Graphs live in an internal/catalog: a load or reload builds inside its own
// admin request, off the query path, swaps are atomic (in-flight queries
// finish on the generation they acquired), and a -mem-budget evicts idle
// graphs LRU-first.
// Snapshots (gengraph -snap, from a generator or a DIMACS file) are served
// zero-copy straight from an mmap of the file (-mmap, default on); mmap-less
// and big-endian hosts fall back to the copy read, and an unmap happens only
// after a retired generation's last in-flight query has released. Text and
// generator sources carry no hierarchy and nothing builds one until a query
// names a solver that reads it (solver=thorup); that request builds it, once.
// Query execution runs through the internal/engine query plane: pooled
// solver state, singleflight deduplication of concurrent identical queries,
// a bounded segmented-LRU result cache (-cache-entries / -cache-bytes), and a
// policy-driven solver choice overridable with ?solver=.
//
// Query endpoints sit behind an admission controller: at most -max-inflight
// queries execute at once, each on its request's goroutine until its work has
// ended, and excess load is shed with 503 + Retry-After. The -timeout deadline
// stops a query's solve (504) unless a concurrent identical query still waits
// on it; the reference solvers (dijkstra, mlb, thorup-serial) run to
// completion. SIGINT/SIGTERM drain in-flight requests before exiting.
//
// Every query request is traced (internal/trace): the X-Trace-Id request
// header is honoured (or an ID generated and echoed back), spans record
// admission, catalog acquire, engine stages, and solver phases, and finished
// traces are tail-sampled (1 in -trace-sample, plus everything slower than
// -slow-query and everything with a client-supplied ID) into a ring of
// -trace-ring traces served by GET /debug/traces. Profiling via
// net/http/pprof is opt-in on a separate -pprof-addr listener so a CPU
// profile can never compete with query admission.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/ch"
	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/httpx"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/solver"
	"repro/internal/trace"
)

func main() {
	var (
		graphFile    = flag.String("graph", "", "DIMACS .gr input file")
		snapFile     = flag.String("snapshot", "", "binary snapshot file for the startup graph (wins over -graph/-gen)")
		genClass     = flag.String("gen", "rand", "generator: rand, rmat, grid, geometric, smallworld")
		logN         = flag.Int("logn", 14, "generated size: n = 2^logn")
		logC         = flag.Int("logc", 14, "generated weights: C = 2^logc")
		seed         = flag.Uint64("seed", 1, "generator seed")
		workers      = flag.Int("workers", 4, "query workers")
		addr         = flag.String("addr", ":8080", "listen address")
		timeout      = flag.Duration("timeout", 30*time.Second, "per-request deadline for query endpoints (0 disables)")
		maxInflight  = flag.Int("max-inflight", 64, "concurrent query admission limit; excess load is shed with 503")
		drain        = flag.Duration("drain", 15*time.Second, "graceful shutdown drain budget")
		cacheEntries = flag.Int("cache-entries", 144, "result cache capacity in distance vectors per graph (0 disables)")
		cacheBytes   = flag.Int64("cache-bytes", 64<<20, "result cache byte budget per graph (0 = entry-bounded only)")
		memBudget    = flag.Int64("mem-budget", 0, "memory budget in bytes for ready graphs; idle graphs are evicted LRU-first beyond it (0 = unlimited)")
		useMmap      = flag.Bool("mmap", true, "serve snapshots zero-copy via mmap (mmap-less and big-endian hosts fall back to the copy read)")
		traceSample  = flag.Int("trace-sample", 100, "tail-sample 1 in N finished query traces into /debug/traces (0 disables tracing)")
		traceRing    = flag.Int("trace-ring", 256, "retained-trace ring buffer capacity for /debug/traces")
		slowQuery    = flag.Duration("slow-query", 0, "log and always retain query traces at least this slow (0 disables the slow-query log)")
		pprofAddr    = flag.String("pprof-addr", "", "serve net/http/pprof on this separate listener (empty disables profiling)")
	)
	flag.Parse()

	src := catalog.Source{Spec: cli.Spec{File: *graphFile, Class: *genClass, LogN: *logN, LogC: *logC, Seed: *seed}}
	if *snapFile != "" {
		src = catalog.Source{Snapshot: *snapFile}
	}
	// The load (parse, or snapshot map and verify) is all a start waits for:
	// a source without a hierarchy serves without one.
	start := time.Now()
	g, h, mapping, name, err := src.Load(*useMmap, log.Printf)
	if err != nil {
		log.Fatalf("ssspd: %v", err)
	}
	loadMS := time.Since(start).Seconds() * 1e3
	srv := newServer(g, h, name, src, serverOptions{
		workers:     *workers,
		maxInflight: *maxInflight,
		timeout:     *timeout,
		engine:      engine.Config{CacheEntries: *cacheEntries, CacheBytes: *cacheBytes},
		memBudget:   *memBudget,
		mmap:        *useMmap,
		mapping:     mapping,
		trace:       trace.Config{SampleN: *traceSample, RingSize: *traceRing, SlowQuery: *slowQuery},
	})
	defer srv.cat.Close()

	if *pprofAddr != "" {
		go servePprof(*pprofAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("ssspd: serving %s (n=%d m=%d, load_ms=%.1f) on %s (workers=%d max-inflight=%d timeout=%s cache=%d/%dB mem-budget=%d)",
		name, g.NumVertices(), g.NumEdges(), loadMS, *addr, *workers, *maxInflight, *timeout, *cacheEntries, *cacheBytes, *memBudget)
	if paceHeap(srv.cat.AccountedBytes, debug.SetGCPercent) != nil {
		log.Printf("ssspd: GC percent set after every cycle for a heap goal of accounted + 2*max(live - accounted, 4 MiB)")
	} else {
		log.Printf("ssspd: GC pacing left to GOGC=%q GOMEMLIMIT=%q", os.Getenv("GOGC"), os.Getenv("GOMEMLIMIT"))
	}
	if err := httpx.Serve(ctx, *addr, srv.mux(), *timeout, *drain, "ssspd"); err != nil {
		log.Fatalf("ssspd: %v", err)
	}
	log.Printf("ssspd: drained, bye")
}

// maxBatchItems caps one /batch request; larger workloads should paginate
// rather than hold one connection (and its admission token) for minutes.
const maxBatchItems = 4096

// serverOptions bundles the daemon's tunables.
type serverOptions struct {
	workers     int
	maxInflight int
	timeout     time.Duration
	engine      engine.Config
	memBudget   int64
	// mmap turns on zero-copy snapshot serving for catalog loads; mapping,
	// when non-nil, is the startup graph's own mapping (ownership passes to
	// its catalog generation).
	mmap    bool
	mapping *snapshot.Mapping
	trace   trace.Config
}

// servePprof serves net/http/pprof on its own listener, explicitly routed so
// none of the profiling handlers ever appear on the query listener: a CPU
// profile or heap dump must not compete with query admission for connection
// or worker capacity.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Printf("ssspd: pprof listening on %s", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Printf("ssspd: pprof listener: %v", err)
	}
}

// server fronts the graph catalog: every query resolves ?graph= (default:
// the startup graph) to a catalog generation, runs against that generation's
// private engine, and releases it when done — which is what lets reloads
// swap generations under live traffic without failing a single query.
type server struct {
	cat          *catalog.Catalog
	defaultGraph string
	ecfg         engine.Config

	metrics *obs.Registry
	tracer  *trace.Tracer
	sem     chan struct{} // admission: one token per in-flight query
	timeout time.Duration
}

// newServer starts a catalog serving (g, h) as name. h is nil when the source
// carried no hierarchy.
func newServer(g *graph.Graph, h *ch.Hierarchy, name string, src catalog.Source, opts serverOptions) *server {
	if opts.maxInflight < 1 {
		opts.maxInflight = 1
	}
	if opts.engine.BatchWorkers == 0 {
		opts.engine.BatchWorkers = opts.workers
	}
	cat := catalog.New(catalog.Config{
		MemoryBudget: opts.memBudget,
		QueryWorkers: opts.workers,
		Engine:       opts.engine,
		MMap:         opts.mmap,
		Logf:         log.Printf,
	})
	if src.Loader == nil && src.Snapshot == "" && src.Spec == (cli.Spec{}) {
		// No reloadable source (tests, programmatic construction): reloads
		// reinstall what the server was given.
		src = catalog.Source{Loader: func() (*graph.Graph, *ch.Hierarchy, error) { return g, h, nil }}
	}
	if _, err := cat.AddPrebuilt(name, src, g, h, opts.mapping); err != nil {
		panic(err) // fresh catalog: the only failure is a duplicate name
	}
	tcfg := opts.trace
	if tcfg.Logf == nil {
		tcfg.Logf = func(format string, args ...any) { log.Printf("ssspd: "+format, args...) }
	}
	return &server{
		cat:          cat,
		defaultGraph: name,
		ecfg:         opts.engine,
		metrics: obs.NewRegistry("healthz", "stats", "metrics", "sssp", "dist", "st", "table", "batch",
			"graphs", "graphs_load", "graphs_reload", "graphs_unload", "graphs_mutate", "debug_traces"),
		tracer:  trace.New(tcfg),
		sem:     make(chan struct{}, opts.maxInflight),
		timeout: opts.timeout,
	}
}

// mux routes every endpoint through the shared middleware (httpx: metrics,
// access log, and — for query endpoints — tracing and the -timeout deadline);
// query endpoints additionally sit behind admit.
func (s *server) mux() *http.ServeMux {
	mw := &httpx.Middleware{Metrics: s.metrics, Tracer: s.tracer, Timeout: s.timeout, AccessLog: accessLog}
	m := http.NewServeMux()
	plain := func(pattern, name string, h http.HandlerFunc) {
		m.HandleFunc(pattern, mw.Wrap(name, false, h))
	}
	query := func(pattern, name string, h graphHandler) {
		m.HandleFunc(pattern, mw.Wrap(name, true, s.admit(name, s.withGraph(h))))
	}
	plain("GET /healthz", "healthz", func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	plain("GET /stats", "stats", s.withGraph(s.handleStats))
	plain("GET /metrics", "metrics", s.handleMetrics)
	query("GET /sssp", "sssp", s.handleSSSP)
	query("GET /dist", "dist", s.pointQuery("src", "dst", true))
	query("GET /st", "st", s.pointQuery("s", "t", false))
	query("GET /table", "table", s.handleTable)
	query("POST /batch", "batch", s.handleBatch)
	plain("GET /graphs", "graphs", s.handleGraphs)
	plain("POST /graphs/load", "graphs_load", s.handleGraphLoad)
	plain("POST /graphs/reload", "graphs_reload", s.handleGraphReload)
	plain("POST /graphs/unload", "graphs_unload", s.handleGraphUnload)
	plain("POST /graphs/{name}/mutate", "graphs_mutate", s.handleGraphMutate)
	plain("GET /debug/traces", "debug_traces", s.handleDebugTraces)
	return m
}

// admit is the query endpoints' inner handler, inside the shared middleware
// (so the request already carries its trace and deadline): semaphore
// admission control. The decision is recorded as an "admission_wait" span, and
// a shed here is the only thing the endpoint's shed counter counts — a 503 for
// a graph that is still loading is not load shedding.
func (s *server) admit(name string, h http.HandlerFunc) http.HandlerFunc {
	ep := s.metrics.Endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		adm := trace.FromContext(r.Context()).StartSpan("admission_wait")
		select {
		case s.sem <- struct{}{}:
			adm.End()
			defer func() { <-s.sem }()
		default:
			// Saturated: shed instead of queueing unboundedly. The client
			// is told when to come back; a well-behaved one backs off.
			adm.SetAttr("shed", true)
			adm.End()
			ep.Shed.Inc()
			w.Header().Set("Retry-After", "1")
			httpx.Error(w, http.StatusServiceUnavailable, "overloaded: query admission limit reached")
			return
		}
		h(w, r)
	}
}

// accessLog emits one structured line per finished request.
func accessLog(name string, r *http.Request, w *httpx.Recorder, d time.Duration) {
	log.Printf("ssspd: access endpoint=%s method=%s path=%q status=%d bytes=%d dur=%s remote=%s",
		name, r.Method, truncate(r.URL.RequestURI(), 256), w.Status(), w.Bytes(), d.Round(time.Microsecond), r.RemoteAddr)
}

// truncate caps a logged string: a /table request can carry a multi-kilobyte
// query string, which would make the access log unreadable.
func truncate(s string, max int) string {
	if len(s) <= max {
		return s
	}
	return s[:max] + fmt.Sprintf("...(%d bytes)", len(s))
}

// graphHandler serves a request on the catalog generation ?graph= resolved
// to; q is the request's query string, parsed once.
type graphHandler func(w http.ResponseWriter, r *http.Request, q url.Values, gen *catalog.Generation)

// withGraph resolves ?graph= (default: the startup graph) to an acquired
// catalog generation and runs h on it, holding the generation until h has
// returned. On failure it answers 404 for a name the catalog has never seen,
// 500 for a failed load, 503 + Retry-After while loading/draining/evicted.
func (s *server) withGraph(h graphHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		gen, release, err := s.cat.AcquireTraced(r.Context(), cmp.Or(q.Get("graph"), s.defaultGraph))
		var nr *catalog.NotReadyError
		switch {
		case err == nil:
			defer release()
			h(w, r, q, gen)
		case errors.Is(err, catalog.ErrUnknownGraph):
			httpx.Error(w, http.StatusNotFound, err.Error())
		case errors.As(err, &nr) && nr.State == catalog.StateFailed:
			httpx.Error(w, http.StatusInternalServerError, err.Error())
		case errors.As(err, &nr):
			w.Header().Set("Retry-After", "1")
			httpx.Error(w, http.StatusServiceUnavailable, err.Error())
		default:
			httpx.Error(w, http.StatusInternalServerError, err.Error())
		}
	}
}

// engineError writes an engine error in its HTTP form.
func engineError(w http.ResponseWriter, err error) {
	code, msg := errStatus(err)
	httpx.Error(w, code, msg)
}

// errStatus maps an engine error to a status and message: request mistakes
// are the client's fault (400), an ended request context is a timeout (504).
func errStatus(err error) (int, string) {
	switch {
	case errors.Is(err, engine.ErrBadQuery):
		return http.StatusBadRequest, err.Error()
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "query deadline exceeded"
	default:
		return http.StatusInternalServerError, err.Error()
	}
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request, _ url.Values, gen *catalog.Generation) {
	h, state, _ := gen.Hierarchy()
	doc := map[string]any{
		"instance":        gen.Name,
		"generation":      gen.Gen,
		"vertices":        gen.G.NumVertices(),
		"edges":           gen.G.NumEdges(),
		"maxWeight":       gen.G.MaxWeight(),
		"delta":           gen.Engine.Delta(),
		"hierarchy":       state,
		"cacheMaxEntries": s.ecfg.CacheEntries,
		"cacheMaxBytes":   s.ecfg.CacheBytes,
		"batchWorkers":    s.ecfg.BatchWorkers,
		"catalog":         s.cat.StatsSnapshot(),
	}
	if h != nil { // /stats describes a hierarchy that is there; it never builds one
		st := h.ComputeStats()
		doc["chNodes"], doc["chHeight"], doc["chAvgChildren"], doc["chBytes"] = st.Components, st.Height, st.AvgChildren, st.CHBytes
		// Arithmetic from the hierarchy's dimensions — no query allocation.
		doc["instanceBytes"] = gen.Engine.InstanceBytes()
	}
	if b, ok := gen.Built()[solver.KindSTIndex]; ok { // likewise only once a targeted query built it
		doc["stIndexBytes"] = b
	}
	httpx.WriteJSON(w, http.StatusOK, doc)
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	doc := map[string]any{
		"instance":       s.defaultGraph,
		"uptime_seconds": s.metrics.UptimeSeconds(),
		"inflight_limit": cap(s.sem),
		"endpoints":      s.metrics.Snapshot(),
		"catalog":        s.cat.StatsSnapshot(),
		"tracing":        s.tracer.StatsSnapshot(),
		"runtime":        obs.ReadRuntimeStats(),
	}
	// The engine, thorup and deltastep sections of every ready graph, and
	// the default graph's at the top level too; while it is unavailable
	// (draining, reloading after a failure) the catalog-level metrics above
	// still serve. A graph's engine counts across all its generations.
	graphs := []map[string]any{}
	for _, gen := range s.cat.Serving() {
		sections := engineSections(gen)
		if gen.Name == s.defaultGraph {
			maps.Copy(doc, sections)
			doc["generation"] = gen.Gen
		}
		sections["name"] = gen.Name
		graphs = append(graphs, sections)
	}
	doc["per_graph"] = graphs
	httpx.WriteJSON(w, http.StatusOK, doc)
}

// engineSections is what /metrics reports of gen's engine.
func engineSections(gen *catalog.Generation) map[string]any {
	agg, runs := gen.Engine.ThorupTrace()
	thorup := map[string]any{"queries": runs, "hops_per_relaxation": agg.HopsPerRelaxation()}
	for k, v := range agg.AttrMap() {
		thorup[k] = v
	}
	refills, scanned := gen.Engine.DeltaRing()
	return map[string]any{
		"engine": gen.Engine.StatsSnapshot(),
		"thorup": thorup,
		"deltastep": map[string]any{
			"delta":            gen.Engine.Delta(),
			"refills":          refills,
			"overflow_scanned": scanned,
		},
	}
}

// handleDebugTraces serves the retained request traces, newest first:
// httpx.TraceFilter's parameters plus ?solver= on the trace's resolved solver.
func (s *server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	f, ok := httpx.TraceFilter(w, r)
	if !ok {
		return
	}
	f.Solver = r.URL.Query().Get("solver")
	httpx.WriteTraces(w, s.tracer, f)
}

func (s *server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	httpx.WriteJSON(w, http.StatusOK, map[string]any{
		"default": s.defaultGraph,
		"graphs":  s.cat.Status(),
	})
}

// loadRequest is the /graphs/load body: a name plus a source — a snapshot
// path, a DIMACS file, or a generator spec. No field names a file the daemon
// writes.
type loadRequest struct {
	Name     string `json:"name"`
	Snapshot string `json:"snapshot,omitempty"`
	File     string `json:"file,omitempty"`
	Class    string `json:"class,omitempty"`
	LogN     int    `json:"logn,omitempty"`
	LogC     int    `json:"logc,omitempty"`
	PWD      bool   `json:"pwd,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
}

// decodeBody decodes a POST body (admin requests and /batch): at most 1 MiB,
// one JSON value, unknown fields refused. On failure the 400 is already
// written.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := httpx.DecodeStrict(http.MaxBytesReader(w, r.Body, 1<<20), v); err != nil {
		httpx.Error(w, http.StatusBadRequest, "bad body: "+err.Error())
		return false
	}
	return true
}

// adminError maps a catalog admin error: unknown names are 404, a failed
// load 500 (as a query on a failed graph is), and lifecycle conflicts (already
// loaded, not ready) 409 — with Retry-After when the same request can succeed
// once the call in flight or the drain is over.
func adminError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, catalog.ErrUnknownGraph):
		httpx.Error(w, http.StatusNotFound, err.Error())
	case errors.Is(err, catalog.ErrLoadFailed):
		httpx.Error(w, http.StatusInternalServerError, err.Error())
	default:
		if errors.Is(err, catalog.ErrBusy) {
			w.Header().Set("Retry-After", "1")
		}
		httpx.Error(w, http.StatusConflict, err.Error())
	}
}

// noWriteDeadline lifts the server's write timeout for an admin request that
// builds a graph: the build may take longer than any query, and its answer
// must not be lost.
func noWriteDeadline(w http.ResponseWriter) {
	if err := http.NewResponseController(w).SetWriteDeadline(time.Time{}); err != nil {
		log.Printf("ssspd: clear write deadline: %v", err)
	}
}

func (s *server) handleGraphLoad(w http.ResponseWriter, r *http.Request) {
	var req loadRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" {
		httpx.Error(w, http.StatusBadRequest, "name required")
		return
	}
	if req.Snapshot == "" && req.File == "" && req.Class == "" {
		httpx.Error(w, http.StatusBadRequest, "source required: snapshot, file, or class")
		return
	}
	src := catalog.Source{
		Snapshot: req.Snapshot,
		Spec:     cli.Spec{File: req.File, Class: req.Class, LogN: req.LogN, LogC: req.LogC, PWD: req.PWD, Seed: req.Seed},
	}
	noWriteDeadline(w)
	gen, err := s.cat.Load(req.Name, src)
	if err != nil {
		adminError(w, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]any{"status": "ready", "name": req.Name, "gen": gen})
}

type nameRequest struct {
	Name string `json:"name"`
}

func (s *server) handleGraphReload(w http.ResponseWriter, r *http.Request) {
	var req nameRequest
	if !decodeBody(w, r, &req) {
		return
	}
	noWriteDeadline(w)
	gen, err := s.cat.Reload(req.Name)
	if err != nil {
		adminError(w, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]any{"status": "ready", "name": req.Name, "gen": gen})
}

func (s *server) handleGraphUnload(w http.ResponseWriter, r *http.Request) {
	var req nameRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := s.cat.Unload(req.Name); err != nil {
		adminError(w, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]string{"status": "unloading", "name": req.Name})
}

// handleGraphMutate applies a JSON batch of edge mutations (set_weight,
// insert, delete) to the named graph and answers 200 with the new generation
// already serving, whatever the batch's width. The write builds no hierarchy:
// the new generation's first solver=thorup does. A malformed or invalid batch
// is 400, an unknown graph 404, and a graph with a load, reload or mutation in
// flight 409 with Retry-After (otherwise not ready: 409) — nothing is applied
// in that case, so the client can simply retry.
func (s *server) handleGraphMutate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	b, err := mutate.ParseRequest(r.Body)
	if err != nil {
		httpx.Error(w, http.StatusBadRequest, "bad mutation batch: "+err.Error())
		return
	}
	res, err := s.cat.Mutate(name, b)
	if err != nil {
		if errors.Is(err, mutate.ErrInvalid) {
			httpx.Error(w, http.StatusBadRequest, err.Error())
			return
		}
		adminError(w, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]any{
		"status": "mutated", "name": name, "gen": res.Gen,
		"touched": res.Touched, "aliased": res.Aliased,
	})
}

// ssspBody is the /sssp response without its vector; its fields are in key
// order, so it encodes to the same bytes a map of them would.
type ssspBody struct {
	Eccentricity int64  `json:"eccentricity"`
	Reached      int    `json:"reached"`
	Solver       string `json:"solver"`
	Src          int32  `json:"src"`
	Via          string `json:"via"`
}

// writeWithDist writes body, a struct whose JSON object has at least one
// member and none that sorts before "dist", with "dist": dist first when dist
// is non-nil. dist is written verbatim: as a json.RawMessage, encoding/json
// would compact the whole array again on every response.
func writeWithDist(w io.Writer, body any, dist []byte) {
	obj, _ := json.Marshal(body) // ints and strings only: cannot fail
	if dist != nil {
		io.WriteString(w, `{"dist":`)
		w.Write(dist)
		obj[0] = ','
	}
	w.Write(obj)
}

// startJSON begins a 200 response whose body the handler writes itself.
func startJSON(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
}

func (s *server) handleSSSP(w http.ResponseWriter, r *http.Request, q url.Values, gen *catalog.Generation) {
	src, ok := vertexParam(w, q, "src", gen.G)
	if !ok {
		return
	}
	res, via, err := gen.Engine.Query(r.Context(), engine.Request{Sources: []int32{src}, Solver: q.Get("solver")})
	if err != nil {
		engineError(w, err)
		return
	}
	var dist []byte
	if q.Get("full") == "1" {
		// The serialized vector (Inf as -1) is built once per result and
		// written verbatim on every later hit — no re-marshal.
		dist = res.DistJSON()
	}
	startJSON(w)
	writeWithDist(w, ssspBody{Eccentricity: res.Eccentricity, Reached: res.Reached, Solver: res.Solver, Src: src, Via: via.String()}, dist)
	io.WriteString(w, "\n")
}

// distBody is the /dist response; its fields are in key order, so it encodes
// to the same bytes a map of them would.
type distBody struct {
	Dist      int64  `json:"dist"`
	Dst       int32  `json:"dst"`
	Reachable bool   `json:"reachable"`
	Solver    string `json:"solver"`
	Src       int32  `json:"src"`
	Via       string `json:"via"`
}

// stBody is the /st response, likewise in key order.
type stBody struct {
	Dist      int64 `json:"dist"`
	Reachable bool  `json:"reachable"`
	S         int32 `json:"s"`
	T         int32 `json:"t"`
}

// pointQuery is the one s-t query path: GET /dist?src=&dst= answers one
// distance and, with plan, how it was found; GET /st?s=&t= the distance alone.
// The engine is told which distance is wanted and chooses how much to compute
// for it.
func (s *server) pointQuery(from, to string, plan bool) graphHandler {
	return func(w http.ResponseWriter, r *http.Request, q url.Values, gen *catalog.Generation) {
		src, ok := vertexParam(w, q, from, gen.G)
		if !ok {
			return
		}
		dst, ok := vertexParam(w, q, to, gen.G)
		if !ok {
			return
		}
		req := engine.Request{Sources: []int32{src}, Solver: q.Get("solver"), Targets: []int32{dst}}
		res, via, err := gen.Engine.Query(r.Context(), req)
		if err != nil {
			engineError(w, err)
			return
		}
		if d := res.Target(0, dst); plan {
			httpx.WriteJSON(w, http.StatusOK, distBody{Dist: jsonDist(d), Dst: dst, Reachable: d < graph.Inf, Solver: res.Solver, Src: src, Via: via.String()})
		} else {
			httpx.WriteJSON(w, http.StatusOK, stBody{Dist: jsonDist(d), Reachable: d < graph.Inf, S: src, T: dst})
		}
	}
}

func (s *server) handleTable(w http.ResponseWriter, r *http.Request, q url.Values, gen *catalog.Generation) {
	sources, ok := vertexListParam(w, q, "src", gen.G)
	if !ok {
		return
	}
	targets, ok := vertexListParam(w, q, "dst", gen.G)
	if !ok {
		return
	}
	if len(sources)*len(targets) > 1<<20 {
		httpx.Error(w, http.StatusBadRequest, "table too large")
		return
	}
	// One engine query per row: rows flow through the worker pool, the cache,
	// and the deduplicator like any other query, so a hot row is free; each
	// names the columns, so a row of few targets need not be a full solve.
	solverName := q.Get("solver")
	reqs := make([]engine.Request, len(sources))
	for i, src := range sources {
		reqs[i] = engine.Request{Sources: []int32{src}, Solver: solverName, Targets: targets}
	}
	results := gen.Engine.Batch(r.Context(), reqs)
	out := make([][]int64, len(results))
	for i, br := range results {
		if br.Err != nil {
			engineError(w, br.Err)
			return
		}
		out[i] = make([]int64, len(targets))
		for j, t := range targets {
			out[i][j] = jsonDist(br.Res.Target(j, t))
		}
	}
	httpx.WriteJSON(w, http.StatusOK, tableBody{Dist: out, Dst: targets, Src: sources})
}

// tableBody is the /table response, in key order.
type tableBody struct {
	Dist [][]int64 `json:"dist"`
	Dst  []int32   `json:"dst"`
	Src  []int32   `json:"src"`
}

// batchItem is one query of a /batch request: src or srcs (multi-source),
// plus an optional per-item solver override.
type batchItem struct {
	Src    *int32  `json:"src,omitempty"`
	Srcs   []int32 `json:"srcs,omitempty"`
	Solver string  `json:"solver,omitempty"`
}

// batchRequest is the /batch body. Solver and Full apply to every item
// unless the item overrides the solver itself.
type batchRequest struct {
	Queries []batchItem `json:"queries"`
	Solver  string      `json:"solver,omitempty"`
	Full    bool        `json:"full,omitempty"`
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request, _ url.Values, gen *catalog.Generation) {
	var breq batchRequest
	if !decodeBody(w, r, &breq) {
		return
	}
	if len(breq.Queries) == 0 {
		httpx.Error(w, http.StatusBadRequest, "batch has no queries")
		return
	}
	if len(breq.Queries) > maxBatchItems {
		httpx.Error(w, http.StatusBadRequest, fmt.Sprintf("batch too large: %d queries (max %d)", len(breq.Queries), maxBatchItems))
		return
	}
	reqs := make([]engine.Request, len(breq.Queries))
	for i, it := range breq.Queries {
		srcs := it.Srcs
		if it.Src != nil {
			srcs = append(srcs, *it.Src)
		}
		reqs[i] = engine.Request{Sources: srcs, Solver: cmp.Or(it.Solver, breq.Solver)}
	}
	// Every item inherits the request's trace ID: batch items are spans of
	// the parent trace, not traces of their own, so one slow item is found
	// by the one ID the client already holds.
	traceID := trace.FromContext(r.Context()).ID()
	// A batch whose deadline has passed before it starts is a timeout as a
	// whole; one whose deadline passes midway answers each item it did not
	// finish with that item's own 504.
	if err := r.Context().Err(); err != nil {
		engineError(w, err)
		return
	}
	results := gen.Engine.Batch(r.Context(), reqs)
	startJSON(w)
	io.WriteString(w, `{"results":[`)
	for i, br := range results {
		if i > 0 {
			io.WriteString(w, ",")
		}
		if br.Err != nil {
			code, msg := errStatus(br.Err)
			writeWithDist(w, batchError{Error: msg, Status: code, TraceID: traceID}, nil)
			continue
		}
		var dist []byte
		if breq.Full {
			dist = br.Res.DistJSON()
		}
		writeWithDist(w, batchAnswer{Eccentricity: br.Res.Eccentricity, Reached: br.Res.Reached,
			Solver: br.Res.Solver, TraceID: traceID, Via: br.Via.String()}, dist)
	}
	io.WriteString(w, "]}\n")
}

// batchAnswer is one answered /batch item without its vector, and batchError
// one that failed; both in key order.
type batchAnswer struct {
	Eccentricity int64  `json:"eccentricity"`
	Reached      int    `json:"reached"`
	Solver       string `json:"solver"`
	TraceID      string `json:"trace_id,omitempty"`
	Via          string `json:"via"`
}

type batchError struct {
	Error   string `json:"error"`
	Status  int    `json:"status"`
	TraceID string `json:"trace_id,omitempty"`
}

func vertexParam(w http.ResponseWriter, q url.Values, name string, g *graph.Graph) (int32, bool) {
	raw := q.Get(name)
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil || v < 0 || int(v) >= g.NumVertices() {
		httpx.Error(w, http.StatusBadRequest, fmt.Sprintf("parameter %q must be a vertex in [0,%d)", name, g.NumVertices()))
		return 0, false
	}
	return int32(v), true
}

func vertexListParam(w http.ResponseWriter, q url.Values, name string, g *graph.Graph) ([]int32, bool) {
	raw := q.Get(name)
	if raw == "" {
		httpx.Error(w, http.StatusBadRequest, fmt.Sprintf("parameter %q required (comma-separated vertices)", name))
		return nil, false
	}
	parts := strings.Split(raw, ",")
	out := make([]int32, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 32)
		if err != nil || v < 0 || int(v) >= g.NumVertices() {
			httpx.Error(w, http.StatusBadRequest, fmt.Sprintf("bad vertex %q in %q", p, name))
			return nil, false
		}
		out = append(out, int32(v))
	}
	return out, true
}

func jsonDist(d int64) int64 {
	if d >= graph.Inf {
		return -1
	}
	return d
}
