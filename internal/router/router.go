package router

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Config parameterizes a Router.
type Config struct {
	// Table is the fleet description (required, must validate).
	Table *Table
	// DefaultGraph answers requests that carry no ?graph= ("" makes the
	// parameter mandatory and such requests 400).
	DefaultGraph string
	// HealthInterval is how often every backend's /metrics is scraped
	// (default 2s).
	HealthInterval time.Duration
	// HealthTimeout bounds one backend's scrape (default 1s).
	HealthTimeout time.Duration
	// Timeout is the per-request deadline for proxied query endpoints
	// (0 disables; the backends' own -timeout still applies).
	Timeout time.Duration
	// Retry enables the one-retry-on-another-replica policy for idempotent
	// reads (default off; cmd/ssspr turns it on).
	Retry bool
	// RetryBudget is the token-bucket refill rate in retries/second
	// (default 10). The budget is what keeps a brown-out from doubling the
	// offered load: when it is spent, failures propagate instead of retrying.
	RetryBudget float64
	// RetryBackoff is the pause before the second attempt (default 5ms),
	// clipped to the request's remaining deadline.
	RetryBackoff time.Duration
	// Trace configures the router's own tracer (spans: route, backend_wait,
	// retry, fanout_join).
	Trace trace.Config
	// Client issues proxied backend requests (default: a fresh client with
	// pooled connections and no client-level timeout — the request context
	// carries the deadline).
	Client *http.Client
	// Logf receives health transitions and table reloads (default: drop).
	Logf func(format string, args ...any)
}

// Counter names of the router's /metrics "router" group.
const (
	cRouted              = "routed"
	cProxyErrors         = "proxy_errors"
	cRetries             = "retries"
	cRetrySuccess        = "retry_success"
	cRetryBudgetSpent    = "retry_budget_exhausted"
	cNoReplica           = "no_replica"
	cAllShedding         = "all_shedding"
	cTableReloads        = "table_reloads"
	cFanouts             = "fanouts"
	cFanoutSubrequests   = "fanout_subrequests"
	cFanoutItemErrors    = "fanout_item_errors"
	cHealthProbes        = "health_probes"
	cHealthProbeFailures = "health_probe_failures"
	cHealthTransitions   = "health_transitions"
)

// Router fronts a fleet of ssspd backends: it consistent-hashes ?graph=
// across the fleet, keeps per-graph replica sets healthy via /metrics
// scrapes, balances reads with power-of-two-choices, retries idempotent
// reads once on a different replica under a token budget, and fans /batch
// out across a graph's replicas with per-item recombination. It is the
// entire behavior of cmd/ssspr; the command is flags plus this type.
type Router struct {
	cfg  Config
	view atomic.Pointer[fleetView]

	metrics  *obs.Registry
	counters *obs.Group
	tracer   *trace.Tracer
	retryTB  tokenBucket

	client       *http.Client
	healthClient *http.Client

	reloadMu sync.Mutex // serializes Reload (SIGHUP storms)
	stop     chan struct{}
	wg       sync.WaitGroup
}

// fleetView is the immutable routing state one table produces: the table, its
// consistent-hash ring, and the live backend states. Requests read the
// current view once and act on it; Reload swaps a whole new view in beneath
// them, so an in-flight request keeps the backend set it started with.
type fleetView struct {
	table    *Table
	ring     *Ring
	backends []*backendState
	byName   map[string]*backendState
}

// buildView materializes a validated table into a view. Backends that persist
// from prev — same name and URL — keep their backendState object, so health
// and in-flight accounting carry across a reload; everything else starts
// fresh (and unhealthy, until a scrape says otherwise).
func buildView(tbl *Table, prev *fleetView) *fleetView {
	v := &fleetView{
		table:  tbl,
		ring:   BuildRing(tbl),
		byName: make(map[string]*backendState, len(tbl.Backends)),
	}
	for i := range tbl.Backends {
		tb := &tbl.Backends[i]
		url := strings.TrimRight(tb.URL, "/")
		var b *backendState
		if prev != nil {
			if old := prev.byName[tb.Name]; old != nil && old.url == url {
				b = old
				b.setWeight(weightOf(tb))
			}
		}
		if b == nil {
			b = &backendState{name: tb.Name, url: url, weight: weightOf(tb)}
		}
		v.backends = append(v.backends, b)
		v.byName[tb.Name] = b
	}
	return v
}

// New builds a router over cfg.Table, primes health with one synchronous
// scrape round (bounded by HealthTimeout), and starts the background health
// loop. Callers must Close it.
func New(cfg Config) (*Router, error) {
	if cfg.Table == nil {
		return nil, fmt.Errorf("router: Config.Table required")
	}
	if err := cfg.Table.Validate(); err != nil {
		return nil, err
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = time.Second
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 10
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 5 * time.Millisecond
	}
	rt := &Router{
		cfg: cfg,
		metrics: obs.NewRegistry("healthz", "metrics", "fleet", "route", "debug_traces",
			"sssp", "dist", "st", "table", "batch"),
		counters: obs.NewGroup(cRouted, cProxyErrors, cRetries, cRetrySuccess, cRetryBudgetSpent,
			cNoReplica, cAllShedding, cTableReloads, cFanouts, cFanoutSubrequests, cFanoutItemErrors,
			cHealthProbes, cHealthProbeFailures, cHealthTransitions),
		tracer:       trace.New(cfg.Trace),
		client:       cfg.Client,
		healthClient: newHealthClient(),
		stop:         make(chan struct{}),
	}
	rt.retryTB.rate = cfg.RetryBudget
	rt.retryTB.burst = cfg.RetryBudget
	if rt.retryTB.burst < 2 {
		rt.retryTB.burst = 2
	}
	rt.retryTB.tokens = rt.retryTB.burst
	rt.retryTB.last = time.Now()
	if rt.client == nil {
		rt.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	}
	rt.view.Store(buildView(cfg.Table, nil))
	rt.checkOnce(context.Background())
	rt.wg.Add(1)
	go rt.healthLoop()
	return rt, nil
}

// Reload swaps in a new routing table without disturbing traffic: backends
// that persist (same name and URL) keep their health state and in-flight
// accounting, removed backends finish the requests they already carry, and
// backends new to the fleet are primed with one synchronous health round
// before the swap so they never take traffic with unknown health. cmd/ssspr
// calls this on SIGHUP with a re-read table file; a table that fails
// validation is rejected and the current view stays in place.
func (rt *Router) Reload(tbl *Table) error {
	if tbl == nil {
		return fmt.Errorf("router: Reload with nil table")
	}
	if err := tbl.Validate(); err != nil {
		return err
	}
	rt.reloadMu.Lock()
	defer rt.reloadMu.Unlock()
	prev := rt.view.Load()
	next := buildView(tbl, prev)
	var fresh []*backendState
	carried := 0
	for _, b := range next.backends {
		if prev.byName[b.name] == b {
			carried++
		} else {
			fresh = append(fresh, b)
		}
	}
	if len(fresh) > 0 {
		rt.scrape(context.Background(), fresh)
	}
	rt.view.Store(next)
	rt.counters.C(cTableReloads).Inc()
	rt.logf("router: table reloaded: %d backends (%d carried over, %d new)",
		len(next.backends), carried, len(fresh))
	return nil
}

// Close stops the health loop. In-flight proxied requests are unaffected.
func (rt *Router) Close() {
	close(rt.stop)
	rt.wg.Wait()
}

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Logf != nil {
		rt.cfg.Logf(format, args...)
	}
}

// Tracer exposes the router's tracer (tests assert retention through it).
func (rt *Router) Tracer() *trace.Tracer { return rt.tracer }

// Counter returns the named router counter (see the c* snapshot names).
func (rt *Router) Counter(name string) int64 { return rt.counters.C(name).Value() }

// replicasFor resolves a graph to its ring replica set and the eligible
// (healthy, graph-ready) subset, preserving ring order.
func (rt *Router) replicasFor(graph string) (replicas []string, eligible []*backendState) {
	v := rt.view.Load()
	replicas = v.ring.ReplicasFor(graph, v.table.ReplicaCount(graph))
	for _, name := range replicas {
		if b := v.byName[name]; b != nil && b.eligible(graph) {
			eligible = append(eligible, b)
		}
	}
	return replicas, eligible
}

// pick chooses among eligible replicas with power-of-two-choices: two
// distinct random candidates, the one with fewer in-flight proxied requests
// wins. With one candidate there is no choice; with zero the caller sheds.
func pick(eligible []*backendState) *backendState {
	switch len(eligible) {
	case 0:
		return nil
	case 1:
		return eligible[0]
	}
	i := rand.Intn(len(eligible))
	j := rand.Intn(len(eligible) - 1)
	if j >= i {
		j++
	}
	a, b := eligible[i], eligible[j]
	if b.inflight.Load() < a.inflight.Load() {
		return b
	}
	return a
}

// tokenBucket is the retry budget: take() spends one token if the bucket,
// refilled at rate tokens/second up to burst, has one.
type tokenBucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
	rate   float64
	burst  float64
}

func (tb *tokenBucket) take() bool {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	now := time.Now()
	tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
	tb.last = now
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	if tb.tokens < 1 {
		return false
	}
	tb.tokens--
	return true
}

// Mux returns the router's HTTP handler: the ssspd query surface proxied by
// graph, plus the router's own health/metrics/introspection endpoints, all
// behind the shared middleware (httpx). Proxied endpoints are traced and
// carry the Timeout deadline.
func (rt *Router) Mux() *http.ServeMux {
	mw := &httpx.Middleware{Metrics: rt.metrics, Tracer: rt.tracer, Timeout: rt.cfg.Timeout}
	m := http.NewServeMux()
	m.HandleFunc("GET /healthz", mw.Wrap("healthz", false, func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))
	m.HandleFunc("GET /metrics", mw.Wrap("metrics", false, rt.handleMetrics))
	m.HandleFunc("GET /fleet", mw.Wrap("fleet", false, rt.handleFleet))
	m.HandleFunc("GET /route", mw.Wrap("route", false, rt.handleRoute))
	m.HandleFunc("GET /debug/traces", mw.Wrap("debug_traces", false, rt.handleDebugTraces))
	for _, ep := range []string{"sssp", "dist", "st", "table"} {
		m.HandleFunc("GET /"+ep, mw.Wrap(ep, true, rt.countShed(ep, rt.proxyRead)))
	}
	m.HandleFunc("POST /batch", mw.Wrap("batch", true, rt.countShed("batch", rt.handleBatch)))
	return m
}

// countShed is the proxied endpoints' inner handler: every 503 the router
// answers — a backend's shed passed through, no eligible replica, all
// replicas shedding — counts as shed on the endpoint, whoever decided it.
func (rt *Router) countShed(name string, h http.HandlerFunc) http.HandlerFunc {
	ep := rt.metrics.Endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		h(w, r)
		if w.(*httpx.Recorder).Status() == http.StatusServiceUnavailable {
			ep.Shed.Inc()
		}
	}
}

// graphOf resolves the request's target graph (?graph= or the default).
func (rt *Router) graphOf(r *http.Request) string {
	if g := r.URL.Query().Get("graph"); g != "" {
		return g
	}
	return rt.cfg.DefaultGraph
}

// attempt sends one proxied request to a backend and returns the backend's
// response (body unread). The span (backend_wait for first attempts, retry
// for second ones) records the backend identity and outcome.
func (rt *Router) attempt(r *http.Request, b *backendState, spanName string, body []byte) (*http.Response, error) {
	tr := trace.FromContext(r.Context())
	sp := tr.StartSpan(spanName)
	sp.SetAttr("backend", b.name)
	tr.SetBackend(b.name)
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	url := b.url + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, rd)
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.End()
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	if id := tr.ID(); id != "" {
		req.Header.Set("X-Trace-Id", id)
	} else if id := r.Header.Get("X-Trace-Id"); id != "" {
		req.Header.Set("X-Trace-Id", id)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.counters.C(cProxyErrors).Inc()
		sp.SetAttr("error", err.Error())
		sp.End()
		return nil, err
	}
	sp.SetAttr("status", resp.StatusCode)
	sp.End()
	return resp, nil
}

// retryable reports whether an attempt's outcome may be retried on a
// different replica: transport failures and backend-side unavailability.
// 504 is excluded — the deadline is already spent, a second attempt would
// just spend it again.
func retryable(resp *http.Response, err error) bool {
	if err != nil {
		return true
	}
	switch resp.StatusCode {
	case http.StatusInternalServerError, http.StatusBadGateway, http.StatusServiceUnavailable:
		return true
	}
	return false
}

// retryAfterOf is how long an attempt's outcome asks the client to stay away:
// a backend 503's Retry-After in seconds (1 when absent or unparseable, so the
// router never propagates a blank header), 0 for any other outcome.
func retryAfterOf(resp *http.Response) int {
	if resp == nil || resp.StatusCode != http.StatusServiceUnavailable {
		return 0
	}
	if n, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && n >= 1 {
		return n
	}
	return 1
}

// proxyRead handles the idempotent GET query endpoints: route by graph, then
// forward.
func (rt *Router) proxyRead(w http.ResponseWriter, r *http.Request) {
	graph := rt.graphOf(r)
	if graph == "" {
		httpx.Error(w, http.StatusBadRequest, "parameter \"graph\" required (the router has no default graph)")
		return
	}
	eligible, ok := rt.routeSpan(r, graph)
	if !ok {
		rt.shedNoReplica(w, graph)
		return
	}
	rt.forward(w, r, eligible, nil)
}

// sent is the outcome of send: the replica that produced the final resp (body
// unread) or err, whether a second attempt was made, and the largest
// Retry-After any contacted replica shed with (0 when none did).
type sent struct {
	backend    *backendState
	resp       *http.Response
	err        error
	retried    bool
	retryAfter int
}

// send is the router's one retry-once sequence: attempt on first; if that
// outcome is retryable, the deadline is alive and the policy and budget allow,
// abandon it, back off (RetryBackoff clipped to half the remaining deadline)
// and attempt on a different replica.
func (rt *Router) send(r *http.Request, eligible []*backendState, first *backendState, body []byte) sent {
	o := sent{backend: first}
	o.resp, o.err = rt.attempt(r, first, "backend_wait", body)
	o.retryAfter = retryAfterOf(o.resp)
	if !retryable(o.resp, o.err) || r.Context().Err() != nil {
		return o
	}
	second := rt.retryTarget(eligible, first)
	if second == nil {
		return o
	}
	if o.resp != nil {
		drain(o.resp)
	}
	rt.counters.C(cRetries).Inc()
	backoff := rt.cfg.RetryBackoff
	if dl, ok := r.Context().Deadline(); ok {
		if rem := time.Until(dl) / 2; rem < backoff {
			backoff = rem
		}
	}
	if backoff > 0 {
		select {
		case <-time.After(backoff):
		case <-r.Context().Done():
			o.resp, o.err = nil, r.Context().Err()
			return o
		}
	}
	o.backend, o.retried = second, true
	o.resp, o.err = rt.attempt(r, second, "retry", body)
	o.retryAfter = max(o.retryAfter, retryAfterOf(o.resp))
	if o.err == nil && o.resp.StatusCode < 500 {
		rt.counters.C(cRetrySuccess).Inc()
	}
	return o
}

// forward proxies a request (a GET, or a /batch small enough for one
// replica) to a power-of-two-choices pick of eligible and copies the outcome
// to the client.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, eligible []*backendState, body []byte) {
	o := rt.send(r, eligible, pick(eligible), body)
	if o.err != nil {
		httpx.Error(w, http.StatusBadGateway, fmt.Sprintf("backend %s: %v", o.backend.name, o.err))
		return
	}
	if o.retried && o.resp.StatusCode == http.StatusServiceUnavailable {
		// Every replica we reached is shedding: the graph is overloaded
		// tier-wide, and the client is told the longest back-off any replica
		// asked for.
		rt.counters.C(cAllShedding).Inc()
	}
	rt.writeProxied(w, o.resp, o.backend.name, o.retryAfter)
}

// routeSpan resolves the replica set under a "route" span. ok is false when
// no replica is eligible.
func (rt *Router) routeSpan(r *http.Request, graph string) ([]*backendState, bool) {
	tr := trace.FromContext(r.Context())
	sp := tr.StartSpan("route")
	replicas, eligible := rt.replicasFor(graph)
	tr.SetGraph(graph)
	sp.SetAttr("graph", graph)
	sp.SetAttr("replicas", len(replicas))
	sp.SetAttr("eligible", len(eligible))
	sp.End()
	return eligible, len(eligible) > 0
}

// retryTarget picks the second-attempt replica: the best of the eligible set
// excluding the first attempt, if the retry policy and budget allow.
func (rt *Router) retryTarget(eligible []*backendState, first *backendState) *backendState {
	if !rt.cfg.Retry || len(eligible) < 2 {
		return nil
	}
	if !rt.retryTB.take() {
		rt.counters.C(cRetryBudgetSpent).Inc()
		return nil
	}
	rest := make([]*backendState, 0, len(eligible)-1)
	for _, b := range eligible {
		if b != first {
			rest = append(rest, b)
		}
	}
	return pick(rest)
}

// shedNoReplica answers a request whose graph has no eligible replica: 503
// with a Retry-After covering one health interval, since that is how long a
// recovering backend takes to come back into the ring.
func (rt *Router) shedNoReplica(w http.ResponseWriter, graph string) {
	rt.counters.C(cNoReplica).Inc()
	ra := int(rt.cfg.HealthInterval.Seconds() + 1)
	w.Header().Set("Retry-After", strconv.Itoa(ra))
	httpx.Error(w, http.StatusServiceUnavailable,
		fmt.Sprintf("no healthy replica for graph %q", graph))
}

// writeProxied copies a backend response to the client: status, content
// type, backend identity, and — for 503s — retryAfter, the maximum
// Retry-After any contacted replica asked for (never blank).
func (rt *Router) writeProxied(w http.ResponseWriter, resp *http.Response, backend string, retryAfter int) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	} else if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("X-Backend", backend)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	rt.counters.C(cRouted).Inc()
}

// drain discards a response we are abandoning so its connection can be
// reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	resp.Body.Close()
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	fv := rt.view.Load()
	healthy := 0
	views := make([]BackendHealth, 0, len(fv.backends))
	for _, b := range fv.backends {
		v := b.snapshot()
		if v.Healthy {
			healthy++
		}
		views = append(views, v)
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]any{
		"uptime_seconds": rt.metrics.UptimeSeconds(),
		"fleet": map[string]any{
			"backends":         len(fv.backends),
			"healthy":          healthy,
			"vnodes":           fv.table.vnodes(),
			"replicas_default": fv.table.ReplicaCount(""),
		},
		"endpoints": rt.metrics.Snapshot(),
		"router":    rt.counters.Snapshot(),
		"backends":  views,
		"tracing":   rt.tracer.StatsSnapshot(),
		"runtime":   obs.ReadRuntimeStats(),
	})
}

func (rt *Router) handleFleet(w http.ResponseWriter, r *http.Request) {
	fv := rt.view.Load()
	views := make([]BackendHealth, 0, len(fv.backends))
	for _, b := range fv.backends {
		views = append(views, b.snapshot())
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]any{
		"backends":         views,
		"vnodes":           fv.table.vnodes(),
		"replicas_default": fv.table.ReplicaCount(""),
		"default_graph":    rt.cfg.DefaultGraph,
	})
}

// handleRoute answers ?graph= with the ring's replica set and the currently
// eligible subset — the observable a failover test (or an operator) watches
// to see a drain propagate through the health scrape.
func (rt *Router) handleRoute(w http.ResponseWriter, r *http.Request) {
	graph := rt.graphOf(r)
	if graph == "" {
		httpx.Error(w, http.StatusBadRequest, "parameter \"graph\" required")
		return
	}
	replicas, eligible := rt.replicasFor(graph)
	names := make([]string, len(eligible))
	for i, b := range eligible {
		names[i] = b.name
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]any{
		"graph":    graph,
		"replicas": replicas,
		"eligible": names,
	})
}

// handleDebugTraces mirrors ssspd's /debug/traces for the router's own
// spans: httpx.TraceFilter's parameters plus ?backend= on the backend the
// request was routed to.
func (rt *Router) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	f, ok := httpx.TraceFilter(w, r)
	if !ok {
		return
	}
	f.Backend = r.URL.Query().Get("backend")
	httpx.WriteTraces(w, rt.tracer, f)
}
