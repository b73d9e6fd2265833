package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/trace"
)

// fakeBackend is a stand-in ssspd: /metrics reporting configurable per-graph
// lifecycle states, plus query endpoints whose behavior each test scripts.
type fakeBackend struct {
	name string
	srv  *httptest.Server
	hits atomic.Int64

	mu     sync.Mutex
	states map[string]string // graph -> lifecycle state
	// query, when set, scripts every query endpoint's response. Defaults to
	// 200 {"backend": name}.
	query func(w http.ResponseWriter, r *http.Request)
}

func newFakeBackend(t *testing.T, name string, readyGraphs ...string) *fakeBackend {
	fb := &fakeBackend{name: name, states: make(map[string]string)}
	for _, g := range readyGraphs {
		fb.states[g] = "ready"
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		fb.mu.Lock()
		states := make([]map[string]string, 0, len(fb.states))
		for g, s := range fb.states {
			states = append(states, map[string]string{"name": g, "state": s})
		}
		fb.mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{
			"endpoints": map[string]any{},
			"engine":    map[string]any{},
			"catalog":   map[string]any{"graph_states": states},
		})
	})
	serve := func(w http.ResponseWriter, r *http.Request) {
		fb.hits.Add(1)
		fb.mu.Lock()
		q := fb.query
		fb.mu.Unlock()
		if q != nil {
			q(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{"backend": fb.name})
	}
	for _, ep := range []string{"/sssp", "/dist", "/st", "/table"} {
		mux.HandleFunc("GET "+ep, serve)
	}
	mux.HandleFunc("POST /batch", serve)
	fb.srv = httptest.NewServer(mux)
	t.Cleanup(fb.srv.Close)
	return fb
}

func (fb *fakeBackend) setState(graph, state string) {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if state == "" {
		delete(fb.states, graph)
	} else {
		fb.states[graph] = state
	}
}

func (fb *fakeBackend) setQuery(q func(w http.ResponseWriter, r *http.Request)) {
	fb.mu.Lock()
	fb.query = q
	fb.mu.Unlock()
}

// echoBatch scripts /batch to echo each query back as its own result.
func echoBatch(name string) func(w http.ResponseWriter, r *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		var env struct {
			Queries []json.RawMessage `json:"queries"`
			Solver  string            `json:"solver"`
			Full    bool              `json:"full"`
		}
		if err := json.NewDecoder(r.Body).Decode(&env); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		results := make([]map[string]any, len(env.Queries))
		for i, q := range env.Queries {
			results[i] = map[string]any{"backend": name, "query": q}
		}
		json.NewEncoder(w).Encode(map[string]any{"results": results})
	}
}

// newTestRouter builds a router over the fakes with health driven manually
// (interval far beyond test lifetime; New primes with one synchronous round).
func newTestRouter(t *testing.T, cfg Config, fakes ...*fakeBackend) *Router {
	tbl := &Table{Version: 1, Replicas: len(fakes)}
	for _, fb := range fakes {
		tbl.Backends = append(tbl.Backends, Backend{Name: fb.name, URL: fb.srv.URL})
	}
	cfg.Table = tbl
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = time.Hour
	}
	if cfg.Trace.SampleN == 0 {
		cfg.Trace = trace.Config{SampleN: 1, RingSize: 64}
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func TestRoutesOnlyToEligibleReplica(t *testing.T) {
	a := newFakeBackend(t, "a", "g")
	b := newFakeBackend(t, "b", "g")
	rt := newTestRouter(t, Config{Retry: true}, a, b)
	mux := rt.Mux()

	// Both ready: requests land somewhere, never fail.
	for i := 0; i < 20; i++ {
		if w := get(t, mux, "/dist?graph=g&s=0&t=1"); w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, w.Code, w.Body)
		}
	}

	// Drain b: within one health round it must leave g's replica set.
	b.setState("g", "draining")
	rt.CheckNow(context.Background())
	bHits := b.hits.Load()
	for i := 0; i < 30; i++ {
		w := get(t, mux, "/dist?graph=g&s=0&t=1")
		if w.Code != http.StatusOK {
			t.Fatalf("request %d after drain: status %d", i, w.Code)
		}
		if got := w.Header().Get("X-Backend"); got != "a" {
			t.Fatalf("request %d routed to %q, want a (b is draining)", i, got)
		}
	}
	if got := b.hits.Load(); got != bHits {
		t.Fatalf("draining backend took %d new requests", got-bHits)
	}

	// /route must show the shrunken eligible set while the ring keeps both.
	var route struct {
		Replicas []string `json:"replicas"`
		Eligible []string `json:"eligible"`
	}
	if err := json.Unmarshal(get(t, mux, "/route?graph=g").Body.Bytes(), &route); err != nil {
		t.Fatal(err)
	}
	if len(route.Replicas) != 2 {
		t.Fatalf("ring replicas = %v, want both backends", route.Replicas)
	}
	if len(route.Eligible) != 1 || route.Eligible[0] != "a" {
		t.Fatalf("eligible = %v, want [a]", route.Eligible)
	}
}

func TestUnhealthyBackendExcluded(t *testing.T) {
	a := newFakeBackend(t, "a", "g")
	b := newFakeBackend(t, "b", "g")
	rt := newTestRouter(t, Config{Retry: true}, a, b)
	mux := rt.Mux()

	transitions := rt.Counter(cHealthTransitions)
	b.srv.Close()
	rt.CheckNow(context.Background())
	if got := rt.Counter(cHealthTransitions); got <= transitions {
		t.Fatalf("health transitions %d, want increase after backend death", got)
	}
	for i := 0; i < 20; i++ {
		w := get(t, mux, "/sssp?graph=g&source=0")
		if w.Code != http.StatusOK || w.Header().Get("X-Backend") != "a" {
			t.Fatalf("request %d: status %d backend %q, want 200 from a", i, w.Code, w.Header().Get("X-Backend"))
		}
	}
}

func TestNoReplicaSheds503(t *testing.T) {
	a := newFakeBackend(t, "a", "g")
	rt := newTestRouter(t, Config{}, a)
	w := get(t, rt.Mux(), "/dist?graph=missing&s=0&t=1")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if rt.Counter(cNoReplica) == 0 {
		t.Fatal("no_replica counter not incremented")
	}
}

func TestMissingGraphParam400(t *testing.T) {
	a := newFakeBackend(t, "a", "g")
	rt := newTestRouter(t, Config{}, a)
	if w := get(t, rt.Mux(), "/dist?s=0&t=1"); w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 without ?graph=", w.Code)
	}

	// With a default graph configured the same request routes.
	rt2 := newTestRouter(t, Config{DefaultGraph: "g"}, a)
	if w := get(t, rt2.Mux(), "/dist?s=0&t=1"); w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 via default graph", w.Code)
	}

	// A request with no query string at all reaches the backend without a
	// dangling "?".
	var upstream string
	a.setQuery(func(w http.ResponseWriter, r *http.Request) {
		upstream = r.RequestURI
		echoBatch("a")(w, r)
	})
	w := httptest.NewRecorder()
	rt2.Mux().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader([]byte(`{"queries":[{"source":1}]}`))))
	if w.Code != http.StatusOK || upstream != "/batch" {
		t.Fatalf("status %d, upstream request URI %q, want 200 and /batch", w.Code, upstream)
	}
}

func TestRetryOnOtherReplica(t *testing.T) {
	a := newFakeBackend(t, "a", "g")
	b := newFakeBackend(t, "b", "g")
	a.setQuery(func(w http.ResponseWriter, r *http.Request) {
		httpx.Error(w, http.StatusInternalServerError, "boom")
	})
	rt := newTestRouter(t, Config{Retry: true, RetryBudget: 1000, RetryBackoff: time.Microsecond}, a, b)
	mux := rt.Mux()
	for i := 0; i < 40; i++ {
		w := get(t, mux, "/dist?graph=g&s=0&t=1")
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200 (retry should mask a's 500s)", i, w.Code)
		}
		if got := w.Header().Get("X-Backend"); got != "b" {
			t.Fatalf("request %d answered by %q, want b", i, got)
		}
	}
	if rt.Counter(cRetries) == 0 || rt.Counter(cRetrySuccess) == 0 {
		t.Fatalf("retries=%d retry_success=%d, want both > 0",
			rt.Counter(cRetries), rt.Counter(cRetrySuccess))
	}
}

// There is one retry-once sequence, so every proxied shape retries the same
// way: a GET, a /batch small enough for one replica and one shard of a
// fanned-out /batch each wait RetryBackoff after a first-replica 503, land the
// second attempt on a different replica, and count one retry.
func TestRetryBacksOffOnEveryProxiedShape(t *testing.T) {
	const backoff = 40 * time.Millisecond
	big := struct {
		Queries []map[string]int `json:"queries"`
	}{}
	for i := 0; i < 32; i++ {
		big.Queries = append(big.Queries, map[string]int{"source": i})
	}
	bigBody, _ := json.Marshal(big)
	for _, tc := range []struct {
		name, path string
		body       []byte
		attempts   int // backend hits the request must cause
	}{
		{"dist", "/dist?graph=g&s=0&t=1", nil, 2},
		{"small batch", "/batch?graph=g", []byte(`{"queries":[{"source":1}]}`), 2},
		{"fanned-out batch", "/batch?graph=g", bigBody, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type hit struct {
				backend, body string
				at            time.Time
			}
			var mu sync.Mutex
			var hits []hit
			// Whichever replica is asked first sheds; every later attempt
			// succeeds.
			script := func(name string) func(w http.ResponseWriter, r *http.Request) {
				return func(w http.ResponseWriter, r *http.Request) {
					body, _ := io.ReadAll(r.Body)
					mu.Lock()
					first := len(hits) == 0
					hits = append(hits, hit{name, string(body), time.Now()})
					mu.Unlock()
					if first {
						httpx.Error(w, http.StatusServiceUnavailable, "shedding")
						return
					}
					if r.Method == http.MethodGet {
						json.NewEncoder(w).Encode(map[string]string{"backend": name})
						return
					}
					r.Body = io.NopCloser(bytes.NewReader(body))
					echoBatch(name)(w, r)
				}
			}
			a := newFakeBackend(t, "a", "g")
			b := newFakeBackend(t, "b", "g")
			a.setQuery(script("a"))
			b.setQuery(script("b"))
			rt := newTestRouter(t, Config{Retry: true, RetryBudget: 1000, RetryBackoff: backoff}, a, b)
			method := http.MethodGet
			if tc.body != nil {
				method = http.MethodPost
			}
			w := httptest.NewRecorder()
			rt.Mux().ServeHTTP(w, httptest.NewRequest(method, tc.path, bytes.NewReader(tc.body)))
			if w.Code != http.StatusOK {
				t.Fatalf("status %d, want 200 (the retry masks the 503): %s", w.Code, w.Body)
			}
			if len(hits) != tc.attempts {
				t.Fatalf("%d backend attempts, want %d", len(hits), tc.attempts)
			}
			// The retry is the later attempt carrying the shed attempt's body.
			shed, retry := hits[0], hit{}
			for _, h := range hits[1:] {
				if h.body == shed.body {
					retry = h
				}
			}
			if retry.backend == "" || retry.backend == shed.backend {
				t.Fatalf("shed by %q, retried on %q: want a different replica", shed.backend, retry.backend)
			}
			if gap := retry.at.Sub(shed.at); gap < backoff {
				t.Fatalf("retry started %s after the first attempt, want >= RetryBackoff %s", gap, backoff)
			}
			if got := rt.Counter(cRetries); got != 1 {
				t.Fatalf("retries=%d, want exactly 1", got)
			}
		})
	}
}

func TestRetryBudgetExhaustion(t *testing.T) {
	fail := func(w http.ResponseWriter, r *http.Request) {
		httpx.Error(w, http.StatusInternalServerError, "boom")
	}
	a := newFakeBackend(t, "a", "g")
	b := newFakeBackend(t, "b", "g")
	a.setQuery(fail)
	b.setQuery(fail)
	// Budget ~0: after the initial burst of 2 tokens, failures propagate.
	rt := newTestRouter(t, Config{Retry: true, RetryBudget: 0.0001, RetryBackoff: time.Microsecond}, a, b)
	mux := rt.Mux()
	for i := 0; i < 20; i++ {
		if w := get(t, mux, "/dist?graph=g&s=0&t=1"); w.Code != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d, want 500 (both replicas fail)", i, w.Code)
		}
	}
	if rt.Counter(cRetries) > 2 {
		t.Fatalf("retries=%d, want <= burst of 2 under a drained budget", rt.Counter(cRetries))
	}
	if rt.Counter(cRetryBudgetSpent) == 0 {
		t.Fatal("retry_budget_exhausted counter not incremented")
	}
}

// The satellite contract: when every replica of a graph is shedding, the
// router answers 503 carrying the MAXIMUM backend Retry-After — a client that
// obeys it will not return while any replica is still backing off.
func TestAllReplicasSheddingMaxRetryAfter(t *testing.T) {
	shed := func(ra string) func(w http.ResponseWriter, r *http.Request) {
		return func(w http.ResponseWriter, r *http.Request) {
			if ra != "" {
				w.Header().Set("Retry-After", ra)
			}
			httpx.Error(w, http.StatusServiceUnavailable, "shedding")
		}
	}
	a := newFakeBackend(t, "a", "g")
	b := newFakeBackend(t, "b", "g")
	a.setQuery(shed("3"))
	b.setQuery(shed("7"))
	rt := newTestRouter(t, Config{Retry: true, RetryBudget: 1000, RetryBackoff: time.Microsecond}, a, b)
	mux := rt.Mux()
	for i := 0; i < 10; i++ {
		w := get(t, mux, "/dist?graph=g&s=0&t=1")
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", w.Code)
		}
		if got := w.Header().Get("Retry-After"); got != "7" {
			t.Fatalf("Retry-After = %q, want max of replicas (7)", got)
		}
	}
	if rt.Counter(cAllShedding) == 0 {
		t.Fatal("all_shedding counter not incremented")
	}
}

// Status and header propagation for the error statuses a backend emits
// itself: 404 passes through untouched, 504 passes through without retry,
// and a 503 whose backend forgot Retry-After gains one at the router.
func TestErrorStatusPropagation(t *testing.T) {
	cases := []struct {
		name       string
		status     int
		retryAfter string // backend header
		wantRA     string // client-visible header
	}{
		{"404 passthrough", http.StatusNotFound, "", ""},
		{"504 passthrough", http.StatusGatewayTimeout, "", ""},
		{"503 keeps backend Retry-After", http.StatusServiceUnavailable, "5", "5"},
		{"503 never blank Retry-After", http.StatusServiceUnavailable, "", "1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := newFakeBackend(t, "a", "g")
			a.setQuery(func(w http.ResponseWriter, r *http.Request) {
				if tc.retryAfter != "" {
					w.Header().Set("Retry-After", tc.retryAfter)
				}
				httpx.Error(w, tc.status, "scripted")
			})
			rt := newTestRouter(t, Config{Retry: true}, a)
			w := get(t, rt.Mux(), "/dist?graph=g&s=0&t=1")
			if w.Code != tc.status {
				t.Fatalf("status %d, want %d", w.Code, tc.status)
			}
			if got := w.Header().Get("Retry-After"); got != tc.wantRA {
				t.Fatalf("Retry-After = %q, want %q", got, tc.wantRA)
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type = %q, want backend's application/json", ct)
			}
			var body struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body.Error != "scripted" {
				t.Fatalf("body %q did not pass through (err %v)", w.Body, err)
			}
			if tc.status == http.StatusGatewayTimeout && rt.Counter(cRetries) != 0 {
				t.Fatal("504 was retried; the deadline is already spent")
			}
		})
	}
}

func TestBatchFanoutRecombinesInOrder(t *testing.T) {
	a := newFakeBackend(t, "a", "g")
	b := newFakeBackend(t, "b", "g")
	a.setQuery(echoBatch("a"))
	b.setQuery(echoBatch("b"))
	rt := newTestRouter(t, Config{Retry: true}, a, b)

	const items = 32
	var env struct {
		Queries []map[string]int `json:"queries"`
	}
	for i := 0; i < items; i++ {
		env.Queries = append(env.Queries, map[string]int{"source": i})
	}
	body, _ := json.Marshal(env)
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/batch?graph=g", bytes.NewReader(body))
	rt.Mux().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var out struct {
		Results []struct {
			Backend string         `json:"backend"`
			Query   map[string]int `json:"query"`
		} `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != items {
		t.Fatalf("%d results, want %d", len(out.Results), items)
	}
	used := map[string]int{}
	for i, res := range out.Results {
		if res.Query["source"] != i {
			t.Fatalf("result %d echoes query %v; recombination broke order", i, res.Query)
		}
		used[res.Backend]++
	}
	if len(used) != 2 {
		t.Fatalf("fan-out used backends %v, want both", used)
	}
	if rt.Counter(cFanouts) != 1 || rt.Counter(cFanoutSubrequests) != 2 {
		t.Fatalf("fanouts=%d subrequests=%d, want 1 and 2",
			rt.Counter(cFanouts), rt.Counter(cFanoutSubrequests))
	}
	if xb := w.Header().Get("X-Backend"); xb != "a,b" && xb != "b,a" {
		t.Fatalf("X-Backend = %q, want both shard backends", xb)
	}
}

func TestBatchSmallStaysSingle(t *testing.T) {
	a := newFakeBackend(t, "a", "g")
	b := newFakeBackend(t, "b", "g")
	a.setQuery(echoBatch("a"))
	b.setQuery(echoBatch("b"))
	rt := newTestRouter(t, Config{}, a, b)
	body := []byte(`{"queries": [{"source": 1}, {"source": 2}]}`)
	w := httptest.NewRecorder()
	rt.Mux().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/batch?graph=g", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if rt.Counter(cFanouts) != 0 {
		t.Fatal("a 2-item batch fanned out; splitting tiny batches wastes round trips")
	}
}

// A body with anything after its one JSON value is refused with 400 before
// any backend sees it, as ssspd and the mutation parser refuse it.
func TestBatchRefusesTrailingData(t *testing.T) {
	a := newFakeBackend(t, "a", "g")
	a.setQuery(echoBatch("a"))
	rt := newTestRouter(t, Config{}, a)
	for _, body := range []string{`{"queries":[{"src":1}]}{}`, `{"queries":[{"src":1}]} x`} {
		w := httptest.NewRecorder()
		rt.Mux().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/batch?graph=g", bytes.NewReader([]byte(body))))
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", body, w.Code, w.Body)
		}
	}
	if n := a.hits.Load(); n != 0 {
		t.Fatalf("backend saw %d refused batches", n)
	}
}

// A failed shard fails only its own items: the batch still answers 200 and
// the failed shard's items carry per-item error placeholders in place.
func TestBatchShardFailureIsPartial(t *testing.T) {
	a := newFakeBackend(t, "a", "g")
	b := newFakeBackend(t, "b", "g")
	a.setQuery(echoBatch("a"))
	b.setQuery(func(w http.ResponseWriter, r *http.Request) {
		httpx.Error(w, http.StatusInternalServerError, "shard down")
	})
	rt := newTestRouter(t, Config{}, a, b) // no retry: the failure must surface
	const items = 32
	var env struct {
		Queries []map[string]int `json:"queries"`
	}
	for i := 0; i < items; i++ {
		env.Queries = append(env.Queries, map[string]int{"source": i})
	}
	body, _ := json.Marshal(env)
	w := httptest.NewRecorder()
	rt.Mux().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/batch?graph=g", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 with partial results", w.Code)
	}
	var out struct {
		Results []struct {
			Backend string `json:"backend"`
			Error   string `json:"error"`
			Status  int    `json:"status"`
		} `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	okItems, errItems := 0, 0
	for i, res := range out.Results {
		switch {
		case res.Backend == "a" && res.Error == "":
			okItems++
		case res.Error != "" && res.Status == http.StatusInternalServerError:
			errItems++
		default:
			t.Fatalf("result %d: unexpected shape %+v", i, res)
		}
	}
	if okItems != items/2 || errItems != items/2 {
		t.Fatalf("ok=%d err=%d, want an even split of %d", okItems, errItems, items)
	}
	if got := rt.Counter(cFanoutItemErrors); got != int64(items/2) {
		t.Fatalf("fanout_item_errors=%d, want %d", got, items/2)
	}
}

func TestBatchAllShardsShedding(t *testing.T) {
	shed := func(ra string) func(w http.ResponseWriter, r *http.Request) {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", ra)
			httpx.Error(w, http.StatusServiceUnavailable, "shedding")
		}
	}
	a := newFakeBackend(t, "a", "g")
	b := newFakeBackend(t, "b", "g")
	a.setQuery(shed("2"))
	b.setQuery(shed("9"))
	rt := newTestRouter(t, Config{}, a, b)
	var env struct {
		Queries []map[string]int `json:"queries"`
	}
	for i := 0; i < 32; i++ {
		env.Queries = append(env.Queries, map[string]int{"source": i})
	}
	body, _ := json.Marshal(env)
	w := httptest.NewRecorder()
	rt.Mux().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/batch?graph=g", bytes.NewReader(body)))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 when every shard sheds", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "9" {
		t.Fatalf("Retry-After = %q, want max across shards (9)", got)
	}
}

func TestTraceBackendAttribution(t *testing.T) {
	a := newFakeBackend(t, "a", "g")
	rt := newTestRouter(t, Config{Trace: trace.Config{SampleN: 1, RingSize: 64}}, a)
	mux := rt.Mux()
	for i := 0; i < 5; i++ {
		if w := get(t, mux, fmt.Sprintf("/dist?graph=g&s=%d&t=1", i)); w.Code != http.StatusOK {
			t.Fatalf("request %d: %d", i, w.Code)
		}
	}
	var out struct {
		Traces []struct {
			Backend string `json:"backend"`
			Spans   struct {
				Children []struct {
					Name string `json:"name"`
				} `json:"children"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(get(t, mux, "/debug/traces?backend=a").Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Traces) != 5 {
		t.Fatalf("%d traces for backend=a, want 5", len(out.Traces))
	}
	names := map[string]bool{}
	for _, c := range out.Traces[0].Spans.Children {
		names[c.Name] = true
	}
	if !names["route"] || !names["backend_wait"] {
		t.Fatalf("span names %v, want route and backend_wait", names)
	}
	if err := json.Unmarshal(get(t, mux, "/debug/traces?backend=nope").Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Traces) != 0 {
		t.Fatalf("%d traces for unknown backend, want 0", len(out.Traces))
	}
}

func TestTraceIDPropagatesToBackend(t *testing.T) {
	var got atomic.Value
	a := newFakeBackend(t, "a", "g")
	a.setQuery(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get("X-Trace-Id"))
		json.NewEncoder(w).Encode(map[string]string{"backend": "a"})
	})
	rt := newTestRouter(t, Config{}, a)
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/dist?graph=g&s=0&t=1", nil)
	req.Header.Set("X-Trace-Id", "client-chosen-id")
	rt.Mux().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if id, _ := got.Load().(string); id != "client-chosen-id" {
		t.Fatalf("backend saw X-Trace-Id %q, want the client's", id)
	}
	if echoed := w.Header().Get("X-Trace-Id"); echoed != "client-chosen-id" {
		t.Fatalf("router echoed X-Trace-Id %q", echoed)
	}
}

func TestMetricsAndFleetEndpoints(t *testing.T) {
	a := newFakeBackend(t, "a", "g")
	b := newFakeBackend(t, "b", "g")
	rt := newTestRouter(t, Config{}, a, b)
	mux := rt.Mux()
	get(t, mux, "/dist?graph=g&s=0&t=1")

	var metrics map[string]any
	if err := json.Unmarshal(get(t, mux, "/metrics").Body.Bytes(), &metrics); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"uptime_seconds", "fleet", "endpoints", "router", "backends", "tracing", "runtime"} {
		if _, ok := metrics[key]; !ok {
			t.Errorf("/metrics missing %q", key)
		}
	}
	fleet := metrics["fleet"].(map[string]any)
	if fleet["healthy"].(float64) != 2 {
		t.Fatalf("fleet.healthy = %v, want 2", fleet["healthy"])
	}

	var fleetDoc struct {
		Backends []BackendHealth `json:"backends"`
	}
	if err := json.Unmarshal(get(t, mux, "/fleet").Body.Bytes(), &fleetDoc); err != nil {
		t.Fatal(err)
	}
	if len(fleetDoc.Backends) != 2 {
		t.Fatalf("/fleet lists %d backends, want 2", len(fleetDoc.Backends))
	}
	for _, bh := range fleetDoc.Backends {
		if !bh.Healthy || bh.Graphs["g"] != "ready" {
			t.Fatalf("backend %s: healthy=%v graphs=%v", bh.Name, bh.Healthy, bh.Graphs)
		}
	}
}

// In-flight requests must survive a backend losing eligibility mid-request:
// the health flip only changes where NEW requests go.
func TestDrainDoesNotDropInFlight(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	a := newFakeBackend(t, "a", "g")
	a.setQuery(func(w http.ResponseWriter, r *http.Request) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		json.NewEncoder(w).Encode(map[string]string{"backend": "a"})
	})
	rt := newTestRouter(t, Config{}, a)
	mux := rt.Mux()

	done := make(chan int, 1)
	go func() {
		w := get(t, mux, "/dist?graph=g&s=0&t=1")
		done <- w.Code
	}()
	<-entered
	// The backend starts draining while the request is inside it.
	a.setState("g", "draining")
	rt.CheckNow(context.Background())
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("in-flight request finished %d, want 200", code)
	}
	// New requests shed (the only replica is draining).
	if w := get(t, mux, "/dist?graph=g&s=0&t=1"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request got %d, want 503", w.Code)
	}
}

func TestProxyTransportError502(t *testing.T) {
	a := newFakeBackend(t, "a", "g")
	rt := newTestRouter(t, Config{}, a)
	// Kill the backend after health priming so the scrape view is stale-healthy.
	a.srv.CloseClientConnections()
	a.srv.Close()
	w := get(t, rt.Mux(), "/dist?graph=g&s=0&t=1")
	if w.Code != http.StatusBadGateway {
		t.Fatalf("status %d, want 502 on transport error", w.Code)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Fatalf("502 body %q, want JSON error", w.Body)
	}
	if rt.Counter(cProxyErrors) == 0 {
		t.Fatal("proxy_errors counter not incremented")
	}
}

func TestPowerOfTwoChoicesPrefersIdle(t *testing.T) {
	a := &backendState{name: "busy"}
	b := &backendState{name: "idle"}
	a.inflight.Store(100)
	for i := 0; i < 50; i++ {
		if got := pick([]*backendState{a, b}); got != b {
			t.Fatalf("pick chose %s over an idle backend", got.name)
		}
	}
	if pick(nil) != nil {
		t.Fatal("pick(nil) != nil")
	}
	if pick([]*backendState{a}) != a {
		t.Fatal("pick of one candidate must return it")
	}
}

func TestBodyPassThrough(t *testing.T) {
	a := newFakeBackend(t, "a", "g")
	payload := map[string]any{"dist": 42, "reached": 7, "backend": "a"}
	a.setQuery(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(payload)
	})
	rt := newTestRouter(t, Config{}, a)
	w := get(t, rt.Mux(), "/dist?graph=g&s=0&t=1")
	raw, _ := io.ReadAll(w.Body)
	var got map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got["dist"].(float64) != 42 || got["reached"].(float64) != 7 {
		t.Fatalf("body %s did not pass through", raw)
	}
}
