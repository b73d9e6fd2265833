package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bytes"

	"repro/internal/catalog"
	"repro/internal/ch"
	"repro/internal/core"
	"repro/internal/deltastep"
	"repro/internal/dijkstra"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mta"
	"repro/internal/par"
	"repro/internal/snapshot"
)

func testGraph() (*graph.Graph, *ch.Hierarchy) {
	g := gen.Random(500, 2000, 1<<10, gen.UWD, 7)
	return g, ch.BuildKruskal(g)
}

func testServerOpts(t *testing.T, maxInflight int, timeout time.Duration) (*httptest.Server, *server, *graph.Graph) {
	t.Helper()
	g, h := testGraph()
	srv := newServer(g, h, "test-instance", catalog.Source{}, serverOptions{
		workers: 4, maxInflight: maxInflight, timeout: timeout,
		engine: engine.Config{CacheEntries: 64, CacheBytes: 8 << 20},
	})
	t.Cleanup(srv.cat.Close)
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return ts, srv, g
}

func testServer(t *testing.T) (*httptest.Server, *graph.Graph) {
	t.Helper()
	ts, _, g := testServerOpts(t, 64, 30*time.Second)
	return ts, g
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestHealthAndStats(t *testing.T) {
	ts, g := testServer(t)
	var health map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 || health["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, health)
	}
	var stats map[string]any
	if code := getJSON(t, ts.URL+"/stats", &stats); code != 200 {
		t.Fatalf("stats: %d", code)
	}
	if int(stats["vertices"].(float64)) != g.NumVertices() {
		t.Fatalf("stats vertices %v", stats["vertices"])
	}
	if stats["chNodes"].(float64) <= float64(g.NumVertices()) {
		t.Fatalf("chNodes %v", stats["chNodes"])
	}
	if stats["instanceBytes"].(float64) <= 0 {
		t.Fatalf("instanceBytes %v", stats["instanceBytes"])
	}
	if got, want := stats["delta"].(float64), float64(deltastep.DefaultDelta(g)); got != want || stats["maxWeight"].(float64) != float64(g.MaxWeight()) {
		t.Fatalf("stats delta %v maxWeight %v, want %v and %d", got, stats["maxWeight"], want, g.MaxWeight())
	}
	cat, ok := stats["catalog"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing catalog section: %v", stats["catalog"])
	}
	if cat["graphs"].(float64) != 1 || cat["ready"].(float64) != 1 {
		t.Fatalf("catalog occupancy: %v", cat)
	}
}

// /stats must report the same instance footprint as an allocated query would,
// without allocating one.
func TestStatsInstanceBytesMatchesQuery(t *testing.T) {
	ts, srv, _ := testServerOpts(t, 8, time.Minute)
	var stats struct {
		InstanceBytes int64 `json:"instanceBytes"`
	}
	if code := getJSON(t, ts.URL+"/stats", &stats); code != 200 {
		t.Fatalf("stats: %d", code)
	}
	gen1, release, err := srv.cat.Acquire(srv.defaultGraph)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	h, _, _ := gen1.Hierarchy()
	if want := core.NewSolver(h, par.NewExec(1)).Query().InstanceBytes(); stats.InstanceBytes != want {
		t.Fatalf("instanceBytes %d, want %d", stats.InstanceBytes, want)
	}
	// The daemon runs the exec kernel, so it must not report the (larger)
	// instance of the sim kernel that Table 2 prints.
	if sim := core.NewSolver(h, mta.NewSim(mta.MTA2(1))).InstanceBytes(); stats.InstanceBytes >= sim {
		t.Fatalf("instanceBytes %d is not below the sim kernel's %d", stats.InstanceBytes, sim)
	}
}

func TestSSSPEndpoint(t *testing.T) {
	ts, g := testServer(t)
	var resp struct {
		Src          int32   `json:"src"`
		Reached      int     `json:"reached"`
		Eccentricity int64   `json:"eccentricity"`
		Dist         []int64 `json:"dist"`
	}
	if code := getJSON(t, ts.URL+"/sssp?src=3&full=1", &resp); code != 200 {
		t.Fatalf("code %d", code)
	}
	want := dijkstra.SSSP(g, 3)
	if resp.Reached != g.NumVertices() {
		t.Fatalf("reached %d", resp.Reached)
	}
	for v := range want {
		w := want[v]
		if w == graph.Inf {
			w = -1
		}
		if resp.Dist[v] != w {
			t.Fatalf("dist[%d]=%d want %d", v, resp.Dist[v], w)
		}
	}
}

// full=1 must report unreachable vertices as -1, not Inf.
func TestSSSPFullUnreachableIsMinusOne(t *testing.T) {
	// Two-vertex graph with a single self-loop: vertex 1 is unreachable.
	g := graph.FromEdges(2, []graph.Edge{{U: 0, V: 0, W: 5}})
	srv := newServer(g, ch.BuildKruskal(g), "disconnected", catalog.Source{},
		serverOptions{workers: 2, maxInflight: 8, timeout: time.Minute})
	t.Cleanup(srv.cat.Close)
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()
	var resp struct {
		Reached int     `json:"reached"`
		Dist    []int64 `json:"dist"`
	}
	if code := getJSON(t, ts.URL+"/sssp?src=0&full=1", &resp); code != 200 {
		t.Fatalf("code %d", code)
	}
	if resp.Reached != 1 {
		t.Fatalf("reached %d, want 1", resp.Reached)
	}
	if len(resp.Dist) != 2 || resp.Dist[0] != 0 || resp.Dist[1] != -1 {
		t.Fatalf("dist %v, want [0 -1]", resp.Dist)
	}
}

func TestDistAndSTEndpointsAgree(t *testing.T) {
	ts, g := testServer(t)
	want := dijkstra.SSSP(g, 10)[450]
	var d1, d2 struct {
		Dist      int64 `json:"dist"`
		Reachable bool  `json:"reachable"`
	}
	if code := getJSON(t, ts.URL+"/dist?src=10&dst=450", &d1); code != 200 {
		t.Fatalf("dist code %d", code)
	}
	if code := getJSON(t, ts.URL+"/st?s=10&t=450", &d2); code != 200 {
		t.Fatalf("st code %d", code)
	}
	if d1.Dist != want || d2.Dist != want || !d1.Reachable {
		t.Fatalf("dist=%d st=%d want %d", d1.Dist, d2.Dist, want)
	}
}

func TestTableEndpoint(t *testing.T) {
	ts, g := testServer(t)
	var resp struct {
		Dist [][]int64 `json:"dist"`
	}
	if code := getJSON(t, ts.URL+"/table?src=0,5&dst=7,9,11", &resp); code != 200 {
		t.Fatalf("code %d", code)
	}
	for i, src := range []int32{0, 5} {
		want := dijkstra.SSSP(g, src)
		for j, tgt := range []int32{7, 9, 11} {
			if resp.Dist[i][j] != want[tgt] {
				t.Fatalf("table[%d][%d]=%d want %d", i, j, resp.Dist[i][j], want[tgt])
			}
		}
	}
}

func TestBadRequests(t *testing.T) {
	ts, _ := testServer(t)
	for _, path := range []string{
		"/sssp?src=99999", "/sssp?src=-1", "/sssp?src=abc", "/sssp",
		"/dist?src=0&dst=99999", "/st?s=0&t=zz",
		"/table?src=0&dst=", "/table?src=&dst=0", "/table?src=0,x&dst=1",
	} {
		var e map[string]string
		if code := getJSON(t, ts.URL+path, &e); code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", path, code)
		}
		if e["error"] == "" {
			t.Errorf("%s: missing error message", path)
		}
	}
}

// A src×dst product beyond the limit must be rejected before any work runs.
func TestTableTooLarge(t *testing.T) {
	g := gen.Random(500, 2000, 1<<10, gen.UWD, 7)
	srv := newServer(g, ch.BuildKruskal(g), "big-table", catalog.Source{},
		serverOptions{workers: 2, maxInflight: 8, timeout: time.Minute})
	t.Cleanup(srv.cat.Close)
	// 500 sources x 500 targets = 250000 <= 1<<20 is fine; force the limit
	// down by hitting the real one: build a 1049-long src list crossing a
	// 1000-long dst list (1049*1000 > 1<<20) from in-range vertices.
	src, dst := "", ""
	for i := 0; i < 500; i++ {
		if i > 0 {
			src += ","
			dst += ","
		}
		src += fmt.Sprint(i % 500)
		dst += fmt.Sprint(i % 500)
	}
	// 500*500 = 250k: allowed. Repeat src 5x -> 2500*500 = 1.25M > 1<<20.
	bigSrc := src + "," + src + "," + src + "," + src + "," + src
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()
	var e map[string]string
	if code := getJSON(t, ts.URL+"/table?src="+bigSrc+"&dst="+dst, &e); code != http.StatusBadRequest {
		t.Fatalf("code %d, want 400", code)
	}
	if e["error"] != "table too large" {
		t.Fatalf("error %q", e["error"])
	}
}

// With the admission semaphore saturated, query endpoints shed with 503 +
// Retry-After while health and metrics stay available.
func TestLoadSheddingWhenSaturated(t *testing.T) {
	ts, srv, _ := testServerOpts(t, 2, time.Minute)
	srv.sem <- struct{}{} // occupy both slots, as two stuck queries would
	srv.sem <- struct{}{}
	defer func() { <-srv.sem; <-srv.sem }()

	for _, path := range []string{"/sssp?src=1", "/dist?src=0&dst=1", "/st?s=0&t=1", "/table?src=0&dst=1", "/batch"} {
		var resp *http.Response
		var err error
		if path == "/batch" {
			resp, err = http.Post(ts.URL+path, "application/json",
				bytes.NewBufferString(`{"queries":[{"src":1}]}`))
		} else {
			resp, err = http.Get(ts.URL + path)
		}
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s: code %d, want 503", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s: missing Retry-After", path)
		}
		if e["error"] == "" {
			t.Fatalf("%s: missing error body", path)
		}
	}
	// Non-query endpoints are not subject to admission control.
	var health map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 {
		t.Fatalf("healthz sheddable: %d", code)
	}
	var m struct {
		Endpoints map[string]struct {
			Shed int64 `json:"shed"`
		} `json:"endpoints"`
	}
	if code := getJSON(t, ts.URL+"/metrics", &m); code != 200 {
		t.Fatalf("metrics sheddable: %d", code)
	}
	if m.Endpoints["sssp"].Shed != 1 || m.Endpoints["table"].Shed != 1 || m.Endpoints["batch"].Shed != 1 {
		t.Fatalf("shed counters not recorded: %+v", m.Endpoints)
	}
}

// An expired per-request deadline answers 504 on every query endpoint and
// counts as a timeout in the metrics.
func TestQueryTimeout(t *testing.T) {
	ts, _, _ := testServerOpts(t, 8, time.Nanosecond)
	for _, path := range []string{"/sssp?src=1", "/dist?src=0&dst=1", "/st?s=0&t=1", "/table?src=0&dst=1"} {
		var e map[string]string
		if code := getJSON(t, ts.URL+path, &e); code != http.StatusGatewayTimeout {
			t.Fatalf("%s: code %d, want 504", path, code)
		}
	}
	resp, err := http.Post(ts.URL+"/batch", "application/json",
		bytes.NewBufferString(`{"queries":[{"src":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("/batch: code %d, want 504", resp.StatusCode)
	}
	var m struct {
		Endpoints map[string]struct {
			Timeout int64 `json:"timeout"`
		} `json:"endpoints"`
	}
	if code := getJSON(t, ts.URL+"/metrics", &m); code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	for _, ep := range []string{"sssp", "dist", "st", "table", "batch"} {
		if m.Endpoints[ep].Timeout != 1 {
			t.Fatalf("%s timeout counter %d, want 1", ep, m.Endpoints[ep].Timeout)
		}
	}
}

// /metrics reflects per-endpoint requests, status classes, latency
// histograms, the aggregated Thorup trace of completed queries, and the
// catalog counters.
func TestMetricsEndpoint(t *testing.T) {
	ts, _, g := testServerOpts(t, 8, time.Minute)
	// Distinct sources pinned to the Thorup solver: the cache must not
	// collapse them, and each run must fold its trace into the aggregate.
	for i := 0; i < 3; i++ {
		var r map[string]any
		if code := getJSON(t, fmt.Sprintf("%s/sssp?src=%d&solver=thorup", ts.URL, i), &r); code != 200 {
			t.Fatalf("sssp: %d", code)
		}
		if r["solver"] != "thorup" || r["via"] != "solve" {
			t.Fatalf("sssp response routing: solver=%v via=%v", r["solver"], r["via"])
		}
	}
	var bad map[string]string
	getJSON(t, ts.URL+"/sssp?src=banana", &bad)

	var m struct {
		Instance      string  `json:"instance"`
		Generation    uint64  `json:"generation"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		InflightLimit int     `json:"inflight_limit"`
		Endpoints     map[string]struct {
			Requests int64            `json:"requests"`
			InFlight int64            `json:"in_flight"`
			Status   map[string]int64 `json:"status"`
			Latency  struct {
				Count   int64 `json:"count"`
				Buckets []struct {
					LEMillis float64 `json:"le_ms"`
					Count    int64   `json:"count"`
				} `json:"buckets"`
			} `json:"latency"`
		} `json:"endpoints"`
		Catalog struct {
			Graphs int64 `json:"graphs"`
			Ready  int64 `json:"ready"`
			Swaps  int64 `json:"swaps"`
		} `json:"catalog"`
		Engine struct {
			Solves      int64            `json:"solves"`
			CacheMisses int64            `json:"cache_misses"`
			SolverRuns  map[string]int64 `json:"solver_runs"`
		} `json:"engine"`
		Thorup struct {
			Queries           int64   `json:"queries"`
			Settled           int64   `json:"settled"`
			Relaxations       int64   `json:"relaxations"`
			PropagationHops   int64   `json:"propagation_hops"`
			HopsPerRelaxation float64 `json:"hops_per_relaxation"`
			Gathers           int64   `json:"gathers"`
			BucketAdvances    int64   `json:"bucket_advances"`
			MaxTovisit        int64   `json:"max_tovisit"`
		} `json:"thorup"`
	}
	if code := getJSON(t, ts.URL+"/metrics", &m); code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	if m.Instance != "test-instance" || m.InflightLimit != 8 || m.Generation != 1 {
		t.Fatalf("identity fields: %+v", m)
	}
	ep := m.Endpoints["sssp"]
	if ep.Requests != 4 || ep.Status["2xx"] != 3 || ep.Status["4xx"] != 1 {
		t.Fatalf("sssp endpoint metrics: %+v", ep)
	}
	if ep.Latency.Count != 4 || len(ep.Latency.Buckets) == 0 {
		t.Fatalf("latency histogram: %+v", ep.Latency)
	}
	// 3 successful queries over a connected 500-vertex graph.
	if m.Thorup.Queries != 3 || m.Thorup.Settled != int64(3*g.NumVertices()) {
		t.Fatalf("thorup aggregate: %+v", m.Thorup)
	}
	if m.Thorup.Relaxations == 0 || m.Thorup.Gathers == 0 || m.Thorup.HopsPerRelaxation <= 0 {
		t.Fatalf("thorup counters empty: %+v", m.Thorup)
	}
	if m.Engine.Solves != 3 || m.Engine.CacheMisses != 3 || m.Engine.SolverRuns["thorup"] != 3 {
		t.Fatalf("engine metrics: %+v", m.Engine)
	}
	if m.Catalog.Graphs != 1 || m.Catalog.Ready != 1 || m.Catalog.Swaps != 1 {
		t.Fatalf("catalog metrics: %+v", m.Catalog)
	}
}

func TestConcurrentQueries(t *testing.T) {
	ts, g := testServer(t)
	oracle := make(map[int32][]int64)
	for _, src := range []int32{0, 100, 200, 300, 400} {
		oracle[src] = dijkstra.SSSP(g, src)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := int32((i % 5) * 100)
			dst := int32(7 + i)
			var resp struct {
				Dist int64 `json:"dist"`
			}
			r, err := http.Get(fmt.Sprintf("%s/dist?src=%d&dst=%d", ts.URL, src, dst))
			if err != nil {
				errs <- err
				return
			}
			defer r.Body.Close()
			if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
				errs <- err
				return
			}
			if want := oracle[src][dst]; resp.Dist != want {
				errs <- fmt.Errorf("src %d dst %d: got %d want %d", src, dst, resp.Dist, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// A second graph loaded through the admin API serves under ?graph= with
// correct answers, independent of the default graph, as soon as the load
// answers; reload advances its generation and unload takes it back out of
// service.
func TestMultiGraphServing(t *testing.T) {
	ts, srv, _ := testServerOpts(t, 64, 30*time.Second)

	// Unknown name: 404 before any work runs.
	var e map[string]string
	if code := getJSON(t, ts.URL+"/sssp?src=0&graph=nope", &e); code != http.StatusNotFound {
		t.Fatalf("unknown graph: code %d, want 404", code)
	}

	// Load a second, different graph from a snapshot so the test knows its
	// exact contents.
	g2 := gen.Random(300, 1200, 1<<10, gen.UWD, 99)
	h2 := ch.BuildKruskal(g2)
	snap := filepath.Join(t.TempDir(), "g2.snap")
	if err := snapshot.WriteFile(snap, g2, h2); err != nil {
		t.Fatal(err)
	}
	var loadResp map[string]any
	body := fmt.Sprintf(`{"name":"g2","snapshot":%q}`, snap)
	if code := postJSON(t, ts.URL+"/graphs/load", body, &loadResp); code != http.StatusOK || loadResp["status"] != "ready" || loadResp["gen"] != 1.0 {
		t.Fatalf("load: code %d (%v), want 200, ready, gen 1", code, loadResp)
	}

	// The second graph answers under its own name, exactly per Dijkstra on it.
	var resp struct {
		Reached int     `json:"reached"`
		Dist    []int64 `json:"dist"`
	}
	if code := getJSON(t, ts.URL+"/sssp?src=3&full=1&graph=g2", &resp); code != 200 {
		t.Fatalf("g2 query: code %d", code)
	}
	want := dijkstra.SSSP(g2, 3)
	if len(resp.Dist) != g2.NumVertices() {
		t.Fatalf("g2 dist length %d, want %d", len(resp.Dist), g2.NumVertices())
	}
	for v, w := range want {
		if w == graph.Inf {
			w = -1
		}
		if resp.Dist[v] != w {
			t.Fatalf("g2 dist[%d]=%d want %d", v, resp.Dist[v], w)
		}
	}
	// The default graph still serves without ?graph=.
	var def map[string]any
	if code := getJSON(t, ts.URL+"/sssp?src=3", &def); code != 200 {
		t.Fatalf("default graph: code %d", code)
	}

	// /graphs lists both graphs as ready.
	var listing struct {
		Default string `json:"default"`
		Graphs  []struct {
			Name      string `json:"name"`
			State     string `json:"state"`
			Gen       uint64 `json:"gen"`
			MaxWeight uint32 `json:"max_weight"`
			Delta     int64  `json:"delta"`
		} `json:"graphs"`
	}
	if code := getJSON(t, ts.URL+"/graphs", &listing); code != 200 {
		t.Fatalf("graphs: code %d", code)
	}
	if listing.Default != "test-instance" || len(listing.Graphs) != 2 {
		t.Fatalf("graphs listing: %+v", listing)
	}
	for _, gs := range listing.Graphs {
		if gs.State != "ready" {
			t.Fatalf("graph %s state %s, want ready", gs.Name, gs.State)
		}
		// Each row says which bucket width its serving generation measured.
		if gs.MaxWeight == 0 || gs.Delta < 2 || gs.Delta > 2*int64(gs.MaxWeight) {
			t.Fatalf("graph %s: max_weight %d, delta %d", gs.Name, gs.MaxWeight, gs.Delta)
		}
	}

	// Reload hot-swaps in a new generation.
	var reloadResp map[string]any
	if code := postJSON(t, ts.URL+"/graphs/reload", `{"name":"g2"}`, &reloadResp); code != http.StatusOK || reloadResp["gen"] != 2.0 {
		t.Fatalf("reload: code %d (%v), want 200 with gen 2", code, reloadResp)
	}
	gen2, release, err := srv.cat.Acquire("g2")
	if err != nil {
		t.Fatal(err)
	}
	if gen2.Gen != 2 {
		t.Fatalf("after reload gen %d, want 2", gen2.Gen)
	}
	release()

	// Unload drains it out of service: queries stop with 503 (evicted) from
	// the moment it answers, the default graph is untouched.
	if code := postJSON(t, ts.URL+"/graphs/unload", `{"name":"g2"}`, &map[string]string{}); code != 200 {
		t.Fatalf("unload: code %d, want 200", code)
	}
	if code := getJSON(t, ts.URL+"/sssp?src=0&graph=g2", &e); code != http.StatusServiceUnavailable {
		t.Fatalf("g2 answers %d after unload, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/sssp?src=3", &def); code != 200 {
		t.Fatalf("default graph after unload: code %d", code)
	}
}

// blockedLoad starts cat loading g as name on a goroutine, with a loader that
// blocks until finish is called, and returns once that load is in flight.
// finish lets the loader go and returns Load's result.
func blockedLoad(t *testing.T, cat *catalog.Catalog, name string, g *graph.Graph) (finish func() (uint64, error)) {
	t.Helper()
	started, unblock := make(chan struct{}), make(chan struct{})
	type result struct {
		gen uint64
		err error
	}
	done := make(chan result, 1)
	go func() {
		gen, err := cat.Load(name, catalog.Source{Loader: func() (*graph.Graph, *ch.Hierarchy, error) {
			close(started)
			<-unblock
			return g, nil, nil
		}})
		done <- result{gen, err}
	}()
	<-started
	return func() (uint64, error) {
		close(unblock)
		r := <-done
		return r.gen, r.err
	}
}

// wantBusy posts body to path and expects the busy answer: 409 with
// Retry-After: 1.
func wantBusy(t *testing.T, base, path, body string) {
	t.Helper()
	if resp := send(t, base, routeCase{path: path, body: body}); resp.StatusCode != http.StatusConflict || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("%s %s: %d Retry-After %q, want 409 with Retry-After 1", path, body, resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// A load that fails answers its error and leaves the entry failed; a retry
// with a good source serves.
func TestGraphLoadFailureThenRetry(t *testing.T) {
	ts, _, _ := testServerOpts(t, 64, 30*time.Second)
	missing := filepath.Join(t.TempDir(), "missing.gr")
	var e map[string]any
	if code := postJSON(t, ts.URL+"/graphs/load", fmt.Sprintf(`{"name":"g2","file":%q}`, missing), &e); code != http.StatusInternalServerError {
		t.Fatalf("load of a missing file: code %d (%v), want 500", code, e)
	}
	if msg, _ := e["error"].(string); !strings.Contains(msg, "load failed") || !strings.Contains(msg, "missing.gr") {
		t.Fatalf("failed load error %q", msg)
	}
	row := func() map[string]any {
		var listing struct {
			Graphs []map[string]any `json:"graphs"`
		}
		getJSON(t, ts.URL+"/graphs", &listing)
		for _, gs := range listing.Graphs {
			if gs["name"] == "g2" {
				return gs
			}
		}
		t.Fatalf("g2 not listed: %+v", listing)
		return nil
	}
	if gs := row(); gs["state"] != "failed" || gs["error"] == nil {
		t.Fatalf("after the failed load: %+v, want failed with its error", gs)
	}
	if code := getJSON(t, ts.URL+"/sssp?src=0&graph=g2", &e); code != http.StatusInternalServerError {
		t.Fatalf("query on the failed graph: code %d, want 500", code)
	}
	var resp map[string]any
	if code := postJSON(t, ts.URL+"/graphs/load", `{"name":"g2","class":"rand","logn":8,"logc":8,"seed":3}`, &resp); code != http.StatusOK || resp["gen"] != 1.0 {
		t.Fatalf("retry: code %d (%v), want 200 with gen 1", code, resp)
	}
	if gs := row(); gs["state"] != "ready" || gs["error"] != nil {
		t.Fatalf("after the retry: %+v, want ready without an error", gs)
	}
	if code := getJSON(t, ts.URL+"/sssp?src=0&graph=g2", &resp); code != http.StatusOK {
		t.Fatalf("query after the retry: code %d, want 200", code)
	}
}

// A name whose last generation is draining cannot be loaded again (409 with
// Retry-After) until the drain is over; once Drained() closes, the next load
// serves. No polling: the drain is the only thing waited for.
func TestGraphLoadWhileDraining(t *testing.T) {
	ts, srv, _ := testServerOpts(t, 64, 30*time.Second)
	const load = `{"name":"g2","class":"rand","logn":8,"logc":8,"seed":3}`
	if code := postJSON(t, ts.URL+"/graphs/load", load, &map[string]any{}); code != http.StatusOK {
		t.Fatalf("load: code %d", code)
	}
	held, release, err := srv.cat.Acquire("g2")
	if err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, ts.URL+"/graphs/unload", `{"name":"g2"}`, &map[string]any{}); code != http.StatusOK {
		t.Fatalf("unload: code %d", code)
	}
	wantBusy(t, ts.URL, "/graphs/load", load)
	release()
	<-held.Drained()
	var resp map[string]any
	if code := postJSON(t, ts.URL+"/graphs/load", load, &resp); code != http.StatusOK || resp["gen"] != 2.0 {
		t.Fatalf("load after the drain: code %d (%v), want 200 with gen 2", code, resp)
	}
}

// A load or reload may outlast the server's write timeout: the two handlers
// lift their own write deadline, so the answer still arrives. Here the
// timeout has expired before any handler writes, which a handler that does
// not lift it (/healthz) shows by losing its answer.
func TestGraphLoadOutlivesWriteTimeout(t *testing.T) {
	_, srv, _ := testServerOpts(t, 64, 30*time.Second)
	ts := httptest.NewUnstartedServer(srv.mux())
	ts.Config.WriteTimeout = time.Nanosecond
	ts.Start()
	t.Cleanup(ts.Close)
	if resp, err := http.Get(ts.URL + "/healthz"); err == nil {
		resp.Body.Close()
		t.Fatalf("/healthz answered %d past the write timeout; the test cannot tell a lifted deadline", resp.StatusCode)
	}
	var resp map[string]any
	if code := postJSON(t, ts.URL+"/graphs/load", `{"name":"g2","class":"rand","logn":6,"logc":4,"seed":1}`, &resp); code != http.StatusOK || resp["gen"] != 1.0 {
		t.Fatalf("load: code %d (%v), want 200 with gen 1", code, resp)
	}
	if code := postJSON(t, ts.URL+"/graphs/reload", `{"name":"g2"}`, &resp); code != http.StatusOK || resp["gen"] != 2.0 {
		t.Fatalf("reload: code %d (%v), want 200 with gen 2", code, resp)
	}
}

// Admin endpoint validation: malformed bodies and lifecycle conflicts map to
// the right status codes, and a generator-source load works end to end.
func TestGraphAdminValidation(t *testing.T) {
	ts, srv, _ := testServerOpts(t, 64, 30*time.Second)
	for _, tc := range []struct {
		path, body string
		want       int
	}{
		{"/graphs/load", `not json`, http.StatusBadRequest},
		{"/graphs/load", `{"snapshot":"x.snap"}`, http.StatusBadRequest},                 // no name
		{"/graphs/load", `{"name":"x"}`, http.StatusBadRequest},                          // no source
		{"/graphs/load", `{"name":"test-instance","class":"rand"}`, http.StatusConflict}, // already loaded
		// The removed CH-cache field: refused at decode, so no HTTP body names a file to write.
		{"/graphs/load", `{"name":"x","class":"rand","logn":8,"ch":"/tmp/x.chb"}`, http.StatusBadRequest},
		{"/graphs/reload", `{"name":"nope"}`, http.StatusNotFound},
		{"/graphs/unload", `{"name":"nope"}`, http.StatusNotFound},
	} {
		var e map[string]string
		if code := postJSON(t, ts.URL+tc.path, tc.body, &e); code != tc.want {
			t.Errorf("%s %s: code %d, want %d (%v)", tc.path, tc.body, code, tc.want, e)
		} else if e["error"] == "" {
			t.Errorf("%s %s: missing error message", tc.path, tc.body)
		}
	}
	if _, _, err := srv.cat.Acquire("x"); !errors.Is(err, catalog.ErrUnknownGraph) {
		t.Errorf("a 400 load still registered the graph: Acquire = %v", err)
	}

	// A generator-described source loads inside the request and serves.
	body := `{"name":"little","class":"rand","logn":8,"logc":8,"seed":3}`
	if code := postJSON(t, ts.URL+"/graphs/load", body, &map[string]any{}); code != http.StatusOK {
		t.Fatalf("generator load: code %d, want 200", code)
	}
	var resp struct {
		Reached int `json:"reached"`
	}
	if code := getJSON(t, ts.URL+"/sssp?src=0&graph=little", &resp); code != 200 || resp.Reached <= 0 {
		t.Fatalf("generator graph query: code %d reached %d", code, resp.Reached)
	}
}

// Shutdown must drain in-flight requests: a request that is mid-handler when
// the stop signal arrives still completes with 200.
func TestGracefulShutdownDrains(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		w.WriteHeader(200)
		fmt.Fprint(w, `{"ok":true}`)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: mux}
	ctx, cancel := context.WithCancel(context.Background())

	serveErr := make(chan error, 1)
	go func() {
		errc := make(chan error, 1)
		go func() { errc <- hs.Serve(ln) }()
		select {
		case err := <-errc:
			serveErr <- err
			return
		case <-ctx.Done():
		}
		sctx, c := context.WithTimeout(context.Background(), 5*time.Second)
		defer c()
		if err := hs.Shutdown(sctx); err != nil {
			serveErr <- err
			return
		}
		serveErr <- nil
	}()

	reqErr := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			reqErr <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			reqErr <- fmt.Errorf("status %d", resp.StatusCode)
			return
		}
		reqErr <- nil
	}()

	<-started // request is in-flight
	cancel()  // shutdown begins while the handler is blocked
	time.Sleep(50 * time.Millisecond)
	close(release) // handler finishes during the drain window

	if err := <-reqErr; err != nil {
		t.Fatalf("in-flight request not drained: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
}
