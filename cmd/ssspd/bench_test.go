package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/ch"
	"repro/internal/cli"
	"repro/internal/dimacs"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/solver"
)

// The 64-query comparison workload: a small graph whose solves are cheap,
// distinct sources, the serial solver, cache off on both sides — so the
// measured difference is per-request overhead, which is exactly what /batch
// amortizes (on this host the solvers share one CPU, so the win is overhead
// elimination, not parallelism).
const benchQueries = 64

func benchServer(tb testing.TB) (*httptest.Server, func()) {
	return benchServerWith(tb, engine.Config{CacheEntries: 0}) // uncached: both sides pay every solve
}

func benchServerWith(tb testing.TB, cfg engine.Config) (*httptest.Server, func()) {
	tb.Helper()
	g := gen.Random(1<<7, 1<<9, 1<<10, gen.UWD, 99)
	srv := newServer(g, ch.BuildKruskal(g), "bench", catalog.Source{}, serverOptions{
		workers: 2, maxInflight: 256, timeout: time.Minute, engine: cfg,
	})
	ts := httptest.NewServer(srv.mux())
	old := log.Writer()
	log.SetOutput(io.Discard) // access logging still formats; don't spam stderr
	return ts, func() {
		ts.Close()
		srv.cat.Close()
		log.SetOutput(old)
	}
}

func sequential64(tb testing.TB, ts *httptest.Server, client *http.Client) {
	for i := 0; i < benchQueries; i++ {
		resp, err := client.Get(fmt.Sprintf("%s/sssp?src=%d&solver=dijkstra", ts.URL, i))
		if err != nil {
			tb.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			tb.Fatalf("status %d", resp.StatusCode)
		}
	}
}

func batch64Body() string {
	var b bytes.Buffer
	b.WriteString(`{"solver":"dijkstra","queries":[`)
	for i := 0; i < benchQueries; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"src":%d}`, i)
	}
	b.WriteString(`]}`)
	return b.String()
}

func batch64(tb testing.TB, ts *httptest.Server, client *http.Client, body string) {
	resp, err := client.Post(ts.URL+"/batch", "application/json", bytes.NewBufferString(body))
	if err != nil {
		tb.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		tb.Fatalf("status %d", resp.StatusCode)
	}
}

// 64 individual HTTP queries, one round-trip each.
func BenchmarkEngineSequential64(b *testing.B) {
	ts, done := benchServer(b)
	defer done()
	client := ts.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sequential64(b, ts, client)
	}
}

// The same 64 queries in one POST /batch round-trip.
func BenchmarkEngineBatch64(b *testing.B) {
	ts, done := benchServer(b)
	defer done()
	client := ts.Client()
	body := batch64Body()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch64(b, ts, client, body)
	}
}

// engineBenchResult is one scenario's measurement in BENCH_engine.json.
type engineBenchResult struct {
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

func measure(f func(b *testing.B)) engineBenchResult {
	r := testing.Benchmark(f)
	return engineBenchResult{
		NsPerOp:     r.NsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// TestWriteEngineBenchJSON emits BENCH_engine.json when BENCH_ENGINE_OUT is
// set (see `make bench-engine`): the pooled-vs-cold, cache-hit-vs-miss, and
// batch-vs-sequential comparisons with their speedup ratios.
func TestWriteEngineBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_ENGINE_OUT")
	if out == "" {
		t.Skip("set BENCH_ENGINE_OUT=path to write the engine benchmark JSON")
	}

	// Engine-level scenarios: a mid-size instance, pinned to the serial
	// Dijkstra path where pooled scratch shows up cleanly in allocations.
	g := gen.Random(1<<12, 1<<14, 1<<10, gen.UWD, 42)
	in := solver.NewInstance(g, par.NewExec(2))
	in.Hierarchy()
	query := func(e *engine.Gen, src int32, name string) {
		if _, _, err := e.Query(context.Background(), engine.Request{Sources: []int32{src}, Solver: name}); err != nil {
			t.Fatal(err)
		}
	}
	cold, _ := solver.ByName("dijkstra") // fresh state per query: the registry's Solve
	pooled := engine.New(in, engine.Config{})
	cached := engine.New(in, engine.Config{CacheEntries: 16})
	query(cached, 17, "thorup") // warm the hot entry

	results := map[string]engineBenchResult{
		"engine_cold_query": measure(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cold.Solve(in, []int32{int32(i % g.NumVertices())})
			}
		}),
		"engine_pooled_query": measure(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				query(pooled, int32(i%g.NumVertices()), "dijkstra")
			}
		}),
		"engine_cache_miss": measure(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				query(cached, int32(i%g.NumVertices()), "thorup")
			}
		}),
		"engine_cache_hit": measure(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				query(cached, 17, "thorup")
			}
		}),
	}

	ts, done := benchServer(t)
	defer done()
	client := ts.Client()
	body := batch64Body()
	results["http_sequential_64"] = measure(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sequential64(b, ts, client)
		}
	})
	results["http_batch_64"] = measure(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			batch64(b, ts, client, body)
		}
	})

	ratio := func(num, den string) float64 {
		return float64(results[num].NsPerOp) / float64(results[den].NsPerOp)
	}
	doc := map[string]any{
		"queries_per_batch": benchQueries,
		"results":           results,
		"pooling_alloc_bytes_saved": results["engine_cold_query"].BytesPerOp -
			results["engine_pooled_query"].BytesPerOp,
		"cache_hit_speedup": ratio("engine_cache_miss", "engine_cache_hit"),
		"batch_speedup":     ratio("http_sequential_64", "http_batch_64"),
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: cache_hit_speedup=%.1fx batch_speedup=%.2fx",
		out, doc["cache_hit_speedup"], doc["batch_speedup"])
	if s := doc["cache_hit_speedup"].(float64); s < 10 {
		t.Errorf("cache hit speedup %.1fx, want >= 10x", s)
	}
	if s := doc["batch_speedup"].(float64); s < 2 {
		t.Errorf("batch speedup %.2fx, want >= 2x", s)
	}
}

// BenchmarkHitPath sizes what ROADMAP item 7(a) can still win: a cached
// /sssp answer against a bare net/http handler that writes the same bytes,
// through the same client over loopback. The gap between the two is all the
// handler stack (mux, admission, catalog acquire, engine cache, trace, access
// log) costs a hit; the rest is the round trip.
func BenchmarkHitPath(b *testing.B) {
	ts, done := benchServerWith(b, engine.Config{CacheEntries: 16})
	defer done()
	client := ts.Client()
	get := func(url string) []byte {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != 200 {
			b.Fatalf("status %d, %v", resp.StatusCode, err)
		}
		return body
	}
	hit := ts.URL + "/sssp?src=7"
	body := get(hit) // the miss that fills the cache
	if !bytes.Contains(get(hit), []byte(`"via":"cache"`)) {
		b.Fatalf("second /sssp was not a cache hit: %s", get(hit))
	}
	echo := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	defer echo.Close()
	for _, c := range []struct{ name, url string }{{"sssp_hit", hit}, {"echo", echo.URL}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				get(c.url)
			}
		})
	}
}

// BenchmarkFirstAnswer is a text cold start in one process, split the way the
// daemon's log line used to split it: Source.Load of a 2^16 .gr file
// (load_ms), newServer and the first /dist through the full handler stack
// (first_answer_ms, from the start of the load), and then what the first
// solver=thorup query takes, the hierarchy's one build included
// (first_thorup_ms, the request alone).
func BenchmarkFirstAnswer(b *testing.B) {
	path := filepath.Join(b.TempDir(), "rand16.gr")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := dimacs.WriteGraph(f, gen.Random(1<<16, 1<<18, 1<<16, gen.UWD, 1), ""); err != nil {
		b.Fatal(err)
	}
	f.Close()
	src := catalog.Source{Spec: cli.Spec{File: path}}
	old := log.Writer()
	log.SetOutput(io.Discard)
	defer log.SetOutput(old)
	var loadMS, firstMS, thorupMS float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		g, h, m, name, err := src.Load(true, b.Logf)
		if err != nil {
			b.Fatal(err)
		}
		loadMS += time.Since(start).Seconds() * 1e3
		srv := newServer(g, h, name, src, serverOptions{
			workers: 4, maxInflight: 64, timeout: 30 * time.Second, mapping: m,
			engine: engine.Config{CacheEntries: 144, CacheBytes: 64 << 20},
		})
		rec := httptest.NewRecorder()
		srv.mux().ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/dist?src=%d&dst=9", i%g.NumVertices()), nil))
		if rec.Code != 200 {
			b.Fatalf("first /dist: %d %s", rec.Code, rec.Body)
		}
		firstMS += time.Since(start).Seconds() * 1e3
		start, rec = time.Now(), httptest.NewRecorder()
		srv.mux().ServeHTTP(rec, httptest.NewRequest("GET", "/sssp?src=1&solver=thorup", nil))
		if rec.Code != 200 || srv.cat.Status()[0].Hierarchy != "built" {
			b.Fatalf("first solver=thorup: %d %s", rec.Code, rec.Body)
		}
		thorupMS += time.Since(start).Seconds() * 1e3
		srv.cat.Close()
	}
	n := float64(b.N)
	b.ReportMetric(loadMS/n, "load_ms")
	b.ReportMetric(firstMS/n, "first_answer_ms")
	b.ReportMetric(thorupMS/n, "first_thorup_ms")
}
