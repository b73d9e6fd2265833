package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/trace"
)

// logSink collects slow-query lines emitted through the tracer.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logSink) all() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

// tracedServer is testServerOpts with tracing on: retain every trace, flag
// everything slower than slow as a slow query.
func tracedServer(t *testing.T, sampleN int, slow time.Duration) (*httptest.Server, *server, *logSink) {
	t.Helper()
	g, h := testGraph()
	sink := &logSink{}
	srv := newServer(g, h, "test-instance", catalog.Source{}, serverOptions{
		workers: 4, maxInflight: 64, timeout: 30 * time.Second,
		engine: engine.Config{CacheEntries: 64, CacheBytes: 8 << 20},
		trace:  trace.Config{SampleN: sampleN, RingSize: 64, SlowQuery: slow, Logf: sink.logf},
	})
	t.Cleanup(srv.cat.Close)
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return ts, srv, sink
}

func getTraces(t *testing.T, ts *httptest.Server, query string) []*trace.TraceJSON {
	t.Helper()
	var resp struct {
		Enabled bool               `json:"enabled"`
		Traces  []*trace.TraceJSON `json:"traces"`
	}
	if code := getJSON(t, ts.URL+"/debug/traces"+query, &resp); code != 200 {
		t.Fatalf("/debug/traces%s: status %d", query, code)
	}
	return resp.Traces
}

func TestTraceIDGeneratedAndEchoed(t *testing.T) {
	ts, _, _ := tracedServer(t, 1, 0)
	resp, err := http.Get(ts.URL + "/sssp?src=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Trace-Id")
	if id == "" {
		t.Fatal("no X-Trace-Id on a traced query response")
	}
	traces := getTraces(t, ts, "")
	if len(traces) != 1 || traces[0].ID != id {
		t.Fatalf("retained traces %+v, want one with ID %s", traces, id)
	}
}

func TestExplicitTraceIDSurvivesToRingAndSlowLog(t *testing.T) {
	// Sampling effectively off and the slow threshold at 1ns: retention must
	// come from the explicit ID and the slow path, both tagged with the
	// client's ID.
	ts, _, sink := tracedServer(t, 1<<30, time.Nanosecond)
	req, _ := http.NewRequest("GET", ts.URL+"/sssp?src=3", nil)
	req.Header.Set("X-Trace-Id", "my-debug-id-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != "my-debug-id-42" {
		t.Fatalf("echoed ID %q, want the client's", got)
	}
	traces := getTraces(t, ts, "")
	if len(traces) != 1 || traces[0].ID != "my-debug-id-42" {
		t.Fatalf("explicit ID not in /debug/traces: %+v", traces)
	}
	lines := sink.all()
	if len(lines) != 1 || !strings.Contains(lines[0], "trace=my-debug-id-42") {
		t.Fatalf("slow-query log %v must carry the explicit trace ID", lines)
	}
	if !strings.Contains(lines[0], "endpoint=sssp") || !strings.Contains(lines[0], `graph="test-instance"`) {
		t.Fatalf("slow-query line missing endpoint/graph: %q", lines[0])
	}
}

func TestTraceSpanTreeCoversStages(t *testing.T) {
	ts, _, _ := tracedServer(t, 1, time.Nanosecond)
	resp, err := http.Get(ts.URL + "/sssp?src=5&solver=thorup")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	traces := getTraces(t, ts, "")
	if len(traces) != 1 {
		t.Fatalf("retained %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Endpoint != "sssp" || tr.Graph != "test-instance" || tr.Solver != "thorup" || tr.Status != 200 {
		t.Fatalf("trace metadata: %+v", tr)
	}
	names := map[string]*trace.SpanJSON{}
	var walk func(s *trace.SpanJSON)
	walk = func(s *trace.SpanJSON) {
		names[s.Name] = s
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(tr.Spans)
	for _, want := range []string{"admission_wait", "catalog_acquire", "cache_lookup", "solve", "pool_checkout"} {
		if names[want] == nil {
			t.Errorf("span %q missing from trace (have %v)", want, keys(names))
		}
	}
	// The solve span carries the solver-phase counters derived from
	// core.Trace.
	solve := names["solve"]
	if solve == nil {
		t.Fatal("no solve span")
	}
	if solve.Attrs["solver"] != "thorup" {
		t.Fatalf("solve attrs: %v", solve.Attrs)
	}
	for _, attr := range []string{"settled", "relaxations", "bucket_advances", "gathers"} {
		if _, ok := solve.Attrs[attr]; !ok {
			t.Errorf("solve span missing phase attribute %q (have %v)", attr, solve.Attrs)
		}
	}
	if settled, ok := solve.Attrs["settled"].(float64); !ok || settled <= 0 {
		t.Errorf("settled attr = %v, want > 0", solve.Attrs["settled"])
	}
	// Acceptance: the stage durations sum to within the request's measured
	// wall time — stages are sequential, so their sum can never exceed it.
	var sumUS int64
	for _, c := range tr.Spans.Children {
		sumUS += c.DurUS
	}
	wallUS := int64(tr.DurMS * 1e3)
	if sumUS > wallUS+1 { // +1us for independent microsecond truncation
		t.Fatalf("stage durations sum to %dus > wall time %dus", sumUS, wallUS)
	}
	if sumUS == 0 {
		t.Fatal("all stage durations are zero; spans not measuring")
	}
}

// An auto multi-source query runs delta-stepping, and /debug/traces alone says
// with which bucket width and what its overflow list cost; /metrics sums the
// latter next to the serving generation's width.
func TestTraceSolveSpanSaysWhichDelta(t *testing.T) {
	ts, srv, _ := tracedServer(t, 1, time.Nanosecond)
	var out map[string]any
	if code := postJSON(t, ts.URL+"/batch", `{"queries":[{"srcs":[5,90,300]}]}`, &out); code != 200 {
		t.Fatalf("batch: %d", code)
	}
	traces := getTraces(t, ts, "")
	if len(traces) != 1 {
		t.Fatalf("retained %d traces, want 1", len(traces))
	}
	var solve *trace.SpanJSON
	var walk func(s *trace.SpanJSON)
	walk = func(s *trace.SpanJSON) {
		if s.Name == "solve" {
			solve = s
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(traces[0].Spans)
	gen, release, err := srv.cat.Acquire(srv.defaultGraph)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if solve == nil || solve.Attrs["solver"] != "delta" || solve.Attrs["sources"] != float64(3) ||
		solve.Attrs["delta"] != float64(gen.Engine.Delta()) {
		t.Fatalf("solve span %+v, serving delta %d", solve, gen.Engine.Delta())
	}
	for _, attr := range []string{"refills", "overflow_scanned"} {
		if _, ok := solve.Attrs[attr]; !ok {
			t.Errorf("solve span missing %q (have %v)", attr, solve.Attrs)
		}
	}
	var m struct {
		Deltastep map[string]int64 `json:"deltastep"`
	}
	if code := getJSON(t, ts.URL+"/metrics", &m); code != 200 || m.Deltastep["delta"] != gen.Engine.Delta() {
		t.Fatalf("metrics deltastep section: %d %v", code, m.Deltastep)
	}
}

func TestBatchItemsCarryParentTraceID(t *testing.T) {
	ts, _, _ := tracedServer(t, 1, 0)
	body := `{"queries":[{"src":1},{"src":2},{"src":-9}]}`
	req, _ := http.NewRequest("POST", ts.URL+"/batch", bytes.NewBufferString(body))
	req.Header.Set("X-Trace-Id", "batch-parent-7")
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var out struct {
		Results []map[string]any `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("results: %d", len(out.Results))
	}
	for i, item := range out.Results {
		if item["trace_id"] != "batch-parent-7" {
			t.Fatalf("item %d trace_id = %v, want the parent's", i, item["trace_id"])
		}
	}
	if _, isErr := out.Results[2]["error"]; !isErr {
		t.Fatal("item 2 should be a per-item error and still carry the trace ID")
	}
	// The retained batch trace holds one "item" span per item.
	traces := getTraces(t, ts, "")
	if len(traces) != 1 {
		t.Fatalf("retained %d traces", len(traces))
	}
	items := 0
	for _, c := range traces[0].Spans.Children {
		if c.Name == "item" {
			items++
		}
	}
	if items != 3 {
		t.Fatalf("batch trace has %d item spans, want 3", items)
	}
}

func TestDebugTracesFilters(t *testing.T) {
	ts, _, _ := tracedServer(t, 1, 0)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/sssp?src=%d", ts.URL, i))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if got := getTraces(t, ts, ""); len(got) != 3 {
		t.Fatalf("unfiltered: %d, want 3", len(got))
	}
	if got := getTraces(t, ts, "?graph=test-instance"); len(got) != 3 {
		t.Fatalf("graph match: %d, want 3", len(got))
	}
	if got := getTraces(t, ts, "?graph=nope"); len(got) != 0 {
		t.Fatalf("graph mismatch: %d, want 0", len(got))
	}
	if got := getTraces(t, ts, "?min_ms=60000"); len(got) != 0 {
		t.Fatalf("min_ms huge: %d, want 0", len(got))
	}
	if got := getTraces(t, ts, "?limit=2"); len(got) != 2 {
		t.Fatalf("limit: %d, want 2", len(got))
	}
	var resp map[string]any
	if code := getJSON(t, ts.URL+"/debug/traces?min_ms=-1", &resp); code != 400 {
		t.Fatalf("negative min_ms: status %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/debug/traces?limit=zero", &resp); code != 400 {
		t.Fatalf("bad limit: status %d, want 400", code)
	}
}

func TestTracingDisabled(t *testing.T) {
	// SampleN 0 turns the layer off entirely: no header, no retained traces,
	// and /debug/traces still answers (empty) rather than 404ing.
	ts, _, _ := tracedServer(t, 0, 0)
	resp, err := http.Get(ts.URL + "/sssp?src=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != "" {
		t.Fatalf("disabled tracing still issued ID %q", got)
	}
	var out struct {
		Enabled bool             `json:"enabled"`
		Traces  []map[string]any `json:"traces"`
	}
	if code := getJSON(t, ts.URL+"/debug/traces", &out); code != 200 {
		t.Fatalf("/debug/traces: %d", code)
	}
	if out.Enabled || len(out.Traces) != 0 {
		t.Fatalf("disabled tracer reported %+v", out)
	}
}

func TestMetricsTracingAndRuntimeSections(t *testing.T) {
	ts, _, _ := tracedServer(t, 1, 0)
	resp, err := http.Get(ts.URL + "/sssp?src=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var m map[string]any
	if code := getJSON(t, ts.URL+"/metrics", &m); code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	tr, ok := m["tracing"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing tracing section: %v", m["tracing"])
	}
	if tr["enabled"] != true || tr["traces_started"].(float64) < 1 {
		t.Fatalf("tracing section: %+v", tr)
	}
	stages, ok := tr["stages"].(map[string]any)
	if !ok {
		t.Fatalf("tracing stages: %v", tr["stages"])
	}
	for _, want := range []string{"solve", "cache_lookup", "admission_wait", "catalog_acquire"} {
		if _, ok := stages[want]; !ok {
			t.Errorf("stage histogram %q missing (have %v)", want, keys(stages))
		}
	}
	rt, ok := m["runtime"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing runtime section: %v", m["runtime"])
	}
	if rt["goroutines"].(float64) < 1 || rt["heap_alloc_bytes"].(float64) <= 0 {
		t.Fatalf("runtime section: %+v", rt)
	}
}

// The shed path (503) still produces a finished trace with the admission
// span marked, and the middleware never leaks the admission token.
func TestShedRequestIsTraced(t *testing.T) {
	g, h := testGraph()
	sink := &logSink{}
	srv := newServer(g, h, "shed-test", catalog.Source{}, serverOptions{
		workers: 1, maxInflight: 1, timeout: 30 * time.Second,
		trace: trace.Config{SampleN: 1, RingSize: 16, Logf: sink.logf},
	})
	defer srv.cat.Close()
	// Fill the only admission slot.
	srv.sem <- struct{}{}
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/sssp?src=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	<-srv.sem
	traces := srv.tracer.Traces(trace.Filter{})
	if len(traces) != 1 || traces[0].Status != 503 {
		t.Fatalf("shed trace: %+v", traces)
	}
	found := false
	for _, c := range traces[0].Spans.Children {
		if c.Name == "admission_wait" && c.Attrs["shed"] == true {
			found = true
		}
	}
	if !found {
		t.Fatalf("shed admission span missing: %+v", traces[0].Spans.Children)
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
