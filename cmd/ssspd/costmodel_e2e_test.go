package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/ch"
	"repro/internal/costmodel"
	"repro/internal/dijkstra"
	"repro/internal/engine"
	"repro/internal/loadgen"
	"repro/internal/solver"
	"repro/internal/trace"
)

// writeModelFile seals a hand-written coefficient set (µs per feature unit,
// feature order costmodel.FeatureNames) into a loadable coefficients file.
func writeModelFile(t *testing.T, coef map[string][]float64) string {
	t.Helper()
	f := &costmodel.File{
		Version:        costmodel.FileVersion,
		Features:       append([]string(nil), costmodel.FeatureNames...),
		DatasetVersion: costmodel.DatasetVersion,
		TrainedAt:      "2026-08-07T00:00:00Z",
		Solvers:        make(map[string]costmodel.SolverCoef),
	}
	for name, c := range coef {
		f.Solvers[name] = costmodel.SolverCoef{Coef: c, Samples: 100}
		f.TotalSamples += 100
	}
	b, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// Every executed solve — and nothing else — becomes a training sample:
// cache hits contribute nothing, multi-source queries carry their source
// count, and the export round-trips through the same reader cmd/costfit
// uses. Collection belongs to the engine, not the trace layer, so a daemon
// with tracing off (-trace-sample 0) collects the same rows.
func TestCostModelDatasetCollection(t *testing.T) {
	for _, sampleN := range []int{1, 0} {
		t.Run(fmt.Sprintf("trace-sample=%d", sampleN), func(t *testing.T) { testDatasetCollection(t, sampleN) })
	}
}

func testDatasetCollection(t *testing.T, sampleN int) {
	g, h := testGraph()
	srv := newServer(g, h, "test-instance", catalog.Source{}, serverOptions{
		workers: 4, maxInflight: 64, timeout: 30 * time.Second,
		engine: engine.Config{CacheEntries: 64, CacheBytes: 8 << 20},
		trace:  trace.Config{SampleN: sampleN, RingSize: 64},
	})
	t.Cleanup(srv.cat.Close)
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)

	var resp map[string]any
	if code := getJSON(t, ts.URL+"/sssp?src=1", &resp); code != 200 {
		t.Fatalf("sssp: %d", code)
	}
	if code := getJSON(t, ts.URL+"/sssp?src=1", &resp); code != 200 { // cache hit
		t.Fatalf("sssp repeat: %d", code)
	}
	if code := getJSON(t, ts.URL+"/sssp?src=2", &resp); code != 200 {
		t.Fatalf("sssp 2: %d", code)
	}
	if code := postJSON(t, ts.URL+"/batch", `{"queries":[{"srcs":[3,4]}]}`, &resp); code != 200 {
		t.Fatalf("batch: %d", code)
	}

	hr, err := http.Get(ts.URL + "/debug/costmodel/dataset")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if got := hr.Header.Get("X-Dataset-Version"); got != "1" {
		t.Fatalf("X-Dataset-Version = %q", got)
	}
	raw, err := io.ReadAll(hr.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := costmodel.ReadSamples(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("dataset does not round-trip through costfit's reader: %v\n%s", err, raw)
	}
	if len(samples) != 3 {
		t.Fatalf("%d samples for 3 executed solves (cache hit must not count):\n%s", len(samples), raw)
	}
	for i, s := range samples {
		if s.Graph != "test-instance" || s.Gen != 1 {
			t.Fatalf("sample %d graph/gen: %+v", i, s)
		}
		if s.N != g.NumVertices() || s.M != g.NumEdges() || s.MaxWeight != g.MaxWeight() {
			t.Fatalf("sample %d features: %+v", i, s)
		}
		if s.Solver == "" || s.DurUS < 0 {
			t.Fatalf("sample %d label: %+v", i, s)
		}
	}
	// Oldest first: the two single-source solves, then the 2-source batch item.
	if samples[0].Sources != 1 || samples[1].Sources != 1 || samples[2].Sources != 2 {
		t.Fatalf("source counts: %+v", samples)
	}

	var metrics map[string]any
	if code := getJSON(t, ts.URL+"/metrics", &metrics); code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	cm, ok := metrics["costmodel"].(map[string]any)
	if !ok {
		t.Fatalf("no costmodel metrics section: %v", metrics)
	}
	if held := cm["samples_held"].(float64); held != 3 {
		t.Fatalf("samples_held = %v, want 3", held)
	}
	if cm["enabled"].(bool) {
		t.Fatal("no model loaded, but costmodel reports enabled")
	}
}

// A sample is labelled by the engine that ran the solve, so it carries that
// generation's number and edge count even when a mutation swaps the graph
// while the solve is in flight. (Harvesting at trace-finish time joined the
// row with whatever generation was serving by then.)
func TestCostModelSampleKeepsSolveGeneration(t *testing.T) {
	g, h := testGraph()
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	dj, _ := solver.ByName("dijkstra")
	gated := solver.Solver{Name: "gated", NewState: func(in *solver.Instance) solver.State {
		return solver.StateFunc(func(sources []int32) []int64 {
			once.Do(func() { close(started) })
			<-release
			return dj.Solve(in, sources)
		})
	}}
	srv := newServer(g, h, "test-instance", catalog.Source{}, serverOptions{
		workers: 4, maxInflight: 64, timeout: 30 * time.Second,
		engine: engine.Config{CacheEntries: 64, Solvers: append(solver.All(), gated)},
		trace:  trace.Config{SampleN: 1, RingSize: 64},
	})
	t.Cleanup(srv.cat.Close)
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)

	queryDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/sssp?src=1&solver=gated")
		if err != nil {
			t.Error(err)
			queryDone <- 0
			return
		}
		resp.Body.Close()
		queryDone <- resp.StatusCode
	}()
	<-started // the solve is running on gen 1

	var mres map[string]any
	body := `{"ops":[{"op":"insert","u":0,"v":250,"w":3}]}`
	if code := postJSON(t, ts.URL+"/graphs/test-instance/mutate", body, &mres); code != 200 || mres["gen"].(float64) != 2 {
		t.Fatalf("mutate during solve: code %d %v", code, mres)
	}
	close(release)
	if code := <-queryDone; code != 200 {
		t.Fatalf("in-flight query across the swap: code %d", code)
	}

	hr, err := http.Get(ts.URL + "/debug/costmodel/dataset")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	samples, err := costmodel.ReadSamples(hr.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 || samples[0].Solver != "gated" {
		t.Fatalf("samples: %+v", samples)
	}
	if s := samples[0]; s.Gen != 1 || s.M != g.NumEdges() {
		t.Fatalf("sample labelled gen %d m=%d; the solve ran on gen 1, m=%d", s.Gen, s.M, g.NumEdges())
	}
}

// Hot reload: coefficients swap in without a restart and change live solver
// selection; a corrupted file is refused with 400 and the previous model
// keeps serving.
func TestCostModelReloadEndpoint(t *testing.T) {
	ts, srv, _ := testServerOpts(t, 64, 30*time.Second)

	// No -cost-model flag and nothing loaded yet: nothing to reload from.
	var errResp map[string]any
	if code := postJSON(t, ts.URL+"/debug/costmodel/reload", `{}`, &errResp); code != 400 {
		t.Fatalf("pathless reload: %d", code)
	}

	var before map[string]any
	getJSON(t, ts.URL+"/sssp?src=1", &before)
	if before["solver"] == "dijkstra" {
		t.Fatalf("static policy already picks dijkstra; test needs a contrast")
	}

	// A model that knows only dijkstra makes the argmin pick it everywhere.
	path := writeModelFile(t, map[string][]float64{
		"dijkstra": {100, 0, 0, 0, 0, 0.001, 0},
	})
	var ok map[string]any
	if code := postJSON(t, ts.URL+"/debug/costmodel/reload", `{"path":"`+path+`"}`, &ok); code != 200 {
		t.Fatalf("reload: %d %v", code, ok)
	}
	if ok["status"] != "reloaded" {
		t.Fatalf("reload response: %v", ok)
	}
	var after map[string]any
	getJSON(t, ts.URL+"/sssp?src=2", &after)
	if after["solver"] != "dijkstra" {
		t.Fatalf("post-reload solver = %v, want dijkstra", after["solver"])
	}

	// Corrupt the file in place: the reload is refused, the old model serves.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, ts.URL+"/debug/costmodel/reload", `{}`, &errResp); code != 400 {
		t.Fatalf("corrupt reload: %d (%v)", code, errResp)
	}
	var still map[string]any
	getJSON(t, ts.URL+"/sssp?src=3", &still)
	if still["solver"] != "dijkstra" {
		t.Fatalf("solver after failed reload = %v, want dijkstra (old model)", still["solver"])
	}
	ctrs := srv.costProv.Counters().Snapshot()
	if ctrs[costmodel.CtrReloads] != 1 || ctrs[costmodel.CtrReloadFailures] != 1 {
		t.Fatalf("reload counters: %v", ctrs)
	}

	var metrics map[string]any
	getJSON(t, ts.URL+"/metrics", &metrics)
	cm := metrics["costmodel"].(map[string]any)
	if !cm["enabled"].(bool) || cm["path"] != path {
		t.Fatalf("costmodel metrics after reload: %v", cm)
	}
}

// Predictive admission rejects with 503 + Retry-After BEFORE the query
// reaches a worker: on a fresh daemon the rejection happens with zero
// executed solves (the predictions counter only moves when a solve runs).
func TestPredictiveAdmission503BeforeWorker(t *testing.T) {
	// Prediction: 1ms + 61ms per source. Limit: 200ms × 0.8 = 160ms. One
	// source (62ms) clears it; eight sources (489ms) must be shed.
	path := writeModelFile(t, map[string][]float64{
		"dijkstra": {1000, 0, 0, 0, 61000, 0, 0},
		"delta":    {1000, 0, 0, 0, 61000, 0, 0},
		"thorup":   {1000, 0, 0, 0, 61000, 0, 0},
	})
	g, h := testGraph()
	srv := newServer(g, h, "test-instance", catalog.Source{}, serverOptions{
		workers: 4, maxInflight: 64, timeout: 200 * time.Millisecond,
		engine:    engine.Config{CacheEntries: 64, CacheBytes: 8 << 20},
		costModel: path, admitHead: 0.8,
	})
	t.Cleanup(srv.cat.Close)
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/batch", "application/json",
		strings.NewReader(`{"queries":[{"srcs":[1,2,3,4,5,6,7,8]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("over-limit batch: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatal("predictive rejection carries no Retry-After")
	}
	if !strings.Contains(string(body), "predicted cost") {
		t.Fatalf("rejection body: %s", body)
	}
	ctrs := srv.costProv.Counters().Snapshot()
	if ctrs[costmodel.CtrAdmissionRejected] != 1 {
		t.Fatalf("admission_rejected_predicted = %d, want 1", ctrs[costmodel.CtrAdmissionRejected])
	}
	if ctrs[costmodel.CtrPredictions] != 0 {
		t.Fatalf("predictions = %d, want 0: the rejected query must never reach a solver",
			ctrs[costmodel.CtrPredictions])
	}

	// Under the limit: admitted and answered.
	var okResp map[string]any
	if code := getJSON(t, ts.URL+"/sssp?src=1", &okResp); code != 200 {
		t.Fatalf("single-source query: %d %v", code, okResp)
	}
	ctrs = srv.costProv.Counters().Snapshot()
	if ctrs[costmodel.CtrPredictions] != 1 || ctrs[costmodel.CtrAdmissionRejected] != 1 {
		t.Fatalf("post-admit counters: %v", ctrs)
	}

	// The capacity-style admission gate is per-predicted-cost, not a
	// semaphore event: the endpoint shed counter (admission-limit 503s)
	// stays untouched.
	var metrics map[string]any
	getJSON(t, ts.URL+"/metrics", &metrics)
	batchEp := metrics["endpoints"].(map[string]any)["batch"].(map[string]any)
	if shed, present := batchEp["shed"]; present && shed.(float64) != 0 {
		t.Fatalf("endpoint shed = %v, want 0 (predictive rejections are counted separately)", shed)
	}
}

// Predictive admission under a real workload: with a model that prices the
// larger graph over the limit and the smaller one under it, a loadgen run
// across both sees every large-graph request shed as 503 + Retry-After and
// every small-graph request answered, with the daemon's
// admission_rejected_predicted counter matching the client's observed
// shed count exactly.
//
// Admission prices the plan that will run. A /dist or /st is a search and then,
// as often as this graph's searches have given up, the full solve: with a model
// that prices "bidirectional" like the rest it is shed on wl-a with the rest;
// with a model lacking that row it has no prediction on wl-a while no search
// has given up, which admits it, answered correctly, and it is shed there once
// most have — while every other wl-a request is shed throughout. A /table row
// of several targets is priced as the full solve either way.
func TestPredictiveAdmissionUnderLoad(t *testing.T) {
	t.Run("model prices every plan", func(t *testing.T) { testPredictiveAdmission(t, true) })
	t.Run("model without the targeted plan", func(t *testing.T) { testPredictiveAdmission(t, false) })
}

func testPredictiveAdmission(t *testing.T, pricesTargeted bool) {
	// Cost = 400µs·n: wl-a (n=512) → 204.8ms over the 180ms limit,
	// wl-b (n=384) → 153.6ms under it.
	coef := map[string][]float64{
		"dijkstra": {0, 400, 0, 0, 0, 0, 0},
		"delta":    {0, 400, 0, 0, 0, 0, 0},
		"thorup":   {0, 400, 0, 0, 0, 0, 0},
	}
	if pricesTargeted {
		coef["bidirectional"] = coef["delta"]
	}
	path := writeModelFile(t, coef)
	graphs := serveWorkloadGraphs()
	ga := graphs["wl-a"]
	srv := newServer(ga, ch.BuildKruskal(ga), "wl-a", catalog.Source{}, serverOptions{
		workers: 4, maxInflight: 256, timeout: 200 * time.Millisecond,
		engine:    engine.Config{CacheEntries: 64, CacheBytes: 8 << 20},
		costModel: path, admitHead: 0.9,
	})
	gb := graphs["wl-b"]
	if _, err := srv.cat.AddPrebuilt("wl-b", catalog.Source{}, gb, ch.BuildKruskal(gb), nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	old := log.Writer()
	log.SetOutput(io.Discard)
	t.Cleanup(func() {
		ts.Close()
		srv.cat.Close()
		log.SetOutput(old)
	})

	// /st is priced like /dist: shed with it, admitted with it.
	var got struct{ Dist int64 }
	probes := 0 // predictive 503s outside the loadgen run
	code := getJSON(t, ts.URL+"/st?graph=wl-a&s=400&t=17", &got)
	if pricesTargeted && code != 503 {
		t.Fatalf("/st on wl-a: status %d, want 503 (its plan is priced over the limit)", code)
	}
	if want := dijkstra.SSSP(ga, 400)[17]; !pricesTargeted && (code != 200 || got.Dist != want) {
		t.Fatalf("/st on wl-a: status %d dist %d, want 200 and %d (no prediction for its plan)", code, got.Dist, want)
	}
	if pricesTargeted {
		probes++
	}
	for graph, want := range map[string]int{"wl-a": 503, "wl-b": 200} {
		var row map[string]any
		if code := getJSON(t, ts.URL+"/table?graph="+graph+"&src=350&dst=17,18,19,300,301", &row); code != want {
			t.Fatalf("/table row of five targets on %s: status %d, want %d (priced as the full solve)", graph, code, want)
		}
	}
	probes++

	w := &loadgen.Workload{Spec: loadgen.Spec{
		Name: "predictive", Version: 1, Seed: 17, Requests: 80,
		Mode: loadgen.ModeClosed, Workers: 4, BatchSize: 3,
		Graphs: []loadgen.GraphMix{
			{Graph: "wl-a", N: 512, Weight: 1},
			{Graph: "wl-b", N: 384, Weight: 1},
		},
		Endpoints: []loadgen.Weighted{
			{Name: loadgen.EndpointSSSP, Weight: 2},
			{Name: loadgen.EndpointDist, Weight: 1},
			{Name: loadgen.EndpointBatch, Weight: 1},
		},
	}}
	out, err := loadgen.Run(context.Background(), w, loadgen.Options{
		BaseURL: ts.URL, Client: ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := loadgen.BuildReport(w, out)

	var shedA, okB, admittedDistA int
	for i := range out.Results {
		res := &out.Results[i]
		req := &w.Requests[i]
		switch req.Graph {
		case "wl-a":
			if !pricesTargeted && req.Endpoint == loadgen.EndpointDist && res.Status == 200 {
				admittedDistA++
				continue
			}
			if res.Status != 503 {
				t.Fatalf("request %d on wl-a: status %d, want 503 (predicted 204.8ms > 180ms limit)",
					i, res.Status)
			}
			if !res.RetryAfter {
				t.Fatalf("request %d: predictive shed without Retry-After", i)
			}
			shedA++
		case "wl-b":
			// Its searches give up too; where the search has a price, that and
			// the share of a solve come to more than the limit in time.
			if pricesTargeted && req.Endpoint == loadgen.EndpointDist && res.Status == 503 {
				shedA++
				continue
			}
			if res.Status != 200 {
				t.Fatalf("request %d on wl-b: status %d err %q, want 200 (predicted 153.6ms < limit)",
					i, res.Status, res.Err)
			}
			okB++
		}
	}
	if shedA == 0 || okB == 0 || (admittedDistA > 0) == pricesTargeted {
		t.Fatalf("workload split shedA=%d okB=%d admittedDistA=%d", shedA, okB, admittedDistA)
	}
	if rep.Shed != shedA {
		t.Fatalf("report shed = %d, client counted %d", rep.Shed, shedA)
	}
	// Without a price for the search: far targets on distinct sources until
	// most of wl-a's searches have given up; then the plan is priced as the
	// solve it will become, and shed.
	for src := 0; !pricesTargeted; src++ {
		if src == 256 {
			t.Fatal("256 searches for a farthest vertex on wl-a, and /dist is still admitted")
		}
		want := dijkstra.SSSP(ga, int32(src))
		far := slices.Index(want, slices.Max(want))
		code := getJSON(t, fmt.Sprintf("%s/dist?graph=wl-a&src=%d&dst=%d", ts.URL, src, far), &got)
		if code == 503 {
			probes++
			break
		}
		if code != 200 || got.Dist != want[far] {
			t.Fatalf("/dist?src=%d&dst=%d on wl-a: status %d dist %d, want %d", src, far, code, got.Dist, want[far])
		}
	}
	ctrs := srv.costProv.Counters().Snapshot()
	if got := ctrs[costmodel.CtrAdmissionRejected]; got != int64(shedA+probes) {
		t.Fatalf("daemon admission_rejected_predicted = %d, client observed %d predictive 503s", got, shedA+probes)
	}
}
