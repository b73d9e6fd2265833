package main

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/dijkstra"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/trace"
)

// nearest is the far end of v's lightest arc: the one target a bidirectional
// search reaches inside the n/32 budget even on a 500-vertex test graph.
func nearest(g *graph.Graph, v int32) int32 {
	ts, ws := g.Neighbors(v)
	return ts[slices.Index(ws, slices.Min(ws))]
}

type distResp struct {
	Dist   int64  `json:"dist"`
	Solver string `json:"solver"`
	Via    string `json:"via"`
}

func engineMetrics(t *testing.T, base string) (counters map[string]float64, runs map[string]float64) {
	t.Helper()
	var m struct {
		Engine map[string]any `json:"engine"`
	}
	if code := getJSON(t, base+"/metrics", &m); code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	counters, runs = map[string]float64{}, map[string]float64{}
	for k, v := range m.Engine {
		if f, ok := v.(float64); ok {
			counters[k] = f
		}
	}
	for k, v := range m.Engine["solver_runs"].(map[string]any) {
		runs[k] = v.(float64)
	}
	return counters, runs
}

// /st is /dist through the engine: its search is counted, traced and never
// cached; the partial answer is not what a later /sssp for the same source
// gets; and once that vector is cached, /dist and /st are hits on it.
func TestSTGoesThroughTheEngine(t *testing.T) {
	ts, _, _ := tracedServer(t, 1, 0)
	g, _ := testGraph()
	near := nearest(g, 3)
	var st map[string]any
	if code := getJSON(t, fmt.Sprintf("%s/st?s=3&t=%d", ts.URL, near), &st); code != 200 {
		t.Fatalf("/st: %d", code)
	}
	want := dijkstra.SSSP(g, 3)
	if len(st) != 4 || st["s"] != 3.0 || st["t"] != float64(near) || st["dist"] != float64(want[near]) || st["reachable"] != true {
		t.Fatalf("/st = %v, want s, t, dist %d, reachable", st, want[near])
	}
	counters, runs := engineMetrics(t, ts.URL)
	if runs["bidirectional"] != 1 || counters["solves"] != 1 || counters["cache_entries"] != 0 {
		t.Fatalf("after one /st: runs %v, counters %v", runs, counters)
	}
	traces := getTraces(t, ts, "?solver=bidirectional")
	if len(traces) != 1 || traces[0].Endpoint != "st" {
		t.Fatalf("traces by solver=bidirectional: %+v", traces)
	}
	var solve *trace.SpanJSON
	var find func(sp *trace.SpanJSON)
	find = func(sp *trace.SpanJSON) {
		if sp.Name == "solve" {
			solve = sp
		}
		for _, c := range sp.Children {
			find(c)
		}
	}
	find(traces[0].Spans)
	if solve == nil || solve.Attrs["solver"] != "bidirectional" || solve.Attrs["targets"] != 1.0 ||
		solve.Attrs["settled"] != 1.0 || solve.Attrs["bailed"] != false {
		t.Fatalf("/st solve span: %+v", solve)
	}

	checkServedDistances(t, ts.URL, "test-instance", 3, g) // solved now: the partial answer was never cached
	if counters, _ = engineMetrics(t, ts.URL); counters["solves"] != 2 || counters["cache_hits"] != 0 {
		t.Fatalf("/sssp after a partial answer: %v", counters)
	}
	var d distResp
	if code := getJSON(t, ts.URL+"/dist?src=3&dst=99", &d); code != 200 || d.Dist != want[99] || d.Solver != "delta" || d.Via != "cache" {
		t.Fatalf("/dist on a cached source: %d %+v, want %d", code, d, want[99])
	}
	if code := getJSON(t, ts.URL+"/st?s=3&t=99", &st); code != 200 || st["dist"] != float64(want[99]) {
		t.Fatalf("/st on a cached source: %d %v", code, st)
	}
	if counters, _ = engineMetrics(t, ts.URL); counters["solves"] != 2 || counters["cache_hits"] != 2 {
		t.Fatalf("after two hits: %v", counters)
	}
}

// Targeted queries follow the generation: after a mutation the searches run
// on the new graph, and a search that outgrows its budget there leaves that
// generation's vector behind for the next.
func TestTargetedQueriesFollowTheGeneration(t *testing.T) {
	ts, _, g := testServerOpts(t, 64, 30*time.Second)
	dist := func(g *graph.Graph, dst int32, solver, via string) {
		t.Helper()
		var d distResp
		code := getJSON(t, fmt.Sprintf("%s/dist?src=5&dst=%d", ts.URL, dst), &d)
		if want := dijkstra.SSSP(g, 5)[dst]; code != 200 || d.Dist != want || d.Solver != solver || d.Via != via {
			t.Fatalf("/dist?src=5&dst=%d = %d %+v, want %d by %s via %s", dst, code, d, want, solver, via)
		}
	}
	dist(g, nearest(g, 5), "bidirectional", "solve")
	b := pickEdges(g, 4, 11)
	var ok map[string]any
	if code := postJSON(t, ts.URL+"/graphs/test-instance/mutate", mutateBody(t, b), &ok); code != 200 {
		t.Fatalf("mutate: %d %v", code, ok)
	}
	g2, err := mutate.ReferenceApply(g, b)
	if err != nil {
		t.Fatal(err)
	}
	dist(g2, nearest(g2, 5), "bidirectional", "solve")
	far := dijkstra.SSSP(g2, 5)
	dist(g2, int32(slices.Index(far, slices.Max(far))), "delta", "solve") // too far for n/32 settled vertices
	dist(g2, nearest(g2, 5), "delta", "cache")
	// The engine counts over both generations: one search was on the first.
	if counters, runs := engineMetrics(t, ts.URL); counters["targeted_bailouts"] != 1 || runs["bidirectional"] != 3 || runs["delta"] != 1 {
		t.Fatalf("after generation 2: counters %v runs %v", counters, runs)
	}
}
