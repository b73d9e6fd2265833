package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/dijkstra"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/trace"
)

// mutateBody renders a batch as the endpoint's JSON request body.
func mutateBody(t *testing.T, b *mutate.Batch) string {
	t.Helper()
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// pickEdges returns k ops re-weighting distinct edge slots of g.
func pickEdges(g *graph.Graph, k int, bump uint32) *mutate.Batch {
	seen := make(map[[2]int32]bool)
	var ops []mutate.Op
	for _, e := range g.Edges() {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		if seen[[2]int32{u, v}] {
			continue
		}
		seen[[2]int32{u, v}] = true
		w := e.W + bump
		if w > graph.MaxWeight {
			w = e.W - bump
		}
		ops = append(ops, mutate.Op{Op: mutate.OpSetWeight, U: e.U, V: e.V, W: w})
		if len(ops) == k {
			break
		}
	}
	return &mutate.Batch{Ops: ops}
}

// checkServedDistances queries /sssp with full=1 and compares against a
// Dijkstra run on want.
func checkServedDistances(t *testing.T, base, graphName string, src int32, want *graph.Graph) {
	t.Helper()
	var resp struct {
		Dist []int64 `json:"dist"`
	}
	url := fmt.Sprintf("%s/sssp?src=%d&full=1&graph=%s", base, src, graphName)
	if code := getJSON(t, url, &resp); code != 200 {
		t.Fatalf("query after mutation: code %d", code)
	}
	exp := dijkstra.SSSP(want, src)
	for v, w := range exp {
		if w == graph.Inf {
			w = -1
		}
		if resp.Dist[v] != w {
			t.Fatalf("dist[%d]=%d, want %d", v, resp.Dist[v], w)
		}
	}
}

// TestGraphMutateEndpoint drives the full HTTP mutation path on a graph whose
// hierarchy a query has demanded: a small batch and a wide one alike answer 200
// with their generation already serving, and the served distances after each
// swap match Dijkstra on a reference-applied graph.
func TestGraphMutateEndpoint(t *testing.T) {
	ts, srv, g := testServerOpts(t, 64, 30*time.Second)
	if code := getJSON(t, ts.URL+"/sssp?src=1&solver=thorup", &map[string]any{}); code != 200 {
		t.Fatalf("solver=thorup: code %d", code)
	}

	b1 := pickEdges(g, 4, 11)
	var ok map[string]any
	if code := postJSON(t, ts.URL+"/graphs/test-instance/mutate", mutateBody(t, b1), &ok); code != 200 {
		t.Fatalf("small mutate: code %d (%v), want 200", code, ok)
	}
	if ok["status"] != "mutated" || ok["gen"].(float64) != 2 || ok["aliased"] != true {
		t.Fatalf("small mutate response %v", ok)
	}
	want1, err := mutate.ReferenceApply(g, b1)
	if err != nil {
		t.Fatal(err)
	}
	checkServedDistances(t, ts.URL, "test-instance", 3, want1)

	// Lineage in the listing.
	var listing struct {
		Graphs []struct {
			Name      string `json:"name"`
			Gen       uint64 `json:"gen"`
			ParentGen uint64 `json:"parent_gen"`
			DeltaSize int    `json:"delta_size"`
			Deltas    int    `json:"deltas"`
		} `json:"graphs"`
	}
	if code := getJSON(t, ts.URL+"/graphs", &listing); code != 200 {
		t.Fatalf("graphs listing: %d", code)
	}
	if gs := listing.Graphs[0]; gs.Gen != 2 || gs.ParentGen != 1 || gs.DeltaSize != len(b1.Ops) || gs.Deltas != 1 {
		t.Fatalf("lineage in listing: %+v", gs)
	}

	// A wide batch (insert spokes from one hub: 41 of 500 vertices touched)
	// is repaired in the request like any other.
	var wide mutate.Batch
	for i := 0; i < 40; i++ {
		wide.Ops = append(wide.Ops, mutate.Op{Op: mutate.OpInsert, U: 0, V: int32(100 + 10*i), W: 2})
	}
	var wr map[string]any
	if code := postJSON(t, ts.URL+"/graphs/test-instance/mutate", mutateBody(t, &wide), &wr); code != 200 {
		t.Fatalf("wide mutate: code %d (%v), want 200", code, wr)
	}
	if wr["status"] != "mutated" || wr["gen"].(float64) != 3 || wr["touched"].(float64) != 41 {
		t.Fatalf("wide mutate response %v", wr)
	}
	if st := srv.cat.Status()[0]; st.Gen != 3 || st.State != "ready" || st.Pending || st.Hierarchy != "carried" {
		t.Fatalf("after the wide batch: %+v, want gen 3 serving with its hierarchy repaired", st)
	}
	want2, err := mutate.ReferenceApply(g, b1, &wide)
	if err != nil {
		t.Fatal(err)
	}
	checkServedDistances(t, ts.URL, "test-instance", 17, want2)

	// Metrics carry the mutation counters and the endpoint section.
	var metrics struct {
		Catalog map[string]any `json:"catalog"`
		Ends    map[string]any `json:"endpoints"`
	}
	if code := getJSON(t, ts.URL+"/metrics", &metrics); code != 200 {
		t.Fatal("metrics")
	}
	if metrics.Catalog["mutations"].(float64) != 2 {
		t.Fatalf("mutation counters: %v", metrics.Catalog)
	}
	if _, ok := metrics.Ends["graphs_mutate"]; !ok {
		t.Fatal("endpoints.graphs_mutate missing from /metrics")
	}
}

// Error mapping: malformed and invalid batches are 400 with nothing applied,
// unknown graphs 404, and a graph mid-build 409.
func TestGraphMutateErrors(t *testing.T) {
	ts, srv, g := testServerOpts(t, 64, 30*time.Second)

	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"not json", `nope`, http.StatusBadRequest},
		{"unknown field", `{"ops":[{"op":"insert","u":0,"v":1,"w":1}],"mode":"x"}`, http.StatusBadRequest},
		{"empty batch", `{"ops":[]}`, http.StatusBadRequest},
		{"unknown op", `{"ops":[{"op":"reverse","u":0,"v":1}]}`, http.StatusBadRequest},
		{"out of range", `{"ops":[{"op":"insert","u":0,"v":100000,"w":1}]}`, http.StatusBadRequest},
	} {
		var e map[string]string
		if code := postJSON(t, ts.URL+"/graphs/test-instance/mutate", tc.body, &e); code != tc.want {
			t.Errorf("%s: code %d, want %d (%v)", tc.name, code, tc.want, e)
		} else if e["error"] == "" {
			t.Errorf("%s: missing error message", tc.name)
		}
	}
	// Nothing was applied: still generation 1.
	gen1, release, err := srv.cat.Acquire("test-instance")
	if err != nil {
		t.Fatal(err)
	}
	if gen1.Gen != 1 {
		t.Fatalf("rejected mutations advanced the generation to %d", gen1.Gen)
	}
	release()

	var e map[string]string
	if code := postJSON(t, ts.URL+"/graphs/nope/mutate", `{"ops":[{"op":"delete","u":0,"v":1}]}`, &e); code != http.StatusNotFound {
		t.Fatalf("unknown graph: code %d, want 404", code)
	}

	// A graph whose load is still running conflicts with 409 + Retry-After,
	// and so does a second load or a reload of it; the load then serves.
	finish := blockedLoad(t, srv.cat, "big", g)
	body := mutateBody(t, pickEdges(g, 1, 1))
	wantBusy(t, ts.URL, "/graphs/big/mutate", body)
	wantBusy(t, ts.URL, "/graphs/load", `{"name":"big","class":"rand","logn":6}`)
	wantBusy(t, ts.URL, "/graphs/reload", `{"name":"big"}`)
	if gen, err := finish(); err != nil || gen != 1 {
		t.Fatalf("the blocked load: gen %d, %v; want gen 1", gen, err)
	}
	if code := postJSON(t, ts.URL+"/graphs/big/mutate", body, &map[string]any{}); code != http.StatusOK {
		t.Fatalf("mutate after the load: code %d, want 200", code)
	}
}

// TestAnswersSurviveMutation: over HTTP, a source asked before a write is
// answered from the cache after it — corrected first where the write shortened
// a path, under a resume span inside cache_lookup — on every route that reads a
// vector, and /metrics says what the swap carried.
func TestAnswersSurviveMutation(t *testing.T) {
	ts, _, _ := tracedServer(t, 1, 0)
	g, _ := testGraph()
	for _, src := range []int{5, 9} {
		if code := getJSON(t, fmt.Sprintf("%s/sssp?src=%d", ts.URL, src), &map[string]any{}); code != 200 {
			t.Fatalf("/sssp?src=%d: %d", src, code)
		}
	}
	// One arc from 5 to the vertex furthest from it, a unit shorter than the path.
	d5, far := dijkstra.SSSP(g, 5), 0
	for v, d := range d5 {
		if d < graph.Inf && d > d5[far] {
			far = v
		}
	}
	b := &mutate.Batch{Ops: []mutate.Op{{Op: mutate.OpInsert, U: 5, V: int32(far), W: uint32(d5[far] - 1)}}}
	if code := postJSON(t, ts.URL+"/graphs/test-instance/mutate", mutateBody(t, b), &map[string]any{}); code != 200 {
		t.Fatalf("mutate: %d", code)
	}
	want, err := mutate.ReferenceApply(g, b)
	if err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/sssp?src=5&full=1", nil)
	req.Header.Set("X-Trace-Id", "resumed-hit")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var full struct {
		Via     string  `json:"via"`
		Reached int     `json:"reached"`
		Dist    []int64 `json:"dist"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&full); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	exp := dijkstra.SSSP(want, 5)
	if full.Via != "cache" || full.Dist[far] != d5[far]-1 || full.Reached != reachedOf(exp) {
		t.Fatalf("/sssp?src=5 after the write: via %s, dist[%d] = %d, reached %d", full.Via, far, full.Dist[far], full.Reached)
	}
	for v, d := range exp {
		if d == graph.Inf {
			d = -1
		}
		if full.Dist[v] != d {
			t.Fatalf("resumed dist[%d] = %d, want %d", v, full.Dist[v], d)
		}
	}
	var resume *trace.SpanJSON
	for _, tr := range getTraces(t, ts, "") {
		if tr.ID != "resumed-hit" {
			continue
		}
		for _, sp := range tr.Spans.Children {
			if sp.Name == "cache_lookup" && len(sp.Children) == 1 {
				resume = sp.Children[0]
			}
		}
	}
	if resume == nil || resume.Name != "resume" || resume.Attrs["seeds"] != 1.0 || resume.Attrs["resettled"].(float64) < 1 {
		t.Fatalf("resume span of the traced hit: %+v", resume)
	}

	var dist struct {
		Dist int64  `json:"dist"`
		Via  string `json:"via"`
	}
	if code := getJSON(t, fmt.Sprintf("%s/dist?src=5&dst=%d", ts.URL, far), &dist); code != 200 || dist.Via != "cache" || dist.Dist != d5[far]-1 {
		t.Fatalf("/dist over the new arc: %d %+v", code, dist)
	}
	var table struct {
		Dist [][]int64 `json:"dist"`
	}
	if code := getJSON(t, fmt.Sprintf("%s/table?src=9,5&dst=%d,0", ts.URL, far), &table); code != 200 ||
		table.Dist[0][0] != dijkstra.SSSP(want, 9)[far] || table.Dist[1][0] != d5[far]-1 || table.Dist[1][1] != exp[0] {
		t.Fatalf("/table: %d %v", code, table.Dist)
	}
	var m struct {
		Engine map[string]any `json:"engine"`
	}
	if code := getJSON(t, ts.URL+"/metrics", &m); code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	e := m.Engine
	if e["inherited_stale"].(float64) < 1 || e["inherited_exact"].(float64)+e["inherited_stale"].(float64) < 2 ||
		e["resumed"].(float64) < 1 || e["resettled"].(float64) < 1 || e["solves"] != 0.0 {
		t.Fatalf("engine counters after the write: %v", e)
	}
}
