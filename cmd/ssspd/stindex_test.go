package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/dijkstra"
	"repro/internal/engine"
	"repro/internal/graph"
)

// /dist and /st answer with the bytes encoding/json gives the map of their
// fields: keys sorted, -1 for unreachable, and the plan fields on /dist alone
// — for a search, a cache hit and an unreachable pair.
func TestPointBodiesMatchMapEncoding(t *testing.T) {
	base, _ := testGraph()
	g := graph.FromEdges(base.NumVertices()+2, base.Edges()) // the last two are isolated
	srv := newServer(g, nil, "bodies", catalog.Source{}, serverOptions{
		workers: 2, maxInflight: 8, timeout: time.Minute,
		engine: engine.Config{CacheEntries: 64, CacheBytes: 8 << 20},
	})
	t.Cleanup(srv.cat.Close)
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("%s: %d %s %v", path, resp.StatusCode, body, err)
		}
		return body
	}
	unreachable := int32(g.NumVertices() - 1)
	cases := []struct{ src, dst int32 }{{3, nearest(g, 3)}, {3, unreachable}, {unreachable, 3}, {7, 7}}
	get("/sssp?src=7") // /dist from 7 is then a cache hit
	for _, c := range cases {
		d := dijkstra.SSSP(g, c.src)[c.dst]
		dist := get(fmt.Sprintf("/dist?src=%d&dst=%d", c.src, c.dst))
		var plan struct{ Solver, Via string }
		if err := json.Unmarshal(dist, &plan); err != nil || plan.Solver == "" || plan.Via == "" {
			t.Fatalf("/dist %v: %s (%v)", c, dist, err)
		}
		for _, tc := range []struct {
			got []byte
			old map[string]any
		}{
			{dist, map[string]any{"src": c.src, "dst": c.dst, "dist": jsonDist(d), "reachable": d < graph.Inf, "solver": plan.Solver, "via": plan.Via}},
			{get(fmt.Sprintf("/st?s=%d&t=%d", c.src, c.dst)), map[string]any{"s": c.src, "t": c.dst, "dist": jsonDist(d), "reachable": d < graph.Inf}},
		} {
			want, err := json.Marshal(tc.old)
			if err != nil {
				t.Fatal(err)
			}
			if want = append(want, '\n'); !bytes.Equal(tc.got, want) {
				t.Fatalf("%v: body %q, the map encodes to %q", c, tc.got, want)
			}
		}
	}
}

// Only a targeted query builds a generation's s-t index. Full-vector reads —
// /sssp, a /batch of single and multi-source items — and a mutation leave
// /stats without stIndexBytes; the first /dist builds it, /stats then reports
// its 8 bytes an arc and /graphs charges them to the generation; the next
// generation starts without one.
func TestOnlyTargetedQueriesBuildTheIndex(t *testing.T) {
	ts, srv, g := lazyServer(t, false)
	stIndexBytes := func(when string) (float64, bool) {
		t.Helper()
		var stats map[string]any
		if code := getJSON(t, ts.URL+"/stats", &stats); code != 200 {
			t.Fatalf("%s: /stats %d", when, code)
		}
		b, ok := stats["stIndexBytes"].(float64)
		return b, ok
	}
	heapBytes := func() int64 {
		t.Helper()
		for _, st := range srv.cat.Status() {
			return st.HeapBytes
		}
		t.Fatal("no graph listed")
		return 0
	}
	checkServedDistances(t, ts.URL, "lazy", 5, g)
	var batch batchResp
	if code := postJSON(t, ts.URL+"/batch", `{"queries":[{"src":1},{"srcs":[2,40,300]}]}`, &batch); code != 200 {
		t.Fatalf("/batch: %d", code)
	}
	if _, ok := stIndexBytes("after full-vector reads"); ok {
		t.Fatal("a full-vector read built the s-t index")
	}
	before := heapBytes()
	var dist distResp
	if code := getJSON(t, fmt.Sprintf("%s/dist?src=3&dst=%d", ts.URL, nearest(g, 3)), &dist); code != 200 || dist.Solver != "bidirectional" {
		t.Fatalf("/dist: %d %+v", code, dist)
	}
	want := 8 * g.NumArcs()
	if b, ok := stIndexBytes("after /dist"); !ok || int64(b) != want {
		t.Fatalf("after /dist: stIndexBytes %v (%v), want %d", b, ok, want)
	}
	if got := heapBytes(); got != before+want {
		t.Fatalf("heap_bytes %d after the index landed, want %d + %d", got, before, want)
	}
	var mut map[string]any
	if code := postJSON(t, ts.URL+"/graphs/lazy/mutate", `{"ops":[{"op":"insert","u":0,"v":250,"w":3}]}`, &mut); code != 200 {
		t.Fatalf("mutate: %d %v", code, mut)
	}
	if _, ok := stIndexBytes("after a mutation"); ok {
		t.Fatal("the mutated generation was handed an s-t index")
	}
}
