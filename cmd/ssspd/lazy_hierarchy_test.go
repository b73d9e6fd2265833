package main

import (
	"encoding/json"
	"fmt"
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
	"repro/internal/cli"
	"repro/internal/dijkstra"
	"repro/internal/dimacs"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mutate"
)

// lazyServer serves a graph that came without a hierarchy as "lazy". With
// fromText the graph goes through a DIMACS file first and the server is made
// the way main makes one for -graph, so a reload parses the file again;
// otherwise the server has no source and a reload reinstalls what it was given.
func lazyServer(t *testing.T, fromText bool) (ts *httptest.Server, srv *server, g *graph.Graph) {
	t.Helper()
	g = gen.Random(500, 2000, 1<<10, gen.UWD, 7)
	var src catalog.Source
	if fromText {
		path := filepath.Join(t.TempDir(), "lazy.gr")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := dimacs.WriteGraph(f, g, "lazy"); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		src = catalog.Source{Spec: cli.Spec{File: path}}
		var h *ch.Hierarchy
		if g, h, _, _, err = src.Load(true, t.Logf); err != nil || h != nil {
			t.Fatalf("text load: hierarchy %p, err %v", h, err)
		}
	}
	srv = newServer(g, nil, "lazy", src, serverOptions{
		workers: 4, maxInflight: 64, timeout: 30 * time.Second,
		engine: engine.Config{CacheEntries: 64, CacheBytes: 8 << 20},
	})
	t.Cleanup(srv.cat.Close)
	ts = httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return ts, srv, g
}

// wantDist is a Dijkstra vector in the wire's spelling (unreachable = -1).
func wantDist(g *graph.Graph, srcs ...int32) []int64 {
	d := dijkstra.NewScratch().SSSPFromSources(g, srcs)
	for v := range d {
		if d[v] == graph.Inf {
			d[v] = -1
		}
	}
	return d
}

// fetch is getJSON/postJSON for a goroutine that is not the test's own: a
// failure is reported with t.Error and as status 0.
func fetch(t *testing.T, method, url, body string, out any) int {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Error(err)
		return 0
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Errorf("decode %s: %v", url, err)
		return 0
	}
	return resp.StatusCode
}

func sameDist(t *testing.T, what string, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d distances, want %d", what, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: dist[%d] = %d, want %d", what, v, got[v], want[v])
		}
	}
}

// hierarchyView is what the three reporting routes say about one graph's
// hierarchy, and how many the catalog has built.
type hierarchyView struct {
	Stats   map[string]any
	Graphs  hierarchyRow
	Metrics hierarchyRow
	Builds  float64
}

type hierarchyRow struct {
	Gen              uint64  `json:"gen"`
	Hierarchy        string  `json:"hierarchy"`
	HierarchyBuildMS float64 `json:"hierarchy_build_ms"`
}

func viewHierarchy(t *testing.T, base string) (v hierarchyView) {
	t.Helper()
	var l struct {
		Graphs []hierarchyRow `json:"graphs"`
	}
	var m struct {
		Catalog struct {
			GraphStates     []hierarchyRow `json:"graph_states"`
			HierarchyBuilds *float64       `json:"hierarchy_builds"`
		} `json:"catalog"`
	}
	if code := getJSON(t, base+"/stats", &v.Stats); code != 200 {
		t.Fatalf("/stats: %d %v", code, v.Stats)
	}
	if code := getJSON(t, base+"/graphs", &l); code != 200 || len(l.Graphs) != 1 {
		t.Fatalf("/graphs: %d %+v", code, l)
	}
	if code := getJSON(t, base+"/metrics", &m); code != 200 || len(m.Catalog.GraphStates) != 1 || m.Catalog.HierarchyBuilds == nil {
		t.Fatalf("/metrics: %d %+v", code, m)
	}
	return hierarchyView{v.Stats, l.Graphs[0], m.Catalog.GraphStates[0], *m.Catalog.HierarchyBuilds}
}

// chKeys are the /stats fields that describe a hierarchy: all there when the
// generation has one, none when it has none.
var chKeys = []string{"chNodes", "chHeight", "chAvgChildren", "chBytes", "instanceBytes"}

func (v hierarchyView) check(t *testing.T, when, state string, builds float64) {
	t.Helper()
	if v.Stats["hierarchy"] != state || v.Graphs.Hierarchy != state || v.Metrics.Hierarchy != state || v.Builds != builds {
		t.Fatalf("%s: hierarchy %v (/stats) %s (/graphs) %s (/metrics), %v builds; want %s, %v",
			when, v.Stats["hierarchy"], v.Graphs.Hierarchy, v.Metrics.Hierarchy, v.Builds, state, builds)
	}
	for _, k := range chKeys {
		if _, has := v.Stats[k]; has != (state != "unbuilt") {
			t.Fatalf("%s: /stats has %q: %v, with the hierarchy %s", when, k, has, state)
		}
	}
	if wantMS := state == "built"; (v.Graphs.HierarchyBuildMS > 0) != wantMS || v.Metrics.HierarchyBuildMS != v.Graphs.HierarchyBuildMS {
		t.Fatalf("%s: hierarchy_build_ms %v (/graphs) %v (/metrics), with the hierarchy %s", when, v.Graphs.HierarchyBuildMS, v.Metrics.HierarchyBuildMS, state)
	}
}

// A text start, then every route a default client uses — /dist, /st, /sssp,
// /table, /batch, ten mutations of every kind and width, a reload, /stats,
// /graphs, /metrics — and at the end no hierarchy has been built: the answers
// are right and the three reporting routes say unbuilt.
func TestNoRouteBuildsHierarchy(t *testing.T) {
	ts, _, g := lazyServer(t, true)

	// A /dist is a targeted query: to the far end of its source's lightest arc
	// the search is inside the budget even at n = 500; the other is the
	// policy's full solve.
	var dist struct {
		Dist   int64  `json:"dist"`
		Solver string `json:"solver"`
	}
	ts3, ws3 := g.Neighbors(3)
	near := ts3[slices.Index(ws3, slices.Min(ws3))]
	for i, solver := range []string{"bidirectional", "delta"} {
		dst := []int32{near, 99}[i]
		if code := getJSON(t, fmt.Sprintf("%s/dist?src=3&dst=%d", ts.URL, dst), &dist); code != 200 {
			t.Fatalf("/dist: %d", code)
		}
		if want := wantDist(g, 3)[dst]; dist.Dist != want || dist.Solver != solver {
			t.Fatalf("/dist to %d = %d by %s, want %d by %s", dst, dist.Dist, dist.Solver, want, solver)
		}
	}
	if code := getJSON(t, ts.URL+"/st?s=12&t=400", &dist); code != 200 || dist.Dist != wantDist(g, 12)[400] {
		t.Fatalf("/st: %d, dist %d, want %d", code, dist.Dist, wantDist(g, 12)[400])
	}
	checkServedDistances(t, ts.URL, "lazy", 5, g) // /sssp
	var table struct {
		Dist [][]int64 `json:"dist"`
	}
	if code := getJSON(t, ts.URL+"/table?src=1,2&dst=30,31,32", &table); code != 200 || table.Dist[1][2] != wantDist(g, 2)[32] {
		t.Fatalf("/table: %d %v", code, table)
	}
	var batch batchResp
	if code := postJSON(t, ts.URL+"/batch", `{"queries":[{"src":11},{"srcs":[11,200,407]}],"full":true}`, &batch); code != 200 {
		t.Fatalf("/batch: %d", code)
	}
	sameDist(t, "/batch item 0", batch.Results[0].Dist, wantDist(g, 11))
	sameDist(t, "/batch item 1", batch.Results[1].Dist, wantDist(g, 11, 200, 407))

	// Ten writes: re-weightings up and down, inserts, a delete, and a wide
	// batch of 40 spokes from one hub.
	var wide mutate.Batch
	for i := 0; i < 40; i++ {
		wide.Ops = append(wide.Ops, mutate.Op{Op: mutate.OpInsert, U: 0, V: int32(100 + 10*i), W: 2})
	}
	want := g
	for i := 0; i < 10; i++ {
		var b *mutate.Batch
		switch i % 5 {
		case 0:
			b = pickEdges(want, 4, uint32(i+1)) // heavier: a general repair, were there one
		case 1:
			b = &mutate.Batch{Ops: []mutate.Op{{Op: mutate.OpInsert, U: int32(i), V: int32(300 + i), W: 1}}}
		case 2:
			b = &mutate.Batch{Ops: []mutate.Op{{Op: mutate.OpDelete, U: int32(i - 1), V: int32(300 + i - 1)}}}
		case 3:
			b = &wide
		case 4:
			e := want.Edges()[i]
			b = &mutate.Batch{Ops: []mutate.Op{{Op: mutate.OpSetWeight, U: e.U, V: e.V, W: 1}}} // lighter: additive
		}
		var resp map[string]any
		if code := postJSON(t, ts.URL+"/graphs/lazy/mutate", mutateBody(t, b), &resp); code != 200 || resp["status"] != "mutated" || resp["gen"].(float64) != float64(i+2) {
			t.Fatalf("mutation %d: %d %v", i, code, resp)
		}
		var err error
		if want, err = mutate.ReferenceApply(want, b); err != nil {
			t.Fatal(err)
		}
	}
	checkServedDistances(t, ts.URL, "lazy", 3, want)
	viewHierarchy(t, ts.URL).check(t, "after ten mutations", "unbuilt", 0)

	if code := postJSON(t, ts.URL+"/graphs/reload", `{"name":"lazy"}`, &map[string]any{}); code != 200 {
		t.Fatalf("reload: %d", code)
	}
	checkServedDistances(t, ts.URL, "lazy", 9, want) // the file again, and the ten deltas over it
	v := viewHierarchy(t, ts.URL)
	v.check(t, "after the reload", "unbuilt", 0)
	if v.Graphs.Gen != 12 {
		t.Fatalf("serving generation %d at the end, want 12", v.Graphs.Gen)
	}
}

// What does need the hierarchy gets it, in its own request and once: eight
// concurrent first solver=thorup / thorup-serial queries on a generation that
// an un-demanded mutation made share one build — over the mutated graph. A
// write after that derives nothing: its child is unbuilt and charged for its
// graph alone, and its first solver=thorup adds one build and one log line.
func TestAnswersBeforeHierarchy(t *testing.T) {
	logged := captureLog(t)
	ts, srv, g := lazyServer(t, false)
	b1 := pickEdges(g, 4, 11)
	var mutated map[string]any
	if code := postJSON(t, ts.URL+"/graphs/lazy/mutate", mutateBody(t, b1), &mutated); code != 200 || mutated["gen"].(float64) != 2 {
		t.Fatalf("mutation of an un-demanded graph: %d %v", code, mutated)
	}
	g2, err := mutate.ReferenceApply(g, b1)
	if err != nil {
		t.Fatal(err)
	}
	viewHierarchy(t, ts.URL).check(t, "before any demand", "unbuilt", 0)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp struct {
				Solver string  `json:"solver"`
				Dist   []int64 `json:"dist"`
			}
			name := []string{"thorup", "thorup-serial"}[i%2]
			if code := fetch(t, "GET", fmt.Sprintf("%s/sssp?src=%d&solver=%s&full=1", ts.URL, 7+i, name), "", &resp); code != 200 || resp.Solver != name {
				t.Errorf("solver=%s: %d, ran %q", name, code, resp.Solver)
				return
			}
			if !slices.Equal(resp.Dist, wantDist(g2, int32(7+i))) {
				t.Errorf("solver=%s from %d: wrong distances over the demanded hierarchy", name, 7+i)
			}
		}()
	}
	wg.Wait()
	v := viewHierarchy(t, ts.URL)
	v.check(t, "after eight concurrent first demands", "built", 1)
	if got, want := v.Stats["chNodes"].(float64), float64(ch.BuildKruskal(g2).NumNodes()); got != want {
		t.Fatalf("/stats chNodes = %v, want %v", got, want)
	}

	b2 := &mutate.Batch{Ops: []mutate.Op{{Op: mutate.OpInsert, U: 1, V: 400, W: 1}}}
	if code := postJSON(t, ts.URL+"/graphs/lazy/mutate", mutateBody(t, b2), &mutated); code != 200 || mutated["gen"].(float64) != 3 {
		t.Fatalf("mutation of a demanded graph: %d %v", code, mutated)
	}
	g3, err := mutate.ReferenceApply(g2, b2)
	if err != nil {
		t.Fatal(err)
	}
	checkServedDistances(t, ts.URL, "lazy", 3, g3)
	viewHierarchy(t, ts.URL).check(t, "after a write on the demanded lineage", "unbuilt", 1)
	gn, release, err := srv.cat.Acquire("lazy")
	if err != nil {
		t.Fatal(err)
	}
	if st := srv.cat.Status()[0]; st.HeapBytes != gn.G.MemoryBytes() || st.Bytes != st.HeapBytes {
		t.Fatalf("gen 3 charged %d heap, %d in all; the graph alone is %d", st.HeapBytes, st.Bytes, gn.G.MemoryBytes())
	}
	release()
	buildLine := "catalog: hierarchy for lazy gen 3 built on demand: "
	if n := strings.Count(logged(), buildLine); n != 0 {
		t.Fatalf("%d gen 3 build log lines before any solver=thorup on it", n)
	}
	var thorup struct {
		Dist []int64 `json:"dist"`
	}
	if code := getJSON(t, ts.URL+"/sssp?src=1&solver=thorup&full=1", &thorup); code != 200 {
		t.Fatalf("solver=thorup after the write: %d", code)
	}
	sameDist(t, "solver=thorup after the write", thorup.Dist, wantDist(g3, 1))
	viewHierarchy(t, ts.URL).check(t, "after solver=thorup on the write's child", "built", 2)
	if n := strings.Count(logged(), buildLine); n != 1 {
		t.Fatalf("%d gen 3 build log lines after its first solver=thorup, want 1", n)
	}
}

// captureLog sends the standard logger — the daemon's catalog and access log
// — to a buffer until the test ends, and returns what it has so far.
func captureLog(t *testing.T) func() string {
	var mu sync.Mutex
	var buf strings.Builder
	old := log.Writer()
	log.SetOutput(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	}))
	t.Cleanup(func() { log.SetOutput(old) })
	return func() string {
		mu.Lock()
		defer mu.Unlock()
		return buf.String()
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// GET /graphs, /metrics and /stats say where a graph's hierarchy is: unbuilt,
// then built with what the demand build took; a reload of a source-less server
// reinstalls what the server was given — no hierarchy, so unbuilt again; and an
// instance that came with one says carried, used or not, and never builds.
func TestGraphsReportHierarchy(t *testing.T) {
	ts, _, _ := lazyServer(t, false)
	viewHierarchy(t, ts.URL).check(t, "at the start", "unbuilt", 0)
	if code := getJSON(t, ts.URL+"/sssp?src=1&solver=thorup", &map[string]any{}); code != 200 {
		t.Fatalf("solver=thorup: %d", code)
	}
	viewHierarchy(t, ts.URL).check(t, "after the demand", "built", 1)
	if code := postJSON(t, ts.URL+"/graphs/reload", `{"name":"lazy"}`, &map[string]any{}); code != 200 {
		t.Fatalf("reload: %d", code)
	}
	v := viewHierarchy(t, ts.URL)
	v.check(t, "after the reload", "unbuilt", 1)
	if v.Graphs.Gen != 2 {
		t.Fatalf("after the reload: generation %d, want 2", v.Graphs.Gen)
	}

	carried, _ := testServer(t)
	viewHierarchy(t, carried.URL).check(t, "prebuilt instance", "carried", 0)
	if code := getJSON(t, carried.URL+"/sssp?src=1&solver=thorup", &map[string]any{}); code != 200 {
		t.Fatalf("solver=thorup: %d", code)
	}
	viewHierarchy(t, carried.URL).check(t, "prebuilt instance, used", "carried", 0)
}
