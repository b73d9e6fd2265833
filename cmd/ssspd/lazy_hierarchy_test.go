package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/ch"
	"repro/internal/dijkstra"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/solver"
)

// lazyServer serves a graph that came without a hierarchy, the way a text or
// generator start does, with every hierarchy build held until release.
func lazyServer(t *testing.T) (ts *httptest.Server, srv *server, g *graph.Graph, release func()) {
	t.Helper()
	release = solver.HoldHierarchyBuilds()
	t.Cleanup(release)
	g = gen.Random(500, 2000, 1<<10, gen.UWD, 7)
	srv = newServer(g, nil, "lazy", catalog.Source{}, serverOptions{
		workers: 4, maxInflight: 64, timeout: 30 * time.Second,
		engine: engine.Config{CacheEntries: 64, CacheBytes: 8 << 20},
	})
	t.Cleanup(srv.cat.Close)
	ts = httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return ts, srv, g, release
}

// waitStatus polls the one graph's catalog row until ok accepts it.
func waitStatus(t *testing.T, srv *server, what string, ok func(catalog.GraphStatus) bool) catalog.GraphStatus {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		st := srv.cat.Status()[0]
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw %s; last row %+v", what, st)
		}
	}
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

// The point of the change: with the hierarchy build held open, every default
// query answers, and correctly; what needs the hierarchy — Thorup by name,
// /stats, a mutation's repair — waits for the one build and is then correct.
func TestAnswersBeforeHierarchy(t *testing.T) {
	ts, srv, g, release := lazyServer(t)

	// Default-policy queries: no hierarchy, no wait. A /dist is a targeted
	// query: to the far end of its source's lightest arc the search is inside
	// the budget even at n = 500 (15 settled vertices); the source's second
	// touch is the policy's full solve.
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
	checkServedDistances(t, ts.URL, "lazy", 5, g)
	var batch batchResp
	if code := postJSON(t, ts.URL+"/batch", `{"queries":[{"src":11},{"srcs":[11,200,407]}],"full":true}`, &batch); code != 200 {
		t.Fatalf("/batch: %d", code)
	}
	sameDist(t, "/batch item 0", batch.Results[0].Dist, wantDist(g, 11))
	sameDist(t, "/batch item 1", batch.Results[1].Dist, wantDist(g, 11, 200, 407))
	if st := srv.cat.Status()[0]; st.Hierarchy != "building" || st.HierarchyBuildMS != 0 {
		t.Fatalf("status with the build held: %+v", st)
	}

	// What needs the hierarchy. The Thorup query and /stats take their
	// references on generation 1 (the background build holds one too) before
	// the mutation is sent, and the mutation is pending before anything is
	// released, so each provably waited on the same build.
	var (
		wg     sync.WaitGroup
		thorup struct {
			Solver string  `json:"solver"`
			Dist   []int64 `json:"dist"`
		}
		stats   map[string]any
		mutated map[string]any
		codes   [3]int
		done    = make(chan struct{})
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		codes[0] = fetch(t, "GET", ts.URL+"/sssp?src=7&solver=thorup&full=1", "", &thorup)
	}()
	go func() { defer wg.Done(); codes[1] = fetch(t, "GET", ts.URL+"/stats", "", &stats) }()
	waitStatus(t, srv, "three references on generation 1", func(st catalog.GraphStatus) bool { return st.InFlight == 3 })
	b := pickEdges(g, 4, 11)
	body := mutateBody(t, b)
	wg.Add(1)
	go func() {
		defer wg.Done()
		codes[2] = fetch(t, "POST", ts.URL+"/graphs/lazy/mutate", body, &mutated)
	}()
	waitStatus(t, srv, "the mutation pending", func(st catalog.GraphStatus) bool { return st.Pending })
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		t.Fatal("a request that needs the hierarchy finished while its build was held")
	case <-time.After(50 * time.Millisecond):
	}
	if st := srv.cat.Status()[0]; st.Gen != 1 || st.Hierarchy != "building" {
		t.Fatalf("status while waiting: %+v", st)
	}

	release()
	<-done
	if codes != [3]int{200, 200, 200} {
		t.Fatalf("status codes thorup/stats/mutate = %v (%v)", codes, mutated)
	}
	if thorup.Solver != "thorup" {
		t.Fatalf("solver=thorup ran %q", thorup.Solver)
	}
	sameDist(t, "solver=thorup", thorup.Dist, wantDist(g, 7))
	if got, want := stats["chNodes"].(float64), float64(ch.BuildKruskal(g).NumNodes()); got != want {
		t.Fatalf("/stats chNodes = %v, want %v", got, want)
	}
	if mutated["status"] != "mutated" || mutated["gen"].(float64) != 2 {
		t.Fatalf("mutate response %v", mutated)
	}
	want, err := mutate.ReferenceApply(g, b)
	if err != nil {
		t.Fatal(err)
	}
	checkServedDistances(t, ts.URL, "lazy", 3, want)
	// The repaired hierarchy came with generation 2.
	if st := srv.cat.Status()[0]; st.Gen != 2 || st.Hierarchy != "carried" {
		t.Fatalf("status after the mutation: %+v", st)
	}
}

// GET /graphs and /metrics say where a graph's hierarchy is: building, then
// built with what the build took; carried when the instance came with one;
// and a reload of a source-less server reinstalls the instance, hierarchy
// included, instead of building a second one.
func TestGraphsReportHierarchy(t *testing.T) {
	type row struct {
		Name             string  `json:"name"`
		Gen              uint64  `json:"gen"`
		Hierarchy        string  `json:"hierarchy"`
		HierarchyBuildMS float64 `json:"hierarchy_build_ms"`
	}
	listing := func(ts *httptest.Server) (graphs, metrics row) {
		var l struct {
			Graphs []row `json:"graphs"`
		}
		var m struct {
			Catalog struct {
				GraphStates []row `json:"graph_states"`
			} `json:"catalog"`
		}
		if code := getJSON(t, ts.URL+"/graphs", &l); code != 200 || len(l.Graphs) != 1 {
			t.Fatalf("/graphs: %d %+v", code, l)
		}
		if code := getJSON(t, ts.URL+"/metrics", &m); code != 200 || len(m.Catalog.GraphStates) != 1 {
			t.Fatalf("/metrics: %d %+v", code, m)
		}
		return l.Graphs[0], m.Catalog.GraphStates[0]
	}

	ts, srv, _, release := lazyServer(t)
	if g, m := listing(ts); g.Hierarchy != "building" || m.Hierarchy != "building" || g.HierarchyBuildMS != 0 {
		t.Fatalf("with the build held: /graphs %+v, /metrics %+v", g, m)
	}
	release()
	waitStatus(t, srv, "hierarchy built", func(st catalog.GraphStatus) bool { return st.Hierarchy == "built" })
	if g, m := listing(ts); g.Hierarchy != "built" || m.Hierarchy != "built" || g.HierarchyBuildMS <= 0 || m.HierarchyBuildMS != g.HierarchyBuildMS {
		t.Fatalf("after the build: /graphs %+v, /metrics %+v", g, m)
	}
	var reloaded map[string]any
	if code := postJSON(t, ts.URL+"/graphs/reload", `{"name":"lazy"}`, &reloaded); code != 202 {
		t.Fatalf("reload: %d %v", code, reloaded)
	}
	if err := srv.cat.WaitReady("lazy", 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if g, _ := listing(ts); g.Gen != 2 || g.Hierarchy != "carried" {
		t.Fatalf("after the reload: %+v", g)
	}

	carried, _ := testServer(t)
	if g, m := listing(carried); g.Hierarchy != "carried" || m.Hierarchy != "carried" || g.HierarchyBuildMS != 0 {
		t.Fatalf("prebuilt instance: /graphs %+v, /metrics %+v", g, m)
	}
}
