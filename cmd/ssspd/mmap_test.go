package main

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/ch"
	"repro/internal/dijkstra"
	"repro/internal/dimacs"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/snapshot"
)

// TestServeFromMmapSnapshot walks the -mmap startup path end to end: map a
// v2 snapshot, serve it as the default graph, answer queries straight off
// the mapped arrays, hot-swap via /graphs/reload (the new generation maps
// the same file again), and report mapped residency in /metrics and
// /graphs.
func TestServeFromMmapSnapshot(t *testing.T) {
	g0 := gen.Random(400, 1600, 1<<10, gen.UWD, 21)
	h0 := ch.BuildKruskal(g0)
	snap := filepath.Join(t.TempDir(), "serve.snap")
	if err := snapshot.WriteFile(snap, g0, h0); err != nil {
		t.Fatal(err)
	}

	// Exactly what main does under -mmap: Map first, ReadFile only as the
	// not-mappable fallback (in which case this platform can't run the rest).
	g, h, mapping, err := snapshot.Map(snap)
	if errors.Is(err, snapshot.ErrNotMappable) {
		t.Skipf("mmap snapshots unsupported here: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}

	srv := newServer(g, h, "mapped", catalog.Source{Snapshot: snap}, serverOptions{
		workers: 4, maxInflight: 64, timeout: 30 * time.Second,
		engine: engine.Config{CacheEntries: 64},
		mmap:   true, mapping: mapping,
	})
	t.Cleanup(srv.cat.Close)
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)

	// Answers come off the mapped arrays and must match Dijkstra on the
	// graph the snapshot encodes.
	var resp struct {
		Dist []int64 `json:"dist"`
	}
	if code := getJSON(t, ts.URL+"/sssp?src=5&full=1", &resp); code != 200 {
		t.Fatalf("sssp: code %d", code)
	}
	want := dijkstra.SSSP(g0, 5)
	for v, w := range want {
		if w == graph.Inf {
			w = -1
		}
		if resp.Dist[v] != w {
			t.Fatalf("dist[%d]=%d want %d", v, resp.Dist[v], w)
		}
	}

	// The default generation is mapped and /metrics says so.
	gen1, release, err := srv.cat.Acquire("mapped")
	if err != nil {
		t.Fatal(err)
	}
	if !gen1.Mapped() || gen1.MappedBytes() == 0 || gen1.HeapBytes() != 0 {
		t.Fatalf("startup generation not mapped: %+v", gen1)
	}
	release()
	var metrics struct {
		Catalog map[string]any `json:"catalog"`
	}
	if code := getJSON(t, ts.URL+"/metrics", &metrics); code != 200 {
		t.Fatalf("metrics: code %d", code)
	}
	if mb, _ := metrics.Catalog["ready_mapped_bytes"].(float64); mb <= 0 {
		t.Fatalf("metrics ready_mapped_bytes = %v, want > 0", metrics.Catalog["ready_mapped_bytes"])
	}
	if hb, _ := metrics.Catalog["ready_heap_bytes"].(float64); hb != 0 {
		t.Fatalf("metrics ready_heap_bytes = %v, want 0 (all graphs mapped)", metrics.Catalog["ready_heap_bytes"])
	}

	// Hot-swap: the reload re-maps the same file (warm verification path).
	// The old mapping must stay readable until the swap completes — queries
	// keep running meanwhile.
	if code := postJSON(t, ts.URL+"/graphs/reload", `{"name":"mapped"}`, &map[string]any{}); code != http.StatusOK {
		t.Fatalf("reload: code %d, want 200", code)
	}
	cur, rel, err := srv.cat.Acquire("mapped")
	if err != nil {
		t.Fatal(err)
	}
	gn, mapped := cur.Gen, cur.Mapped()
	rel()
	if gn != 2 || !mapped {
		t.Fatalf("after the reload: gen %d mapped=%v, want gen 2 served from mmap", gn, mapped)
	}
	select {
	case <-gen1.Drained():
	case <-time.After(30 * time.Second):
		t.Fatalf("startup generation never drained (in-flight %d)", gen1.InFlight())
	}

	// /graphs reports the per-graph mapped footprint.
	var listing struct {
		Graphs []struct {
			Name        string `json:"name"`
			MappedBytes int64  `json:"mapped_bytes"`
			HeapBytes   int64  `json:"heap_bytes"`
		} `json:"graphs"`
	}
	if code := getJSON(t, ts.URL+"/graphs", &listing); code != 200 {
		t.Fatalf("graphs: code %d", code)
	}
	if len(listing.Graphs) != 1 || listing.Graphs[0].MappedBytes == 0 || listing.Graphs[0].HeapBytes != 0 {
		t.Fatalf("graphs listing: %+v", listing)
	}

	// Same snapshot served with mmap off loads onto the heap instead.
	gc, hc, err := snapshot.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	srvCopy := newServer(gc, hc, "copied", catalog.Source{Snapshot: snap}, serverOptions{
		workers: 2, maxInflight: 8, timeout: 30 * time.Second,
	})
	t.Cleanup(srvCopy.cat.Close)
	genC, relC, err := srvCopy.cat.Acquire("copied")
	if err != nil {
		t.Fatal(err)
	}
	defer relC()
	if genC.Mapped() || genC.HeapBytes() == 0 || genC.MappedBytes() != 0 {
		t.Fatalf("copy-loaded generation claims mmap residency: %+v", genC)
	}
}

// TestServeConvertedDIMACS walks the one way a DIMACS file reaches the mmap
// fast path: the real `gengraph -in … -snap` converts it, the daemon starts
// on the snapshot as main does under -snapshot, and the served distances
// equal Dijkstra's on the graph parsed from the text.
func TestServeConvertedDIMACS(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go tool to run cmd/gengraph with: %v", err)
	}
	dir := t.TempDir()
	gr := filepath.Join(dir, "city.gr")
	var text bytes.Buffer
	if err := dimacs.WriteGraph(&text, gen.Random(400, 1600, 1<<10, gen.UWD, 33), "e2e"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gr, text.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "city.snap")
	if out, err := exec.Command(goTool, "run", "repro/cmd/gengraph", "-in", gr, "-snap", snap).CombinedOutput(); err != nil {
		t.Fatalf("gengraph -in: %v\n%s", err, out)
	}

	g, h, mapping, err := snapshot.Map(snap)
	if errors.Is(err, snapshot.ErrNotMappable) {
		g, h, err = snapshot.ReadFile(snap)
	}
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(g, h, snap, catalog.Source{Snapshot: snap}, serverOptions{
		workers: 2, maxInflight: 8, timeout: 30 * time.Second,
		mmap: true, mapping: mapping,
	})
	t.Cleanup(srv.cat.Close)
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)

	parsed, err := dimacs.ReadGraph(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	checkServedDistances(t, ts.URL, "", 7, parsed)
}
