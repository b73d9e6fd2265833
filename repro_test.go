package repro

import (
	"bytes"
	"testing"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	g := RandomGraph(2000, 8000, 1<<12, UWD, 42)
	if g.NumVertices() != 2000 || g.NumEdges() != 8000 {
		t.Fatalf("generator: %v", g)
	}
	h := BuildHierarchy(g)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	solver := NewSolver(h, NewExecRuntime(4))
	got := solver.SSSP(0)
	want := Dijkstra(g, 0)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("thorup d[%d]=%d, dijkstra %d", v, got[v], want[v])
		}
	}
}

func TestPublicAPISolversAgree(t *testing.T) {
	g := RMATGraph(1024, 4096, 1<<10, PWD, 7)
	h := BuildHierarchy(g)
	rt := NewExecRuntime(4)
	want := Dijkstra(g, 3)
	for name, got := range map[string][]int64{
		"thorup-serial": ThorupSerial(h, 3),
		"delta":         DeltaStepping(rt, g, 3, 0),
		"mlb":           MultiLevelBuckets(g, 3),
		"thorup-naive":  NewSolver(h, rt, WithStrategy(NaiveStrategy)).SSSP(3),
	} {
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: d[%d]=%d, want %d", name, v, got[v], want[v])
			}
		}
	}
}

func TestPublicAPISimMode(t *testing.T) {
	g := RandomGraph(1000, 4000, 1<<10, UWD, 1)
	rt := NewSimRuntime(MTA2(40))
	h := BuildHierarchyParallel(rt, g)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	buildCost := rt.SimCost()
	if buildCost.Work <= 0 || buildCost.Span <= 0 {
		t.Fatalf("no cost recorded: %+v", buildCost)
	}
	rt.ResetCost()
	NewSolver(h, rt, WithThresholds(TuneThresholds(MTA2(40)))).SSSP(0)
	if rt.SimCost().Span <= 0 {
		t.Fatal("no query cost recorded")
	}
}

func TestPublicAPISharedHierarchy(t *testing.T) {
	g := GridGraph(30, 30, 16, UWD, 5)
	h := BuildHierarchy(g)
	solver := NewSolver(h, NewExecRuntime(4))
	res := solver.RunMany([]int32{0, 450, 899})
	for i, src := range []int32{0, 450, 899} {
		want := Dijkstra(g, src)
		for v := range want {
			if res[i][v] != want[v] {
				t.Fatalf("query %d wrong at %d", i, v)
			}
		}
	}
}

func TestPublicAPIDIMACSRoundTrip(t *testing.T) {
	g := RandomGraph(100, 400, 64, UWD, 9)
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, g, "api round trip"); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := Dijkstra(g, 0), Dijkstra(g2, 0)
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("distances changed at %d", v)
		}
	}
}

func TestPublicAPIZeroWeightPreprocessing(t *testing.T) {
	edges := []Edge{{U: 0, V: 1, W: 0}, {U: 1, V: 2, W: 5}}
	g, label := ContractZeroEdges(3, edges)
	if g.NumVertices() != 2 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	h := BuildHierarchy(g)
	d := ThorupSerial(h, label[0])
	if d[label[2]] != 5 {
		t.Fatalf("d=%v", d)
	}
}

func TestPublicAPIConnectedComponents(t *testing.T) {
	b := NewBuilder(4)
	b.MustAddEdge(0, 1, 2)
	b.MustAddEdge(2, 3, 2)
	label, count := ConnectedComponents(NewExecRuntime(2), b.Build())
	if count != 2 || label[0] != label[1] || label[0] == label[2] {
		t.Fatalf("labels %v count %d", label, count)
	}
}

func TestPublicAPIDeltaStats(t *testing.T) {
	g := RandomGraph(500, 2000, 256, UWD, 3)
	_, st := DeltaSteppingStats(NewExecRuntime(2), g, 0, 0)
	if st.Buckets == 0 || st.HeavyRelax == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPublicAPIBFS(t *testing.T) {
	g := RandomGraph(500, 2000, 1, UWD, 1) // unit weights
	levels := BFSLevels(NewExecRuntime(4), g, 0)
	want := Dijkstra(g, 0)
	for v := range want {
		if want[v] == Inf {
			if levels[v] != -1 {
				t.Fatalf("level[%d]=%d for unreachable", v, levels[v])
			}
			continue
		}
		if int64(levels[v]) != want[v] {
			t.Fatalf("level[%d]=%d, dijkstra %d", v, levels[v], want[v])
		}
	}
}

func TestPublicAPISTAndPaths(t *testing.T) {
	g := GridGraph(20, 20, 16, UWD, 2)
	dist, parent := DijkstraTree(g, 0)
	if err := CertifyDistances(NewExecRuntime(2), g, []int32{0}, dist); err != nil {
		t.Fatal(err)
	}
	if err := CertifyTree(g, []int32{0}, dist, parent); err != nil {
		t.Fatal(err)
	}
	tgt := int32(399)
	if got := STDistance(g, 0, tgt); got != dist[tgt] {
		t.Fatalf("st=%d, want %d", got, dist[tgt])
	}
	p := ShortestPath(dist, parent, tgt)
	if len(p) == 0 || p[0] != 0 || p[len(p)-1] != tgt {
		t.Fatalf("path %v", p)
	}
}

func TestPublicAPIHierarchyPersistence(t *testing.T) {
	g := RandomGraph(400, 1600, 1<<8, PWD, 3)
	h := BuildHierarchy(g)
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, g, h); err != nil {
		t.Fatal(err)
	}
	g2, h2, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Fingerprint() != g.Fingerprint() {
		t.Fatal("loaded snapshot holds a different graph")
	}
	a := NewSolver(h, NewExecRuntime(2)).SSSP(0)
	b := NewSolver(h2, NewExecRuntime(2)).SSSP(0)
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("loaded snapshot gives different distances at %d", v)
		}
	}
}

func TestPublicAPINewGenerators(t *testing.T) {
	geo := GeometricGraph(1000, 0.07, 64, 4)
	if err := geo.Validate(); err != nil {
		t.Fatal(err)
	}
	sw := SmallWorldGraph(500, 2, 0.1, 32, UWD, 5)
	if err := sw.Validate(); err != nil {
		t.Fatal(err)
	}
	// Solve on both with Thorup and certify.
	for _, g := range []*Graph{geo, sw} {
		h := BuildHierarchy(g)
		d := NewSolver(h, NewExecRuntime(2)).SSSP(0)
		if err := CertifyDistances(NewExecRuntime(2), g, []int32{0}, d); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPublicAPIAnalytics(t *testing.T) {
	g := RMATGraph(512, 2048, 64, UWD, 11)
	giant, ids := LargestComponent(g)
	if giant.NumVertices() == 0 || len(ids) != giant.NumVertices() {
		t.Fatalf("giant component: %v", giant)
	}
	s := NewSolver(BuildHierarchy(giant), NewExecRuntime(4))
	verts := []int32{0, 1, 2, 3}
	cl := Closeness(s, verts)
	ha := Harmonic(s, verts)
	for i := range verts {
		if cl[i] < 0 || ha[i] < 0 {
			t.Fatalf("negative centrality at %d", i)
		}
	}
	if d := DiameterEstimate(s, 0, 3); d <= 0 {
		t.Fatalf("diameter estimate %d", d)
	}
	top := TopKCloseness(s, verts, 2)
	if len(top) != 2 {
		t.Fatalf("top-k %v", top)
	}
}
