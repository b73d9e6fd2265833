package dijkstra

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pq"
)

// bellmanFord is an independent O(nm) oracle for the oracle.
func bellmanFord(g *graph.Graph, src int32) []int64 {
	n := g.NumVertices()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = graph.Inf
	}
	dist[src] = 0
	for round := 0; round < n; round++ {
		changed := false
		for v := int32(0); v < int32(n); v++ {
			if dist[v] == graph.Inf {
				continue
			}
			ts, ws := g.Neighbors(v)
			for i, u := range ts {
				if nd := dist[v] + int64(ws[i]); nd < dist[u] {
					dist[u] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func sameDists(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPathDistances(t *testing.T) {
	g := gen.Path(6, 3)
	d := SSSP(g, 0)
	for v := 0; v < 6; v++ {
		if d[v] != int64(3*v) {
			t.Fatalf("d[%d] = %d, want %d", v, d[v], 3*v)
		}
	}
}

func TestMidSource(t *testing.T) {
	g := gen.Path(7, 2)
	d := SSSP(g, 3)
	want := []int64{6, 4, 2, 0, 2, 4, 6}
	if !sameDists(d, want) {
		t.Fatalf("d = %v", d)
	}
}

func TestUnreachable(t *testing.T) {
	b := graph.NewBuilder(4)
	b.MustAddEdge(0, 1, 5)
	g := b.Build()
	d := SSSP(g, 0)
	if d[2] != graph.Inf || d[3] != graph.Inf {
		t.Fatalf("unreachable distances: %v", d)
	}
	if d[0] != 0 || d[1] != 5 {
		t.Fatalf("reachable distances: %v", d)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	if d := SSSP(g, 0); len(d) != 0 {
		t.Fatal("non-empty result for empty graph")
	}
}

func TestSingleVertex(t *testing.T) {
	g := graph.NewBuilder(1).Build()
	d := SSSP(g, 0)
	if d[0] != 0 {
		t.Fatalf("d[0] = %d", d[0])
	}
}

func TestSelfLoopIgnoredInDistances(t *testing.T) {
	b := graph.NewBuilder(2)
	b.MustAddEdge(0, 0, 1)
	b.MustAddEdge(0, 1, 7)
	g := b.Build()
	d := SSSP(g, 0)
	if d[0] != 0 || d[1] != 7 {
		t.Fatalf("d = %v", d)
	}
}

func TestParallelEdgesTakeLightest(t *testing.T) {
	b := graph.NewBuilder(2)
	b.MustAddEdge(0, 1, 9)
	b.MustAddEdge(0, 1, 4)
	g := b.Build()
	if d := SSSP(g, 0); d[1] != 4 {
		t.Fatalf("d[1] = %d", d[1])
	}
}

func TestShortcutBeatsDirectEdge(t *testing.T) {
	b := graph.NewBuilder(3)
	b.MustAddEdge(0, 2, 10)
	b.MustAddEdge(0, 1, 3)
	b.MustAddEdge(1, 2, 3)
	g := b.Build()
	if d := SSSP(g, 0); d[2] != 6 {
		t.Fatalf("d[2] = %d", d[2])
	}
}

func TestAgainstBellmanFordOnFamilies(t *testing.T) {
	gs := []*graph.Graph{
		gen.Random(200, 800, 1<<10, gen.UWD, 1),
		gen.Random(200, 800, 4, gen.UWD, 2),
		gen.RMATGraph(128, 512, 1<<8, gen.PWD, 3),
		gen.GridGraph(10, 12, 16, gen.UWD, 4),
		gen.Star(50, 5),
	}
	for gi, g := range gs {
		want := bellmanFord(g, 0)
		if got := SSSP(g, 0); !sameDists(got, want) {
			t.Errorf("graph %d: SSSP != Bellman-Ford", gi)
		}
	}
}

func TestParentsFormShortestPathTree(t *testing.T) {
	g := gen.Random(300, 1200, 1<<8, gen.UWD, 9)
	dist, parent := SSSPWithParents(g, 0)
	if parent[0] != -1 {
		t.Fatal("source has a parent")
	}
	for v := int32(1); v < int32(g.NumVertices()); v++ {
		if dist[v] == graph.Inf {
			if parent[v] != -1 {
				t.Fatalf("unreachable %d has parent", v)
			}
			continue
		}
		p := parent[v]
		if p < 0 {
			t.Fatalf("reachable %d has no parent", v)
		}
		// There must be an edge (p,v) with dist[p] + w == dist[v].
		ts, ws := g.Neighbors(p)
		ok := false
		for i, u := range ts {
			if u == v && dist[p]+int64(ws[i]) == dist[v] {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("parent edge (%d,%d) does not certify dist %d", p, v, dist[v])
		}
	}
}

// Property: triangle inequality over all edges — d[u] <= d[v] + w(v,u).
func TestQuickTriangleInequality(t *testing.T) {
	f := func(seed uint32) bool {
		n := int(seed%100) + 2
		g := gen.Random(n, 4*n, 1<<12, gen.UWD, uint64(seed))
		d := SSSP(g, int32(seed%uint32(n)))
		for v := int32(0); v < int32(n); v++ {
			ts, ws := g.Neighbors(v)
			for i, u := range ts {
				if d[v] != graph.Inf && d[u] > d[v]+int64(ws[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// radixSSSP is Dijkstra over the queue the s-t search pops from, pq.Radix,
// with the lazy heap's stale-entry rule.
func radixSSSP(g *graph.Graph, src int32) []int64 {
	dist := make([]int64, g.NumVertices())
	for i := range dist {
		dist[i] = graph.Inf
	}
	var q pq.Radix
	dist[src] = 0
	q.Push(pq.Item{V: src})
	for q.Top() != graph.Inf {
		it := q.Pop()
		if it.D > dist[it.V] {
			continue
		}
		ts, ws := g.Neighbors(it.V)
		for i, u := range ts {
			if nd := it.D + int64(ws[i]); nd < dist[u] {
				dist[u] = nd
				q.Push(pq.Item{V: u, D: nd})
			}
		}
	}
	return dist
}

// Property: the package's two queues, the lazy binary heap and pq.Radix, give
// the same distances on every instance and source.
func TestQuickHeapsAgree(t *testing.T) {
	f := func(seed uint32, pwd bool) bool {
		n := int(seed%150) + 1
		dist := gen.UWD
		if pwd {
			dist = gen.PWD
		}
		g := gen.Random(n, 4*n, 1<<10, dist, uint64(seed))
		src := int32(seed % uint32(n))
		return sameDists(SSSP(g, src), radixSSSP(g, src))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDijkstraLazy(b *testing.B) {
	g := gen.Random(1<<14, 1<<16, 1<<14, gen.UWD, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SSSP(g, 0)
	}
}
