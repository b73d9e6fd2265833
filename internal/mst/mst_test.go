package mst

import (
	"testing"
	"testing/quick"

	"repro/internal/cc"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mta"
	"repro/internal/par"
)

// validateForest checks that forest is acyclic, spans every component of g,
// and uses only edges of g.
func validateForest(t *testing.T, g *graph.Graph, forest []graph.Edge) {
	t.Helper()
	n := g.NumVertices()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range forest {
		ru, rv := find(e.U), find(e.V)
		if ru == rv {
			t.Fatalf("forest contains a cycle at edge %+v", e)
		}
		parent[ru] = rv
	}
	_, comps := cc.SerialBFS(g, cc.All)
	if len(forest) != n-comps {
		t.Fatalf("forest has %d edges, want n-components = %d", len(forest), n-comps)
	}
	// Forest connectivity must match the graph's components.
	label, _ := cc.SerialBFS(g, cc.All)
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			if label[v] == label[u] && find(int32(v)) != find(int32(u)) {
				t.Fatalf("vertices %d and %d connected in g but not in forest", v, u)
			}
		}
	}
}

func TestKruskalTriangle(t *testing.T) {
	b := graph.NewBuilder(3)
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(1, 2, 2)
	b.MustAddEdge(2, 0, 3)
	g := b.Build()
	f := Kruskal(g)
	if TotalWeight(f) != 3 || len(f) != 2 {
		t.Fatalf("kruskal triangle: weight=%d len=%d", TotalWeight(f), len(f))
	}
}

func TestBoruvkaTriangle(t *testing.T) {
	b := graph.NewBuilder(3)
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(1, 2, 2)
	b.MustAddEdge(2, 0, 3)
	g := b.Build()
	f := Boruvka(par.NewExec(2), g)
	if TotalWeight(f) != 3 || len(f) != 2 {
		t.Fatalf("boruvka triangle: weight=%d len=%d", TotalWeight(f), len(f))
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	for _, g := range []*graph.Graph{graph.NewBuilder(0).Build(), graph.NewBuilder(1).Build()} {
		if f := Kruskal(g); len(f) != 0 {
			t.Errorf("kruskal: %d edges on trivial graph", len(f))
		}
		if f := Boruvka(par.NewExec(2), g); len(f) != 0 {
			t.Errorf("boruvka: %d edges on trivial graph", len(f))
		}
	}
}

func TestDisconnectedForest(t *testing.T) {
	b := graph.NewBuilder(5)
	b.MustAddEdge(0, 1, 2)
	b.MustAddEdge(2, 3, 3) // vertex 4 isolated
	g := b.Build()
	for name, f := range map[string][]graph.Edge{
		"kruskal": Kruskal(g),
		"boruvka": Boruvka(par.NewExec(2), g),
	} {
		if len(f) != 2 || TotalWeight(f) != 5 {
			t.Errorf("%s: forest %v", name, f)
		}
	}
}

func TestEqualWeightsAcyclic(t *testing.T) {
	// All weights equal: tie-breaking must keep Borůvka acyclic.
	g := gen.Complete(32, 1, 0) // C=1 forces every weight to 1
	f := Boruvka(par.NewExec(4), g)
	validateForest(t, g, f)
	if TotalWeight(f) != 31 {
		t.Fatalf("weight %d", TotalWeight(f))
	}
}

func TestBoruvkaMatchesKruskalOnFamilies(t *testing.T) {
	rts := map[string]par.Runtime{
		"exec1": par.NewExec(1),
		"exec4": par.NewExec(4),
		"sim":   mta.NewSim(mta.MTA2(40)),
	}
	gs := []*graph.Graph{
		gen.Random(500, 2000, 1<<10, gen.UWD, 1),
		gen.Random(500, 2000, 1<<10, gen.PWD, 2),
		gen.RMATGraph(512, 2048, 1<<8, gen.UWD, 3),
		gen.GridGraph(20, 25, 16, gen.UWD, 4),
		gen.Path(100, 7),
		gen.Star(100, 3),
	}
	for gi, g := range gs {
		want := TotalWeight(Kruskal(g))
		for name, rt := range rts {
			f := Boruvka(rt, g)
			validateForest(t, g, f)
			if got := TotalWeight(f); got != want {
				t.Errorf("graph %d %s: boruvka weight %d, kruskal %d", gi, name, got, want)
			}
		}
	}
}

func TestSimCostRecorded(t *testing.T) {
	g := gen.Random(1000, 4000, 256, gen.UWD, 9)
	rt := mta.NewSim(mta.MTA2(40))
	Boruvka(rt, g)
	if rt.SimCost().Work < int64(g.NumEdges()) {
		t.Fatalf("simulated work %d too low", rt.SimCost().Work)
	}
}

// Property: Borůvka's forest weight equals Kruskal's on random multigraphs
// (parallel edges, self-loops and duplicate weights included).
func TestQuickForestWeightsAgree(t *testing.T) {
	rt := par.NewExec(4)
	f := func(seed uint32) bool {
		n := int(seed%60) + 1
		m := n + int(seed%120)
		g := gen.Random(n, m, 8, gen.UWD, uint64(seed)) // tiny C → many ties
		return TotalWeight(Boruvka(rt, g)) == TotalWeight(Kruskal(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkKruskal(b *testing.B) {
	g := gen.Random(1<<13, 1<<15, 1<<20, gen.UWD, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Kruskal(g)
	}
}

func BenchmarkBoruvka(b *testing.B) {
	g := gen.Random(1<<13, 1<<15, 1<<20, gen.UWD, 42)
	rt := par.NewExec(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Boruvka(rt, g)
	}
}
