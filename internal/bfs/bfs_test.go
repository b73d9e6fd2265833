package bfs

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/dijkstra"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mta"
	"repro/internal/par"
)

func sameLevels(a, b []int32) bool {
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

func TestSerialPath(t *testing.T) {
	g := gen.Path(6, 1)
	l := Serial(g, 0)
	for v := 0; v < 6; v++ {
		if l[v] != int32(v) {
			t.Fatalf("level[%d]=%d", v, l[v])
		}
	}
	if Eccentricity(l) != 5 {
		t.Fatalf("eccentricity %d", Eccentricity(l))
	}
}

func TestUnreachableAndTrivial(t *testing.T) {
	b := graph.NewBuilder(3)
	b.MustAddEdge(0, 1, 7)
	g := b.Build()
	l := Serial(g, 0)
	if l[2] != -1 || l[1] != 1 {
		t.Fatalf("levels %v", l)
	}
	if len(Serial(graph.NewBuilder(0).Build(), 0)) != 0 {
		t.Fatal("empty graph")
	}
	if Eccentricity([]int32{0, -1, -1}) != 0 {
		t.Fatal("eccentricity of isolated source")
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	gs := []*graph.Graph{
		gen.Random(2000, 8000, 1<<10, gen.UWD, 1),
		gen.RMATGraph(1024, 4096, 4, gen.PWD, 2),
		gen.GridGraph(40, 40, 16, gen.UWD, 3),
		gen.Star(500, 1),
		gen.Path(300, 5),
	}
	rts := map[string]par.Runtime{
		"exec1": par.NewExec(1),
		"exec4": par.NewExec(4),
		"sim":   mta.NewSim(mta.MTA2(40)),
	}
	for gi, g := range gs {
		want := Serial(g, 0)
		for name, rt := range rts {
			if got := Parallel(rt, g, 0); !sameLevels(got, want) {
				t.Errorf("graph %d %s: parallel BFS differs", gi, name)
			}
		}
		// A source set (with a duplicate) is one traversal whose levels are
		// the elementwise minimum of the single-source ones.
		last := int32(g.NumVertices() - 1)
		srcs := []int32{last / 2, 0, last, last / 2}
		for _, s := range srcs[1:] {
			for v, l := range Serial(g, s) {
				if l >= 0 && (want[v] < 0 || l < want[v]) {
					want[v] = l
				}
			}
		}
		if got := SerialFromSources(g, srcs); !sameLevels(got, want) {
			t.Errorf("graph %d: multi-source serial BFS is not the min of single-source runs", gi)
		}
		for name, rt := range rts {
			if got := ParallelFromSources(context.Background(), rt, g, srcs); !sameLevels(got, want) {
				t.Errorf("graph %d %s: multi-source parallel BFS differs", gi, name)
			}
		}
	}
}

func TestDistancesMatchDijkstraOnUnitWeights(t *testing.T) {
	g := gen.Cycle(101, 1)
	want := dijkstra.SSSP(g, 0)
	got := Distances(Serial(g, 0))
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("d[%d]=%d want %d", v, got[v], want[v])
		}
	}
}

func TestDistancesInf(t *testing.T) {
	d := Distances([]int32{0, 2, -1})
	if d[2] != graph.Inf || d[1] != 2 {
		t.Fatalf("d=%v", d)
	}
}

func TestSimCostRecorded(t *testing.T) {
	g := gen.Random(1000, 4000, 16, gen.UWD, 5)
	rt := mta.NewSim(mta.MTA2(40))
	Parallel(rt, g, 0)
	if rt.SimCost().Work < int64(g.NumEdges()) {
		t.Fatalf("sim work %d too low", rt.SimCost().Work)
	}
}

// Property: parallel BFS equals serial BFS on random multigraphs.
func TestQuickParallelMatchesSerial(t *testing.T) {
	rt := par.NewExec(4)
	f := func(seed uint32) bool {
		n := int(seed%200) + 1
		g := gen.Random(n, 4*n, 16, gen.UWD, uint64(seed))
		src := int32(seed % uint32(n))
		return sameLevels(Parallel(rt, g, src), Serial(g, src))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBFS(b *testing.B) {
	g := gen.Random(1<<15, 1<<17, 16, gen.UWD, 42)
	rt := par.NewExec(4)
	b.Run("Serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Serial(g, 0)
		}
	})
	b.Run("Parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Parallel(rt, g, 0)
		}
	})
}

// A run whose context has ended stops before its next level and returns nil.
func TestParallelStopsWhenCancelled(t *testing.T) {
	g := gen.Random(500, 2000, 1, gen.UWD, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if level := ParallelFromSources(ctx, par.NewExec(2), g, []int32{0}); level != nil {
		t.Fatal("a cancelled run returned levels")
	}
}
