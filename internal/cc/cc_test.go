package cc

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mta"
	"repro/internal/par"
	"repro/internal/rng"
)

type kernel struct {
	name string
	run  func(g *graph.Graph, below uint32) ([]int32, int)
}

func kernels() []kernel {
	exec := par.NewExec(4)
	sim := mta.NewSim(mta.MTA2(8))
	return []kernel{
		{"SerialBFS", SerialBFS},
		{"UnionFind", UnionFind},
		{"SV-exec", func(g *graph.Graph, b uint32) ([]int32, int) { return ShiloachVishkin(exec, g, b) }},
		{"SV-sim", func(g *graph.Graph, b uint32) ([]int32, int) { return ShiloachVishkin(sim, g, b) }},
		{"Bully-exec", func(g *graph.Graph, b uint32) ([]int32, int) { return Bully(exec, g, b) }},
		{"Bully-sim", func(g *graph.Graph, b uint32) ([]int32, int) { return Bully(sim, g, b) }},
	}
}

func sameLabelling(a, b []int32) bool {
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

func TestEmptyAndSingleton(t *testing.T) {
	empty := graph.NewBuilder(0).Build()
	single := graph.NewBuilder(1).Build()
	for _, k := range kernels() {
		if _, c := k.run(empty, All); c != 0 {
			t.Errorf("%s: empty graph has %d components", k.name, c)
		}
		if l, c := k.run(single, All); c != 1 || l[0] != 0 {
			t.Errorf("%s: singleton labelling %v count %d", k.name, l, c)
		}
	}
}

func TestTwoTriangles(t *testing.T) {
	b := graph.NewBuilder(6)
	for _, e := range [][3]int{{0, 1, 1}, {1, 2, 1}, {2, 0, 1}, {3, 4, 1}, {4, 5, 1}, {5, 3, 1}} {
		b.MustAddEdge(int32(e[0]), int32(e[1]), uint32(e[2]))
	}
	g := b.Build()
	for _, k := range kernels() {
		label, count := k.run(g, All)
		if count != 2 {
			t.Errorf("%s: count = %d", k.name, count)
			continue
		}
		want := []int32{0, 0, 0, 1, 1, 1}
		if !sameLabelling(label, want) {
			t.Errorf("%s: labelling %v, want %v", k.name, label, want)
		}
	}
}

func TestWeightBound(t *testing.T) {
	// Path with increasing weights: 0 -1- 1 -2- 2 -4- 3 -8- 4.
	b := graph.NewBuilder(5)
	ws := []uint32{1, 2, 4, 8}
	for i, w := range ws {
		b.MustAddEdge(int32(i), int32(i+1), w)
	}
	g := b.Build()
	wantCounts := map[uint32]int{1: 5, 2: 4, 3: 3, 4: 3, 5: 2, 8: 2, 9: 1, All: 1}
	for _, k := range kernels() {
		for below, want := range wantCounts {
			if _, c := k.run(g, below); c != want {
				t.Errorf("%s: below=%d count=%d, want %d", k.name, below, c, want)
			}
		}
	}
}

func TestSelfLoopsAndParallelEdges(t *testing.T) {
	b := graph.NewBuilder(3)
	b.MustAddEdge(0, 0, 1)
	b.MustAddEdge(0, 1, 5)
	b.MustAddEdge(1, 0, 5)
	g := b.Build()
	for _, k := range kernels() {
		label, count := k.run(g, All)
		if count != 2 {
			t.Errorf("%s: count=%d", k.name, count)
		}
		if label[0] != label[1] || label[0] == label[2] {
			t.Errorf("%s: labelling %v", k.name, label)
		}
	}
}

func TestPathWorstCase(t *testing.T) {
	// Long path: worst case for naive label propagation; parallel kernels
	// must still converge (in few rounds) and agree with the oracle.
	g := gen.Path(4096, 1)
	want, _ := SerialBFS(g, All)
	for _, k := range kernels() {
		label, count := k.run(g, All)
		if count != 1 {
			t.Errorf("%s: path count=%d", k.name, count)
		}
		if !sameLabelling(label, want) {
			t.Errorf("%s: path labelling differs from oracle", k.name)
		}
	}
}

func TestStarHotSpot(t *testing.T) {
	g := gen.Star(10000, 1)
	for _, k := range kernels() {
		if _, c := k.run(g, All); c != 1 {
			t.Errorf("%s: star count=%d", k.name, c)
		}
	}
}

func TestAllKernelsAgreeOnFamilies(t *testing.T) {
	instances := []*graph.Graph{
		gen.Random(2000, 8000, 1<<10, gen.UWD, 1),
		gen.RMATGraph(2048, 8192, 1<<10, gen.PWD, 2),
		gen.GridGraph(40, 50, 16, gen.UWD, 3),
	}
	ks := kernels()
	for gi, g := range instances {
		for _, below := range []uint32{2, 16, 300, All} {
			want, wantCount := SerialBFS(g, below)
			for _, k := range ks[1:] {
				label, count := k.run(g, below)
				if count != wantCount {
					t.Errorf("graph %d below %d: %s count=%d, oracle %d", gi, below, k.name, count, wantCount)
					continue
				}
				if !sameLabelling(label, want) {
					t.Errorf("graph %d below %d: %s labelling differs from oracle", gi, below, k.name)
				}
			}
		}
	}
}

func TestParallelKernelsManyWorkers(t *testing.T) {
	g := gen.Random(5000, 20000, 1<<8, gen.UWD, 77)
	want, wantCount := SerialBFS(g, 100)
	for _, workers := range []int{1, 2, 8} {
		rt := par.NewExec(workers)
		for name, f := range map[string]func(par.Runtime, *graph.Graph, uint32) ([]int32, int){
			"SV": ShiloachVishkin, "Bully": Bully,
		} {
			label, count := f(rt, g, 100)
			if count != wantCount || !sameLabelling(label, want) {
				t.Errorf("%s workers=%d: wrong labelling (count %d vs %d)", name, workers, count, wantCount)
			}
		}
	}
}

func TestSimCostsRecorded(t *testing.T) {
	g := gen.Random(1000, 4000, 100, gen.UWD, 5)
	for name, f := range map[string]func(par.Runtime, *graph.Graph, uint32) ([]int32, int){
		"SV": ShiloachVishkin, "Bully": Bully,
	} {
		rt := mta.NewSim(mta.MTA2(40))
		f(rt, g, All)
		c := rt.SimCost()
		if c.Work <= int64(g.NumArcs()) {
			t.Errorf("%s: suspiciously low simulated work %d", name, c.Work)
		}
		if c.Span <= 0 || c.Span > c.Work {
			t.Errorf("%s: span %d out of range (work %d)", name, c.Span, c.Work)
		}
	}
}

// Property: on random graphs with random weight bounds, all kernels agree
// with the BFS oracle.
func TestQuickKernelsMatchOracle(t *testing.T) {
	exec := par.NewExec(4)
	sim := mta.NewSim(mta.MTA2(4))
	r := rng.New(1234)
	f := func(seed uint32, belowRaw uint16) bool {
		n := int(seed%200) + 2
		m := n + int(seed%400)
		g := gen.Random(n, m, 1<<10, gen.UWD, uint64(seed))
		below := uint32(belowRaw%2000) + 1
		_ = r
		want, wantCount := SerialBFS(g, below)
		for _, run := range []func() ([]int32, int){
			func() ([]int32, int) { return UnionFind(g, below) },
			func() ([]int32, int) { return ShiloachVishkin(exec, g, below) },
			func() ([]int32, int) { return Bully(exec, g, below) },
			func() ([]int32, int) { return ShiloachVishkin(sim, g, below) },
			func() ([]int32, int) { return Bully(sim, g, below) },
		} {
			label, count := run()
			if count != wantCount || !sameLabelling(label, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCCKernels(b *testing.B) {
	g := gen.Random(1<<14, 1<<16, 1<<10, gen.UWD, 42)
	exec := par.NewExec(4)
	b.Run("SerialBFS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SerialBFS(g, All)
		}
	})
	b.Run("UnionFind", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			UnionFind(g, All)
		}
	})
	b.Run("ShiloachVishkin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ShiloachVishkin(exec, g, All)
		}
	})
	b.Run("Bully", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Bully(exec, g, All)
		}
	})
}

func TestLargestComponent(t *testing.T) {
	b := graph.NewBuilder(7)
	// component A: 0-1-2 (3 vertices), component B: 3-4-5-6 (4 vertices)
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(1, 2, 1)
	b.MustAddEdge(3, 4, 2)
	b.MustAddEdge(4, 5, 2)
	b.MustAddEdge(5, 6, 2)
	g := b.Build()
	sub, ids := LargestComponent(g)
	if sub.NumVertices() != 4 || sub.NumEdges() != 3 {
		t.Fatalf("largest component: %v", sub)
	}
	for _, old := range ids {
		if old < 3 {
			t.Fatalf("wrong component member %d", old)
		}
	}
	// Connected graph: returned unchanged.
	conn := gen.Path(5, 1)
	same, ids2 := LargestComponent(conn)
	if same.NumVertices() != 5 || ids2[3] != 3 {
		t.Fatalf("connected graph altered")
	}
}
