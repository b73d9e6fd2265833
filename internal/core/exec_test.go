package core

import (
	"context"
	"testing"

	"repro/internal/ch"
	"repro/internal/dijkstra"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mta"
	"repro/internal/par"
)

// nearest is the multi-source oracle: the elementwise minimum of Dijkstra
// from each source.
func nearest(g *graph.Graph, srcs []int32) []int64 {
	out := make([]int64, g.NumVertices())
	for v := range out {
		out[v] = graph.Inf
	}
	for _, s := range srcs {
		for v, d := range dijkstra.SSSP(g, s) {
			out[v] = min(out[v], d)
		}
	}
	return out
}

// checkKernels runs srcs through the exec kernel, the sim kernel and the
// serial traversal, compares all three with Dijkstra, and checks both
// kernels' post-run invariants.
func checkKernels(t *testing.T, name string, g *graph.Graph, h *ch.Hierarchy, srcs []int32) {
	t.Helper()
	want := nearest(g, srcs)
	for kernel, rt := range map[string]par.Runtime{"exec": par.NewExec(2), "sim": mta.NewSim(mta.MTA2(8))} {
		q := NewSolver(h, rt).Query()
		if got := q.RunFromSources(srcs); !sameDists(got, want) {
			t.Errorf("%s srcs=%v: %s kernel differs from Dijkstra", name, srcs, kernel)
		}
		if err := q.CheckInvariants(); err != nil {
			t.Errorf("%s srcs=%v: %s kernel: %v", name, srcs, kernel, err)
		}
	}
	if got := SerialSSSPFromSources(h, srcs); !sameDists(got, want) {
		t.Errorf("%s srcs=%v: serial traversal differs from Dijkstra", name, srcs)
	}
}

func TestExecMatchesSimSerialAndDijkstra(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rand-uwd":   gen.Random(600, 2400, 1<<12, gen.UWD, 1),
		"rand-pwd":   gen.Random(600, 2400, 1<<12, gen.PWD, 2),
		"rand-c4":    gen.Random(600, 2400, 4, gen.UWD, 3),
		"rmat-uwd":   gen.RMATGraph(512, 2048, 1<<10, gen.UWD, 4),
		"grid-pwd":   gen.GridGraph(20, 30, 64, gen.PWD, 5),
		"smallworld": gen.SmallWorld(500, 2, 0.1, 128, gen.UWD, 6),
	}
	for name, g := range graphs {
		h := ch.BuildKruskal(g)
		last := int32(g.NumVertices() - 1)
		for _, srcs := range [][]int32{{0}, {last, 7}, {5, last / 3, 5}, {3, last / 2, last, 3}} {
			checkKernels(t, name, g, h, srcs)
		}
	}
}

func TestExecEdgeCases(t *testing.T) {
	// n = 0: nothing to run on, from any entry point.
	empty := NewSolver(ch.BuildKruskal(graph.NewBuilder(0).Build()), par.NewExec(2))
	q := empty.Query()
	if d := q.RunFromSources(nil); len(d) != 0 {
		t.Errorf("n=0: %d distances", len(d))
	}
	if err := q.CheckInvariants(); err != nil {
		t.Errorf("n=0: %v", err)
	}
	if res := empty.RunMany(nil); len(res) != 0 {
		t.Errorf("n=0: RunMany returned %d vectors", len(res))
	}

	one := graph.NewBuilder(1)
	one.MustAddEdge(0, 0, 3) // the root is a leaf, its only edge a self-loop

	// Three components under a virtual root: {0,1,2}, {3,4}, {5}.
	parts := graph.NewBuilder(6)
	parts.MustAddEdge(0, 1, 7)
	parts.MustAddEdge(1, 2, 2)
	parts.MustAddEdge(3, 4, 9)

	for _, c := range []struct {
		name string
		g    *graph.Graph
		srcs [][]int32
	}{
		{"single-vertex", one.Build(), [][]int32{{0}, {0, 0}}},
		{"virtual-root", parts.Build(), [][]int32{{0}, {5}, {2, 4}, {1, 3, 5, 1}}},
	} {
		h := ch.BuildKruskal(c.g)
		for _, srcs := range c.srcs {
			checkKernels(t, c.name, c.g, h, srcs)
		}
	}
	if h := ch.BuildKruskal(parts.Build()); !h.HasVirtualRoot() {
		t.Error("virtual-root case has a real root")
	}
}

// A component whose nearest unsettled vertex moves past the end of its
// parent's bucket is left, still live and still listed, and entered again
// when the parent gets there. Here the chain 0-1-2-3-4 (weight 4, one
// component under a root that buckets by 16) is left at vertex 4, distance
// 16, and re-entered in the root's second bucket beside vertex 5.
func TestExecReentersQuietComponent(t *testing.T) {
	b := graph.NewBuilder(7)
	for v := int32(0); v < 4; v++ {
		b.MustAddEdge(v, v+1, 4)
	}
	b.MustAddEdge(0, 5, 16)
	b.MustAddEdge(5, 6, 16)
	g := b.Build()
	h := ch.BuildKruskal(g)
	chain := h.Parent(0)
	if h.Parent(4) != chain || h.Parent(chain) != h.Root() || h.Shift(h.Root()) != 4 {
		t.Fatalf("hierarchy is not chain-under-root: %v", h)
	}
	for _, srcs := range [][]int32{{0}, {6}, {0, 6}} {
		checkKernels(t, "quiet", g, h, srcs)
	}
	q := NewSolver(h, par.NewExec(1)).Query()
	tr := q.EnableTrace()
	// From 0 the chain takes one pass per vertex, four in its first visit and
	// one in its second; the root takes three (buckets 0, 1, 2).
	q.Run(0)
	if tr.Gathers != 5+3 || tr.Settled != 7 {
		t.Fatalf("trace %+v: want 8 gathers, 7 settled", *tr)
	}
}

func TestExecAllocatesNothingWhenWarm(t *testing.T) {
	g := gen.Random(2000, 8000, 1<<12, gen.UWD, 9)
	s := NewSolver(ch.BuildKruskal(g), par.NewExec(2))
	srcs := []int32{1, 500, 1999, 500}
	for _, traced := range []bool{false, true} {
		q := s.Query()
		if traced {
			q.EnableTrace()
		}
		q.Run(0)
		if a := testing.AllocsPerRun(10, func() {
			q.Reset()
			q.Run(3)
			q.RunFromSources(srcs)
		}); a != 0 {
			t.Errorf("traced=%v: %v allocations per warm Reset+Run+RunFromSources", traced, a)
		}
	}
}

// RunMany's workers share the hierarchy and the source counter and nothing
// else; run under -race by make check.
func TestRunManyBoundedWorkers(t *testing.T) {
	g := gen.Random(800, 3200, 1<<10, gen.UWD, 12)
	s := NewSolver(ch.BuildKruskal(g), par.NewExec(2))
	sources := make([]int32, 16)
	for i := range sources {
		sources[i] = int32(i * 50)
	}
	sources[15] = sources[0] // one source twice: its two vectors must still not alias
	res := s.RunMany(sources)
	for i, src := range sources {
		if !sameDists(res[i], dijkstra.SSSP(g, src)) {
			t.Errorf("query %d (src %d) wrong", i, src)
		}
	}
	res[0][0] = -1
	for i := 1; i < len(res); i++ {
		if res[i][0] == -1 {
			t.Fatalf("vectors 0 and %d alias", i)
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("no panic on the caller's goroutine for an out-of-range source")
		}
	}()
	s.RunMany([]int32{0, 800})
}

// A run whose context has ended unwinds within checkEvery settles and returns
// nil; the query then answers the next run exactly.
func TestExecRunStopsWhenCancelled(t *testing.T) {
	g := gen.Random(3*checkEvery, 12*checkEvery, 1<<10, gen.UWD, 9)
	q := NewSolver(ch.BuildKruskal(g), par.NewExec(2)).Query()
	tr := q.EnableTrace()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if d := q.RunFromSourcesContext(ctx, []int32{0, 7}); d != nil {
		t.Fatal("a cancelled exec run returned a vector")
	}
	if tr.Settled != checkEvery {
		t.Fatalf("the cancelled run settled %d vertices, want %d", tr.Settled, checkEvery)
	}
	if got := q.RunFromSources([]int32{0, 7}); !sameDists(got, nearest(g, []int32{0, 7})) {
		t.Fatal("the run after a cancelled one differs from Dijkstra")
	}
}
