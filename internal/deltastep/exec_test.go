package deltastep

import (
	"testing"

	"repro/internal/dijkstra"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mta"
	"repro/internal/par"
)

// nearest is the multi-source oracle: the elementwise minimum of Dijkstra
// from each source (all graph.Inf for an empty set).
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

// The exec kernel, the retained sim kernel and Dijkstra must agree on every
// family, bucket width and source set.
func TestExecMatchesSimAndDijkstra(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rand-uwd": gen.Random(600, 2400, 1<<12, gen.UWD, 1),
		"rand-pwd": gen.Random(600, 2400, 1<<12, gen.PWD, 2),
		"rmat-uwd": gen.RMATGraph(512, 2048, 1<<10, gen.UWD, 3),
		"rmat-pwd": gen.RMATGraph(512, 2048, 1<<10, gen.PWD, 4),
		"grid-uwd": gen.GridGraph(20, 30, 64, gen.UWD, 5),
		"grid-pwd": gen.GridGraph(20, 30, 64, gen.PWD, 6),
	}
	for gname, g := range graphs {
		last := int32(g.NumVertices() - 1)
		sourceSets := [][]int32{{0}, {last}, {3, last / 2, last, 3}}
		var far int64 // above every finite distance
		for _, d := range dijkstra.SSSP(g, 0) {
			if d < graph.Inf {
				far = max(far, d+1)
			}
		}
		d0 := DefaultDelta(g)
		for _, delta := range []int64{1, d0, 4 * d0, far} {
			for _, srcs := range sourceSets {
				want := nearest(g, srcs)
				sim, _ := NewState().RunFromSources(par.NewSim(mta.MTA2(40)), g, srcs, delta)
				if !sameDists(sim, want) {
					t.Errorf("%s delta=%d srcs=%v: sim kernel differs from Dijkstra", gname, delta, srcs)
				}
				got, stats := NewState().RunFromSources(par.NewExec(4), g, srcs, delta)
				if !sameDists(got, want) {
					t.Errorf("%s delta=%d srcs=%v: exec kernel differs from Dijkstra", gname, delta, srcs)
				}
				if stats.Buckets == 0 || stats.Phases < stats.Buckets || stats.Reinsertion < 0 {
					t.Errorf("%s delta=%d srcs=%v: stats %+v", gname, delta, srcs, stats)
				}
				if delta == 1 && stats.LightRelax != 0 {
					t.Errorf("%s delta=1: %d light relaxations", gname, stats.LightRelax)
				}
			}
		}
	}
}

func TestSourceSetEdgeCases(t *testing.T) {
	two := graph.NewBuilder(6) // two components: {0,1,2} and {3,4}, 5 isolated
	two.MustAddEdge(0, 1, 7)
	two.MustAddEdge(1, 2, 2)
	two.MustAddEdge(3, 4, 9)
	cases := []struct {
		name string
		g    *graph.Graph
		srcs []int32
	}{
		{"empty graph", graph.NewBuilder(0).Build(), nil},
		{"singleton", graph.NewBuilder(1).Build(), []int32{0, 0}},
		{"no sources", gen.Path(5, 3), nil},
		{"duplicates", gen.Path(9, 3), []int32{4, 4, 0, 4}},
		{"disconnected, one side", two.Build(), []int32{2}},
		{"disconnected, both sides", two.Build(), []int32{4, 0}},
		{"every vertex", gen.Cycle(7, 5), []int32{0, 1, 2, 3, 4, 5, 6}},
	}
	for _, c := range cases {
		want := nearest(c.g, c.srcs)
		got, _ := NewState().RunFromSources(par.NewExec(4), c.g, c.srcs, 4)
		if !sameDists(got, want) {
			t.Errorf("%s: got %v, want %v", c.name, got, want)
		}
		sim, _ := NewState().RunFromSources(par.NewSim(mta.MTA2(4)), c.g, c.srcs, 4)
		if !sameDists(sim, want) {
			t.Errorf("%s sim: got %v, want %v", c.name, sim, want)
		}
	}
}

// A comet — a dense head with a long tail of maximum-weight hops — walks
// through hops*ceil(maxW/delta) bucket indices. The ring must stay at its
// ceil(maxW/delta)+2 bound (rounded to a power of two) instead of growing
// with the largest distance.
func TestCometBinsBounded(t *testing.T) {
	const (
		head  = 64
		hops  = 1 << 12
		maxW  = 1 << 12
		delta = maxW / 64
	)
	b := graph.NewBuilder(head + hops)
	for u := int32(0); u < head; u++ {
		for v := u + 1; v < head; v++ {
			b.MustAddEdge(u, v, uint32(1+(u*7+v*13)%delta))
		}
	}
	for v := int32(head); v < head+hops; v++ {
		b.MustAddEdge(v-1, v, maxW)
	}
	g := b.Build()
	want := dijkstra.SSSP(g, 0)
	if want[head+hops-1]/delta < 1<<17 {
		t.Fatalf("comet too short to tell: last bucket index %d", want[head+hops-1]/delta)
	}
	bound := 2 * (maxW/delta + 2)
	st := NewState()
	got, stats := st.Run(par.NewExec(4), g, 0, delta)
	if !sameDists(got, want) {
		t.Error("comet distances differ from Dijkstra")
	}
	if stats.Buckets < hops {
		t.Errorf("%d buckets for %d tail hops", stats.Buckets, hops)
	}
	if n := cap(st.bins); n > bound {
		t.Errorf("state holds %d bins, bound %d", n, bound)
	}
}

// A warm State allocates nothing.
func TestWarmStateAllocations(t *testing.T) {
	g := gen.Random(1<<12, 1<<14, 1<<12, gen.UWD, 21)
	delta := DefaultDelta(g)
	rt := par.NewExec(4)
	st := NewState()
	st.Run(rt, g, 0, delta) // sizes every buffer
	if got := testing.AllocsPerRun(20, func() { st.Run(rt, g, 0, delta) }); got > 0 {
		t.Errorf("%.1f allocations per warm run, want 0", got)
	}
}

// Reset scrubs the pooled buffers: no distance or queued vertex of the last
// query survives in memory the next user of the state could read.
func TestResetScrubs(t *testing.T) {
	g := gen.Random(300, 1200, 1<<8, gen.UWD, 5)
	st := NewState()
	st.Run(par.NewExec(4), g, 0, DefaultDelta(g))
	st.Reset()
	for v, d := range st.dist {
		if d != 0 {
			t.Fatalf("dist[%d] = %d after Reset", v, d)
		}
	}
	queues := append([][]entry{st.frontier}, st.bins[:cap(st.bins)]...)
	for _, q := range queues {
		for _, en := range q[:cap(q)] {
			if en != (entry{}) {
				t.Fatalf("queued entry %+v survives Reset", en)
			}
		}
	}
}
