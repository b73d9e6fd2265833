package deltastep

import (
	"context"
	"math/rand"
	"runtime"
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
				sim, _ := NewState().RunFromSources(context.Background(), mta.NewSim(mta.MTA2(40)), g, srcs, delta)
				if !sameDists(sim, want) {
					t.Errorf("%s delta=%d srcs=%v: sim kernel differs from Dijkstra", gname, delta, srcs)
				}
				got, stats := NewState().RunFromSources(context.Background(), par.NewExec(4), g, srcs, delta)
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
		got, _ := NewState().RunFromSources(context.Background(), par.NewExec(4), c.g, c.srcs, 4)
		if !sameDists(got, want) {
			t.Errorf("%s: got %v, want %v", c.name, got, want)
		}
		sim, _ := NewState().RunFromSources(context.Background(), mta.NewSim(mta.MTA2(4)), c.g, c.srcs, 4)
		if !sameDists(sim, want) {
			t.Errorf("%s sim: got %v, want %v", c.name, sim, want)
		}
	}
}

// A comet — a dense head with a long tail of maximum-weight hops — walks
// through hops*ceil(maxW/delta) bucket indices. The ring must stay at its
// ceil(maxW/delta)+2 bound (rounded to a power of two) instead of growing
// with the largest distance, and a ring that wide needs no overflow list.
// At a hundredth of that width the bound is ringBins and the tail goes
// through the list, each hop beyond the ring's reach.
func TestCometBinsBounded(t *testing.T) {
	const (
		head = 64
		hops = 1 << 12
		maxW = 1 << 12
	)
	for _, delta := range []int64{maxW / 64, 1} {
		b := graph.NewBuilder(head + hops)
		for u := int32(0); u < head; u++ {
			for v := u + 1; v < head; v++ {
				b.MustAddEdge(u, v, uint32(1+(u*7+v*13)%64))
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
		bound := min(2*(maxW/int(delta)+2), ringBins)
		st := NewState()
		got, stats := st.Run(par.NewExec(4), g, 0, delta)
		if !sameDists(got, want) {
			t.Errorf("delta=%d: comet distances differ from Dijkstra", delta)
		}
		if stats.Buckets < hops {
			t.Errorf("delta=%d: %d buckets for %d tail hops", delta, stats.Buckets, hops)
		}
		if n := cap(st.bins); n > bound {
			t.Errorf("delta=%d: state holds %d bins, bound %d", delta, n, bound)
		}
		if overflows := delta == 1; (stats.Refills >= hops) != overflows || (stats.OverflowScanned >= hops) != overflows ||
			stats.OverflowScanned > 2*hops {
			t.Errorf("delta=%d: %d refills, %d overflow entries scanned over %d hops", delta, stats.Refills, stats.OverflowScanned, hops)
		}
	}
}

// pwdLike is gen.Random's shape — a cycle plus m-n random edges — with PWD
// weights 2^i, i uniform in [1, logC]; a positive top adds one arc that heavy.
func pwdLike(n, m, logC int, top uint32, seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u, v := int32(i%n), int32((i+1)%n)
		if i >= n {
			u, v = int32(r.Intn(n)), int32(r.Intn(n))
		}
		b.MustAddEdge(u, v, uint32(1)<<(1+r.Intn(logC)))
	}
	if top > 0 {
		b.MustAddEdge(0, int32(n/2), top)
	}
	return b.Build()
}

// Weights up to graph.MaxWeight (2^30, the heaviest arc a Graph holds) under a
// bucket width of 1 send nearly every relaxation to the overflow list; so does the measured width, less often.
// Distances must equal Dijkstra's on one source, on source sets and across
// components; the statistics keep their meaning (buckets are emptied in
// increasing order, once each; at width 1 nothing is light and no vertex is
// taken twice); the ring stays within ringBins; and a warm run allocates nothing.
func TestOverflowUnderAdversarialWeights(t *testing.T) {
	island := graph.NewBuilder(700) // a 600-cycle, a 99-path beside it, one isolated vertex
	for v := int32(0); v < 600; v++ {
		island.MustAddEdge(v, (v+1)%600, uint32(1)<<(1+v%30))
	}
	for v := int32(600); v < 698; v++ {
		island.MustAddEdge(v, v+1, graph.MaxWeight-uint32(v))
	}
	graphs := map[string]*graph.Graph{
		"pwd-2^30":      pwdLike(600, 2400, 30, 0, 1),
		"pwd-2^20+max":  pwdLike(600, 2400, 20, graph.MaxWeight, 2),
		"pwd-2^20-deg2": pwdLike(500, 520, 20, 0, 3),
		"islands":       island.Build(),
	}
	rt := par.NewExec(2)
	for gname, g := range graphs {
		last := int32(g.NumVertices() - 1)
		for _, delta := range []int64{1, DefaultDelta(g), 1 << 20} {
			for _, srcs := range [][]int32{{0}, {last}, {5, last / 2, last - 1, 5}} {
				want := nearest(g, srcs)
				st := NewState()
				got, stats := st.RunFromSources(context.Background(), rt, g, srcs, delta)
				if !sameDists(got, want) {
					t.Fatalf("%s delta=%d srcs=%v: differs from Dijkstra", gname, delta, srcs)
				}
				buckets := map[int64]bool{}
				for _, d := range want {
					if d < graph.Inf {
						buckets[d/delta] = true
					}
				}
				if stats.Buckets != len(buckets) || stats.Phases < stats.Buckets || stats.Reinsertion < 0 {
					t.Errorf("%s delta=%d srcs=%v: stats %+v, %d distinct buckets", gname, delta, srcs, stats, len(buckets))
				}
				if delta == 1 && (stats.LightRelax != 0 || stats.Reinsertion != 0 || (stats.Refills == 0 && len(buckets) > 1)) {
					t.Errorf("%s delta=1 srcs=%v: stats %+v", gname, srcs, stats)
				}
				if cap(st.bins) > ringBins {
					t.Errorf("%s delta=%d: %d bins", gname, delta, cap(st.bins))
				}
				if a := testing.AllocsPerRun(3, func() { st.RunFromSources(context.Background(), rt, g, srcs, delta) }); a > 0 {
					t.Errorf("%s delta=%d srcs=%v: %.1f allocations per warm run", gname, delta, srcs, a)
				}
			}
		}
	}
}

// At C = 2^30 a ring of ceil(C/delta)+2 bins is 2^30 slice headers (24 GB) for
// a width of 1 and 2^26 of them at the measured width; the bounded one keeps
// a state within a small multiple of the graph's own size, whatever the width.
func TestStateBoundedAtHugeWeights(t *testing.T) {
	const n = 1 << 12
	g := pwdLike(n, 4*n, 30, 0, 9)
	want := dijkstra.SSSP(g, 0)
	envelope := uint64(16 * (int64(n) + g.NumArcs())) // bytes
	for _, delta := range []int64{DefaultDelta(g), 1} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st := NewState()
		got, stats := st.Run(par.NewExec(1), g, 0, delta)
		runtime.ReadMemStats(&after)
		if !sameDists(got, want) {
			t.Errorf("delta=%d: differs from Dijkstra", delta)
		}
		held := 8*cap(st.dist) + 8*(cap(st.frontier)+cap(st.overflow)) + 24*cap(st.bins)
		for _, b := range st.bins {
			held += 8 * cap(b)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; cap(st.bins) != ringBins || uint64(held) > envelope || grew > 2*envelope {
			t.Errorf("delta=%d: %d bins, state holds %d bytes, run allocated %d, envelope %d (stats %+v)",
				delta, cap(st.bins), held, grew, envelope, stats)
		}
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
	g := gen.Random(300, 1200, 1<<12, gen.UWD, 5)
	st := NewState()
	st.Run(par.NewExec(4), g, 0, DefaultDelta(g))
	if _, stats := st.Run(par.NewExec(4), g, 0, 1); stats.Refills == 0 || cap(st.overflow) == 0 {
		t.Fatalf("delta=1 run did not overflow: %+v", stats)
	}
	st.Reset()
	for v, d := range st.dist {
		if d != 0 {
			t.Fatalf("dist[%d] = %d after Reset", v, d)
		}
	}
	queues := append([][]entry{st.frontier, st.overflow}, st.bins[:cap(st.bins)]...)
	for _, q := range queues {
		for _, en := range q[:cap(q)] {
			if en != (entry{}) {
				t.Fatalf("queued entry %+v survives Reset", en)
			}
		}
	}
}

// A run whose context has ended stops before its next bucket phase and
// returns nil; the state then answers the next run exactly. The sim kernel
// does not look at the context.
func TestExecRunStopsWhenCancelled(t *testing.T) {
	g := gen.Random(2000, 8000, 1<<10, gen.UWD, 9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, delta := NewState(), DefaultDelta(g)
	if d, _ := st.RunFromSources(ctx, par.NewExec(2), g, []int32{0, 7}, delta); d != nil {
		t.Fatal("a cancelled exec run returned a vector")
	}
	got, _ := st.RunFromSources(context.Background(), par.NewExec(2), g, []int32{0, 7}, delta)
	if want := nearest(g, []int32{0, 7}); !sameDists(got, want) {
		t.Fatal("the run after a cancelled one differs from Dijkstra")
	}
	if d, _ := NewState().RunFromSources(ctx, mta.NewSim(mta.MTA2(4)), g, []int32{0}, delta); d == nil {
		t.Fatal("the sim kernel stopped on its context")
	}
}
