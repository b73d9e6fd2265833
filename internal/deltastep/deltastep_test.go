package deltastep

import (
	"testing"
	"testing/quick"

	"repro/internal/dijkstra"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mta"
	"repro/internal/par"
)

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

func TestPath(t *testing.T) {
	g := gen.Path(10, 4)
	rt := par.NewExec(2)
	d := SSSP(rt, g, 0, 3)
	for v := 0; v < 10; v++ {
		if d[v] != int64(4*v) {
			t.Fatalf("d[%d] = %d", v, d[v])
		}
	}
}

func TestTrivialGraphs(t *testing.T) {
	rt := par.NewExec(2)
	if d := SSSP(rt, graph.NewBuilder(0).Build(), 0, 1); len(d) != 0 {
		t.Fatal("empty graph")
	}
	if d := SSSP(rt, graph.NewBuilder(1).Build(), 0, 1); d[0] != 0 {
		t.Fatalf("singleton: %v", d)
	}
}

func TestUnreachable(t *testing.T) {
	b := graph.NewBuilder(3)
	b.MustAddEdge(0, 1, 5)
	g := b.Build()
	d := SSSP(par.NewExec(2), g, 0, 2)
	if d[2] != graph.Inf {
		t.Fatalf("d = %v", d)
	}
}

func TestInvalidDeltaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("delta=0 did not panic")
		}
	}()
	SSSP(par.NewExec(1), gen.Path(3, 1), 0, 0)
}

// The chooser reads the weights, not only the largest one: about one arc per
// vertex lies below the width it returns.
func TestDefaultDelta(t *testing.T) {
	sparse := graph.NewBuilder(10) // 3 edges = 6 arcs under 10 vertices
	sparse.MustAddEdge(0, 1, 3)
	sparse.MustAddEdge(1, 2, 700)
	sparse.MustAddEdge(4, 5, 9)
	cases := []struct {
		name   string
		g      *graph.Graph
		lo, hi int64
	}{
		// Uniform weights: the paper's C/d = 2^16/8, give or take a factor of 2.
		{"uwd", gen.Random(1<<12, 4<<12, 1<<16, gen.UWD, 1), 1 << 12, 1 << 14},
		{"uwd rmat", gen.RMATGraph(1<<12, 4<<12, 1<<16, gen.UWD, 2), 1 << 12, 1 << 14},
		{"uwd grid", gen.GridGraph(64, 64, 1<<16, gen.UWD, 3), 1 << 13, 1 << 15}, // d = 4
		// PWD, C 2^16, d 8: 16 classes of n/2 arcs each, where C/d says 8192.
		{"pwd", gen.Random(1<<12, 4<<12, 1<<16, gen.PWD, 4), 4, 64},
		{"pwd rmat", gen.RMATGraph(1<<12, 4<<12, 1<<16, gen.PWD, 5), 4, 64},
		{"all weights 5", gen.Cycle(64, 5), 8, 8}, // one class, every arc in it
		{"unit weights", gen.Cycle(64, 1), 2, 2},
		{"fewer arcs than vertices", sparse.Build(), 1024, 1024}, // one bucket above C = 700
		{"no edges", graph.NewBuilder(5).Build(), 1, 1},
		{"empty graph", graph.NewBuilder(0).Build(), 1, 1},
	}
	for _, c := range cases {
		d := DefaultDelta(c.g)
		if d < c.lo || d > c.hi || d&(d-1) != 0 {
			t.Errorf("%s: DefaultDelta = %d, want a power of two in [%d, %d] (C/d = %d)", c.name, d, c.lo, c.hi, PaperDelta(c.g))
		}
		// A generation made by a batch that changes nothing measures the same.
		if edges := c.g.Edges(); len(edges) > 0 {
			same, _, err := c.g.Overlay([]graph.Edge{edges[0]}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := DefaultDelta(same); got != d {
				t.Errorf("%s: DefaultDelta = %d after a no-op overlay, %d before", c.name, got, d)
			}
		}
	}
}

// PaperDelta is the paper's C/d, floored at 1.
func TestPaperDelta(t *testing.T) {
	g := gen.Random(1000, 4000, 1<<10, gen.UWD, 1)
	if d, want := PaperDelta(g), int64(g.MaxWeight())/(g.NumArcs()/1000); d != want {
		t.Fatalf("PaperDelta = %d, want %d", d, want)
	}
	if d := PaperDelta(gen.Random(64, 1024, 4, gen.UWD, 7)); d != 1 { // d 32 > C 4
		t.Fatalf("PaperDelta = %d on d > C, want 1", d)
	}
	if PaperDelta(graph.NewBuilder(0).Build()) != 1 {
		t.Fatal("empty-graph delta")
	}
}

func TestMatchesDijkstraAcrossDeltas(t *testing.T) {
	g := gen.Random(800, 3200, 1<<10, gen.UWD, 3)
	want := dijkstra.SSSP(g, 0)
	for _, delta := range []int64{1, 2, 7, 64, 1 << 10, 1 << 20} {
		for name, rt := range map[string]par.Runtime{
			"exec1": par.NewExec(1), "exec4": par.NewExec(4), "sim": mta.NewSim(mta.MTA2(40)),
		} {
			if got := SSSP(rt, g, 0, delta); !sameDists(got, want) {
				t.Errorf("delta=%d %s: mismatch vs Dijkstra", delta, name)
			}
		}
	}
}

func TestMatchesDijkstraOnFamilies(t *testing.T) {
	gs := []*graph.Graph{
		gen.Random(1000, 4000, 1<<16, gen.UWD, 1),
		gen.Random(1000, 4000, 1<<16, gen.PWD, 2),
		gen.Random(1000, 4000, 4, gen.UWD, 3),
		gen.RMATGraph(1024, 4096, 1<<10, gen.UWD, 4),
		gen.GridGraph(25, 40, 64, gen.UWD, 5),
		gen.Star(200, 9),
	}
	rt := par.NewExec(4)
	for gi, g := range gs {
		for _, src := range []int32{0, int32(g.NumVertices() - 1)} {
			want := dijkstra.SSSP(g, src)
			if got := SSSP(rt, g, src, DefaultDelta(g)); !sameDists(got, want) {
				t.Errorf("graph %d src %d: delta-stepping mismatch", gi, src)
			}
		}
	}
}

func TestDeltaOneActsLikeDijkstra(t *testing.T) {
	// With delta = 1 every bucket is a single distance value: no light
	// re-insertions are possible because light edges need w < 1.
	g := gen.Random(300, 1200, 100, gen.UWD, 7)
	_, st := Run(par.NewExec(2), g, 0, 1)
	if st.LightRelax != 0 {
		t.Fatalf("delta=1 produced %d light relaxations", st.LightRelax)
	}
	if st.HeavyRelax == 0 {
		t.Fatal("no heavy relaxations recorded")
	}
}

func TestStatsPhaseCounts(t *testing.T) {
	g := gen.GridGraph(30, 30, 64, gen.UWD, 11)
	_, stGrid := Run(par.NewExec(2), g, 0, DefaultDelta(g))
	r := gen.Random(900, 3600, 64, gen.UWD, 11)
	_, stRand := Run(par.NewExec(2), r, 0, DefaultDelta(r))
	if stGrid.Buckets == 0 || stRand.Buckets == 0 {
		t.Fatal("no buckets processed")
	}
	// The high-diameter grid needs far more buckets than the random graph —
	// the effect that makes road networks hard for delta-stepping (paper §2).
	if stGrid.Buckets <= stRand.Buckets {
		t.Errorf("grid buckets %d not above random %d", stGrid.Buckets, stRand.Buckets)
	}
}

func TestSimCostRecorded(t *testing.T) {
	g := gen.Random(1000, 4000, 1<<10, gen.UWD, 13)
	rt := mta.NewSim(mta.MTA2(40))
	SSSP(rt, g, 0, DefaultDelta(g))
	if rt.SimCost().Work < int64(g.NumEdges()) {
		t.Fatalf("sim work %d too low", rt.SimCost().Work)
	}
}

// Property: delta-stepping matches Dijkstra for random graphs, deltas,
// sources and weight distributions.
func TestQuickMatchesDijkstra(t *testing.T) {
	rt := par.NewExec(4)
	f := func(seed uint32, deltaRaw uint16, pwd bool) bool {
		n := int(seed%120) + 1
		dist := gen.UWD
		if pwd {
			dist = gen.PWD
		}
		g := gen.Random(n, 4*n, 1<<12, dist, uint64(seed))
		delta := int64(deltaRaw%512) + 1
		src := int32(seed % uint32(n))
		return sameDists(SSSP(rt, g, src, delta), dijkstra.SSSP(g, src))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDeltaStepping(b *testing.B) {
	g := gen.Random(1<<14, 1<<16, 1<<14, gen.UWD, 42)
	rt := par.NewExec(4)
	delta := DefaultDelta(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SSSP(rt, g, 0, delta)
	}
}

func TestReinsertionWithinBucket(t *testing.T) {
	// A chain of light edges inside one bucket forces re-scans: with delta
	// large enough, path relaxations cascade within bucket 0 across phases.
	g := gen.Path(64, 1)
	_, st := Run(par.NewExec(1), g, 0, 1<<20)
	if st.Buckets != 1 {
		t.Fatalf("expected a single bucket, got %d", st.Buckets)
	}
	if st.Phases < 32 {
		t.Fatalf("expected many light phases in one bucket, got %d", st.Phases)
	}
	if st.HeavyRelax != 0 {
		t.Fatalf("no heavy edges exist, got %d heavy relaxations", st.HeavyRelax)
	}
}

func TestStaleBucketEntriesSkipped(t *testing.T) {
	// Star center relaxed from many leaves: duplicates must not distort the
	// result, and light relaxations stay bounded by successful decreases.
	g := gen.Star(200, 3)
	d, st := Run(par.NewExec(4), g, 1, 4)
	want := dijkstra.SSSP(g, 1)
	if !sameDists(d, want) {
		t.Fatal("star distances wrong")
	}
	if st.LightRelax+st.HeavyRelax > int64(4*g.NumArcs()) {
		t.Fatalf("relaxations exploded: %d light %d heavy", st.LightRelax, st.HeavyRelax)
	}
}
