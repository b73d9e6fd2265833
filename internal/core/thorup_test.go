package core

import (
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/cc"
	"repro/internal/ch"
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

// ccBullyKernel adapts the bully kernel to the BuildNaive signature.
var ccBullyKernel ch.CCKernel = cc.Bully

// solverVariants returns every Thorup configuration under test.
func solverVariants(h *ch.Hierarchy) map[string]func(src int32) []int64 {
	variants := map[string]func(src int32) []int64{
		"serial":          func(src int32) []int64 { return SerialSSSP(h, src) },
		"serial-physical": func(src int32) []int64 { return SerialSSSPPhysical(h, src) },
	}
	for _, cfg := range []struct {
		name string
		rt   par.Runtime
		st   Strategy
	}{
		{"exec1-selective", par.NewExec(1), Selective},
		{"exec4-selective", par.NewExec(4), Selective},
		{"exec4-naive", par.NewExec(4), Naive},
		{"sim-selective", mta.NewSim(mta.MTA2(40)), Selective},
		{"sim-naive", mta.NewSim(mta.MTA2(40)), Naive},
	} {
		s := NewSolver(h, cfg.rt, WithStrategy(cfg.st))
		variants[cfg.name] = s.SSSP
	}
	return variants
}

func checkAll(t *testing.T, g *graph.Graph, sources []int32) {
	t.Helper()
	h := ch.BuildKruskal(g)
	if err := h.Validate(); err != nil {
		t.Fatalf("hierarchy invalid: %v", err)
	}
	for _, src := range sources {
		want := dijkstra.SSSP(g, src)
		for name, run := range solverVariants(h) {
			if got := run(src); !sameDists(got, want) {
				t.Errorf("%s src=%d: mismatch vs Dijkstra", name, src)
			}
		}
	}
}

func TestPath(t *testing.T) {
	checkAll(t, gen.Path(10, 3), []int32{0, 5, 9})
}

func TestPowerOfTwoWeights(t *testing.T) {
	b := graph.NewBuilder(5)
	for i, w := range []uint32{1, 2, 4, 8} {
		b.MustAddEdge(int32(i), int32(i+1), w)
	}
	checkAll(t, b.Build(), []int32{0, 2, 4})
}

func TestSingleVertex(t *testing.T) {
	g := graph.NewBuilder(1).Build()
	h := ch.BuildKruskal(g)
	for name, run := range solverVariants(h) {
		if d := run(0); d[0] != 0 {
			t.Errorf("%s: d[0]=%d", name, d[0])
		}
	}
}

func TestDisconnected(t *testing.T) {
	b := graph.NewBuilder(6)
	b.MustAddEdge(0, 1, 2)
	b.MustAddEdge(1, 2, 3)
	b.MustAddEdge(3, 4, 1) // 5 isolated
	checkAll(t, b.Build(), []int32{0, 3, 5})
}

func TestSelfLoopsAndParallelEdges(t *testing.T) {
	b := graph.NewBuilder(3)
	b.MustAddEdge(0, 0, 5)
	b.MustAddEdge(0, 1, 9)
	b.MustAddEdge(0, 1, 3)
	b.MustAddEdge(1, 2, 1)
	checkAll(t, b.Build(), []int32{0, 2})
}

func TestUniformWeightOne(t *testing.T) {
	// All weights 1: the hierarchy is a single flat root and Thorup
	// degenerates to parallel BFS.
	checkAll(t, gen.Cycle(64, 1), []int32{0, 31})
}

func TestSmallCFamilies(t *testing.T) {
	checkAll(t, gen.Random(400, 1600, 4, gen.UWD, 1), []int32{0, 200})
}

func TestLargeCFamilies(t *testing.T) {
	checkAll(t, gen.Random(400, 1600, 1<<20, gen.UWD, 2), []int32{0, 399})
}

func TestPWDFamilies(t *testing.T) {
	checkAll(t, gen.Random(400, 1600, 1<<16, gen.PWD, 3), []int32{7})
}

func TestRMATFamilies(t *testing.T) {
	checkAll(t, gen.RMATGraph(512, 2048, 1<<10, gen.UWD, 4), []int32{0, 100})
}

func TestGridRoadLike(t *testing.T) {
	checkAll(t, gen.GridGraph(20, 25, 64, gen.UWD, 5), []int32{0, 499})
}

func TestStarHighDegree(t *testing.T) {
	checkAll(t, gen.Star(500, 7), []int32{0, 499})
}

func TestQueryReuse(t *testing.T) {
	g := gen.Random(300, 1200, 1<<10, gen.UWD, 6)
	h := ch.BuildKruskal(g)
	s := NewSolver(h, par.NewExec(4))
	q := s.Query()
	for _, src := range []int32{0, 100, 200, 0} {
		want := dijkstra.SSSP(g, src)
		if got := q.Run(src); !sameDists(got, want) {
			t.Fatalf("reused query wrong for src %d", src)
		}
	}
}

func TestSourceOutOfRangePanics(t *testing.T) {
	h := ch.BuildKruskal(gen.Path(3, 1))
	s := NewSolver(h, par.NewExec(1))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range source")
		}
	}()
	s.SSSP(99)
}

func TestInstanceBytesSmallerThanGraph(t *testing.T) {
	g := gen.Random(2000, 8000, 1<<10, gen.UWD, 7)
	h := ch.BuildKruskal(g)
	q := NewSolver(h, par.NewExec(1)).Query()
	if q.InstanceBytes() <= 0 {
		t.Fatal("non-positive instance size")
	}
	// The paper's §5.2 point: a query instance is cheaper than copying the
	// graph (which repeated delta-stepping would need for parallel runs).
	if q.InstanceBytes() >= g.MemoryBytes() {
		t.Fatalf("instance %d bytes not below graph %d bytes", q.InstanceBytes(), g.MemoryBytes())
	}
}

func TestRunManyExec(t *testing.T) {
	g := gen.Random(500, 2000, 1<<12, gen.UWD, 8)
	h := ch.BuildKruskal(g)
	s := NewSolver(h, par.NewExec(4))
	sources := []int32{0, 17, 123, 499, 17}
	res := s.RunMany(sources)
	for i, src := range sources {
		if !sameDists(res[i], dijkstra.SSSP(g, src)) {
			t.Errorf("simultaneous query %d (src %d) wrong", i, src)
		}
	}
}

func TestRunManySim(t *testing.T) {
	g := gen.Random(200, 800, 1<<8, gen.UWD, 9)
	h := ch.BuildKruskal(g)
	s := NewSolver(h, mta.NewSim(mta.MTA2(8)))
	res := s.RunMany([]int32{0, 50})
	for i, src := range []int32{0, 50} {
		if !sameDists(res[i], dijkstra.SSSP(g, src)) {
			t.Errorf("sim simultaneous query %d wrong", i)
		}
	}
}

func TestSelectiveCheaperThanNaiveSim(t *testing.T) {
	// The Table 6 effect: on the simulated machine, the selective strategy's
	// total span must beat the naive all-processors strategy.
	g := gen.Random(1<<12, 1<<14, 1<<12, gen.UWD, 11)
	h := ch.BuildKruskal(g)
	m := mta.MTA2(40)

	span := func(st Strategy) int64 {
		rt := mta.NewSim(m)
		NewSolver(h, rt, WithStrategy(st)).SSSP(0)
		return rt.SimCost().Span
	}
	naive, selective := span(Naive), span(Selective)
	if selective >= naive {
		t.Fatalf("selective span %d not below naive %d", selective, naive)
	}
}

// Property: all variants match Dijkstra on random multigraphs across weight
// regimes and sources.
func TestQuickAllVariantsMatchDijkstra(t *testing.T) {
	f := func(seed uint32, pwd, smallC bool) bool {
		n := int(seed%100) + 1
		dist := gen.UWD
		if pwd {
			dist = gen.PWD
		}
		c := uint32(1 << 14)
		if smallC {
			c = 4
		}
		g := gen.Random(n, 4*n, c, dist, uint64(seed))
		h := ch.BuildKruskal(g)
		src := int32(seed % uint32(n))
		want := dijkstra.SSSP(g, src)
		for _, run := range solverVariants(h) {
			if !sameDists(run(src), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkThorupSerial(b *testing.B) {
	g := gen.Random(1<<14, 1<<16, 1<<14, gen.UWD, 42)
	h := ch.BuildKruskal(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SerialSSSP(h, 0)
	}
}

func BenchmarkThorupParallelExec(b *testing.B) {
	g := gen.Random(1<<14, 1<<16, 1<<14, gen.UWD, 42)
	h := ch.BuildKruskal(g)
	s := NewSolver(h, par.NewExec(4))
	q := s.Query()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Run(0)
	}
}

// Solver.InstanceBytes (hierarchy arithmetic, what /stats reports) must agree
// with the footprint of an actually-allocated Query.
func TestInstanceBytesArithmetic(t *testing.T) {
	g := gen.Random(700, 2800, 1<<10, gen.UWD, 17)
	h := ch.BuildKruskal(g)
	exec, sim := NewSolver(h, par.NewExec(2)), NewSolver(h, mta.NewSim(mta.MTA2(2)))
	for name, s := range map[string]*Solver{"exec": exec, "sim": sim} {
		if got, want := s.InstanceBytes(), s.Query().InstanceBytes(); got != want {
			t.Errorf("%s: Solver.InstanceBytes=%d, Query.InstanceBytes=%d", name, got, want)
		}
	}
	// Each mode reports what it allocates: one word per leaf and no toVisit
	// scratch make the serving kernel's instance the smaller one.
	if exec.InstanceBytes() >= sim.InstanceBytes() {
		t.Errorf("exec instance %d bytes not below sim %d", exec.InstanceBytes(), sim.InstanceBytes())
	}
	if got := int64(unsafe.Sizeof(execNode{})); got != execNodeBytes {
		t.Errorf("execNodeBytes = %d, an execNode is %d bytes", execNodeBytes, got)
	}
}

// The solver must work over any of the three hierarchy constructions.
func TestSolverOverAllConstructions(t *testing.T) {
	g := gen.Random(500, 2000, 1<<10, gen.PWD, 21)
	want := dijkstra.SSSP(g, 7)
	rt := par.NewExec(4)
	for name, h := range map[string]*ch.Hierarchy{
		"kruskal": ch.BuildKruskal(g),
		"naive":   ch.BuildNaive(rt, g, ccBullyKernel),
		"mst":     ch.BuildMST(rt, g),
	} {
		if got := NewSolver(h, rt).SSSP(7); !sameDists(got, want) {
			t.Errorf("%s hierarchy: wrong distances", name)
		}
		if got := SerialSSSP(h, 7); !sameDists(got, want) {
			t.Errorf("%s hierarchy (serial): wrong distances", name)
		}
	}
}

// Thorup on the new generator families.
func TestSpatialFamilies(t *testing.T) {
	checkAll(t, gen.Geometric(800, 0.06, 64, 31), []int32{0, 400})
	checkAll(t, gen.SmallWorld(600, 2, 0.1, 128, gen.UWD, 32), []int32{0, 300})
}
