package ch

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cc"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mta"
	"repro/internal/par"
)

func builds() map[string]func(g *graph.Graph) *Hierarchy {
	exec := par.NewExec(4)
	sim := mta.NewSim(mta.MTA2(8))
	return map[string]func(g *graph.Graph) *Hierarchy{
		"naive-bully-exec": func(g *graph.Graph) *Hierarchy { return BuildNaive(exec, g, cc.Bully) },
		"naive-sv-exec":    func(g *graph.Graph) *Hierarchy { return BuildNaive(exec, g, cc.ShiloachVishkin) },
		"naive-bully-sim":  func(g *graph.Graph) *Hierarchy { return BuildNaive(sim, g, cc.Bully) },
		"kruskal":          BuildKruskal,
		"mst":              func(g *graph.Graph) *Hierarchy { return BuildMST(exec, g) },
	}
}

// signature canonicalises a hierarchy for equality comparison: for every
// vertex, the sequence of (level, vertexCount) pairs on its leaf-to-root
// path. Two hierarchies over the same graph are isomorphic iff all
// signatures agree (node ids may differ between constructions).
func signature(h *Hierarchy) [][]int64 {
	n := h.g.NumVertices()
	sig := make([][]int64, n)
	for v := 0; v < n; v++ {
		x := int32(v)
		for x >= 0 {
			sig[v] = append(sig[v], int64(h.Level(x))<<32|int64(h.VertexCount(x)))
			x = h.Parent(x)
		}
	}
	return sig
}

func sameSignature(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestPaperExampleShape(t *testing.T) {
	// A small graph engineered to produce a two-tier hierarchy: two clusters
	// of light edges joined by one heavy edge (like the paper's Figure 1).
	b := graph.NewBuilder(6)
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(1, 2, 2)
	b.MustAddEdge(3, 4, 1)
	b.MustAddEdge(4, 5, 3)
	b.MustAddEdge(2, 3, 12) // heavy bridge: level 4 (12 < 16 = 2^4)
	g := b.Build()
	h := BuildKruskal(g)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.MaxLevel() != 4 {
		t.Fatalf("root level = %d, want 4", h.MaxLevel())
	}
	root := h.Root()
	if len(h.Children(root)) != 2 {
		t.Fatalf("root has %d children, want the two clusters", len(h.Children(root)))
	}
	if h.VertexCount(root) != 6 {
		t.Fatalf("root vertexCount = %d", h.VertexCount(root))
	}
}

func TestLevelOf(t *testing.T) {
	cases := map[uint32]int32{1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4, 1 << 20: 21}
	for w, want := range cases {
		if got := levelOf(w); got != want {
			t.Errorf("levelOf(%d) = %d, want %d", w, got, want)
		}
	}
}

func TestEmptyAndTrivialGraphs(t *testing.T) {
	for name, build := range builds() {
		h := build(graph.NewBuilder(0).Build())
		if err := h.Validate(); err != nil {
			t.Errorf("%s empty: %v", name, err)
		}
		h1 := build(graph.NewBuilder(1).Build())
		if err := h1.Validate(); err != nil {
			t.Errorf("%s singleton: %v", name, err)
		}
		if h1.Root() != 0 || h1.NumNodes() != 1 {
			t.Errorf("%s singleton: root=%d nodes=%d", name, h1.Root(), h1.NumNodes())
		}
	}
}

func TestDisconnectedVirtualRoot(t *testing.T) {
	b := graph.NewBuilder(5)
	b.MustAddEdge(0, 1, 3)
	b.MustAddEdge(2, 3, 5) // vertex 4 isolated
	g := b.Build()
	for name, build := range builds() {
		h := build(g)
		if err := h.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !h.virtualRoot {
			t.Errorf("%s: expected virtual root", name)
		}
		if got := len(h.Children(h.Root())); got != 3 {
			t.Errorf("%s: virtual root has %d children, want 3", name, got)
		}
	}
}

func TestUniformWeightsSingleMerge(t *testing.T) {
	// All weights 1: everything merges at level 1 into one flat root.
	g := gen.Cycle(50, 1)
	for name, build := range builds() {
		h := build(g)
		if err := h.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if h.NumInternal() != 1 || h.MaxLevel() != 1 {
			t.Errorf("%s: internal=%d maxLevel=%d, want flat level-1 root", name, h.NumInternal(), h.MaxLevel())
		}
		if len(h.Children(h.Root())) != 50 {
			t.Errorf("%s: root children = %d", name, len(h.Children(h.Root())))
		}
	}
}

func TestPowerOfTwoPathChain(t *testing.T) {
	// Path with weights 1,2,4,8: each level merges exactly one more vertex
	// group; hierarchy must be a left-leaning chain of 4 internal nodes.
	b := graph.NewBuilder(5)
	for i, w := range []uint32{1, 2, 4, 8} {
		b.MustAddEdge(int32(i), int32(i+1), w)
	}
	g := b.Build()
	h := BuildKruskal(g)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.NumInternal() != 4 {
		t.Fatalf("internal nodes = %d, want 4", h.NumInternal())
	}
	if h.MaxLevel() != 4 {
		t.Fatalf("max level = %d, want 4", h.MaxLevel())
	}
	st := h.ComputeStats()
	if st.Height != 5 {
		t.Fatalf("height = %d, want 5", st.Height)
	}
}

func TestAllConstructionsAgree(t *testing.T) {
	gs := []*graph.Graph{
		gen.Random(300, 1200, 1<<10, gen.UWD, 1),
		gen.Random(300, 1200, 1<<10, gen.PWD, 2),
		gen.Random(300, 1200, 4, gen.UWD, 3),
		gen.RMATGraph(256, 1024, 1<<8, gen.UWD, 4),
		gen.GridGraph(15, 20, 16, gen.PWD, 5),
		gen.Path(64, 9),
		gen.Star(64, 5),
	}
	for gi, g := range gs {
		var ref [][]int64
		var refName string
		for name, build := range builds() {
			h := build(g)
			if err := h.Validate(); err != nil {
				t.Errorf("graph %d %s: %v", gi, name, err)
				continue
			}
			sig := signature(h)
			if ref == nil {
				ref, refName = sig, name
				continue
			}
			if !sameSignature(ref, sig) {
				t.Errorf("graph %d: %s and %s hierarchies differ", gi, refName, name)
			}
		}
	}
}

func TestStatsBasics(t *testing.T) {
	g := gen.Random(500, 2000, 1<<10, gen.UWD, 7)
	h := BuildKruskal(g)
	st := h.ComputeStats()
	if st.Components != h.NumNodes() || st.Internal != h.NumInternal() {
		t.Fatalf("stats counts wrong: %+v", st)
	}
	if st.AvgChildren < 2 {
		t.Fatalf("avg children %f < 2 in a compressed hierarchy", st.AvgChildren)
	}
	if st.MaxChildren < int(st.AvgChildren) {
		t.Fatalf("max children %d below average %f", st.MaxChildren, st.AvgChildren)
	}
	if st.CHBytes <= 0 || st.Height < 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSmallCHasFewerComponents(t *testing.T) {
	// The paper's Table 2 observation: small max weights (C=2^2) give
	// fewer components and more children per component than C=2^n.
	n := 1 << 10
	big := BuildKruskal(gen.Random(n, 4*n, uint32(n), gen.UWD, 11))
	small := BuildKruskal(gen.Random(n, 4*n, 4, gen.UWD, 11))
	if small.NumNodes() >= big.NumNodes() {
		t.Errorf("small-C components %d not below big-C %d", small.NumNodes(), big.NumNodes())
	}
	if small.ComputeStats().AvgChildren <= big.ComputeStats().AvgChildren {
		t.Errorf("small-C avg children %.1f not above big-C %.1f",
			small.ComputeStats().AvgChildren, big.ComputeStats().AvgChildren)
	}
}

func TestLCA(t *testing.T) {
	b := graph.NewBuilder(4)
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(2, 3, 1)
	b.MustAddEdge(1, 2, 8)
	g := b.Build()
	h := BuildKruskal(g)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if l := h.LCA(0, 1); h.Level(l) != 1 {
		t.Errorf("LCA(0,1) at level %d, want 1", h.Level(l))
	}
	if l := h.LCA(0, 3); l != h.Root() {
		t.Errorf("LCA(0,3) = %d, want root %d", l, h.Root())
	}
	if l := h.LCA(2, 2); l != 2 {
		t.Errorf("LCA(2,2) = %d", l)
	}
}

func TestShift(t *testing.T) {
	b := graph.NewBuilder(2)
	b.MustAddEdge(0, 1, 8) // level 4 node
	h := BuildKruskal(b.Build())
	if got := h.Shift(h.Root()); got != 3 {
		t.Fatalf("Shift(root) = %d, want 3", got)
	}
	if got := h.Shift(0); got != 0 {
		t.Fatalf("Shift(leaf) = %d, want 0", got)
	}
}

func TestPartitionAtLevelMatchesCC(t *testing.T) {
	g := gen.Random(200, 800, 1<<8, gen.PWD, 13)
	h := BuildKruskal(g)
	for i := int32(1); i <= h.MaxLevel(); i++ {
		part := h.PartitionAtLevel(i)
		want, wantCount := cc.SerialBFS(g, uint32(1)<<uint(i))
		if !samePartition(part, want, wantCount) {
			t.Fatalf("partition at level %d differs from CC", i)
		}
	}
}

func TestSimCostRecorded(t *testing.T) {
	g := gen.Random(1000, 4000, 1<<10, gen.UWD, 17)
	rt := mta.NewSim(mta.MTA2(40))
	BuildNaive(rt, g, cc.Bully)
	if rt.SimCost().Work < int64(g.NumEdges()) {
		t.Fatalf("simulated work %d too low", rt.SimCost().Work)
	}
}

// Property: for random graphs all constructions validate and agree.
func TestQuickConstructionsAgree(t *testing.T) {
	exec := par.NewExec(4)
	f := func(seed uint32, smallC bool) bool {
		n := int(seed%80) + 2
		c := uint32(1 << 10)
		if smallC {
			c = 4
		}
		g := gen.Random(n, 4*n, c, gen.UWD, uint64(seed))
		hk := BuildKruskal(g)
		if hk.Validate() != nil {
			return false
		}
		hn := BuildNaive(exec, g, cc.Bully)
		if hn.Validate() != nil {
			return false
		}
		hm := BuildMST(exec, g)
		if hm.Validate() != nil {
			return false
		}
		sk := signature(hk)
		return sameSignature(sk, signature(hn)) && sameSignature(sk, signature(hm))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Two builds of one graph must produce identical arrays, not merely
// isomorphic trees: snapshot files are byte-compared across conversions.
func TestBuildDeterministic(t *testing.T) {
	g := gen.Random(400, 1600, 1<<10, gen.UWD, 8)
	if a, b := BuildKruskal(g).Raw(), BuildKruskal(g).Raw(); !reflect.DeepEqual(a, b) {
		t.Fatal("BuildKruskal nondeterministic")
	}
}

// The next three pin the deep validation every snapshot read path runs
// (FromRaw with deep set): arrays paired with a graph they were not built
// for are refused here even when no stored fingerprint is there to catch it.

func TestReadRejectsWrongGraph(t *testing.T) {
	raw := BuildKruskal(gen.Random(200, 800, 256, gen.UWD, 3)).Raw()
	// Different vertex count: the O(1) shape checks reject, deep or not.
	other := gen.Random(100, 400, 256, gen.UWD, 3)
	for _, deep := range []bool{false, true} {
		if _, err := FromRaw(other, raw, deep); err == nil {
			t.Fatalf("deep=%v: accepted hierarchy for a graph of different size", deep)
		}
	}
}

func TestReadRejectsFingerprintMismatch(t *testing.T) {
	raw := BuildKruskal(gen.Random(200, 800, 256, gen.UWD, 3)).Raw()
	// Same n and m, different content: every shape check passes, so the
	// sampled separation check is what must trip.
	sameSize := gen.Random(200, 800, 256, gen.UWD, 99)
	_, err := FromRaw(sameSize, raw, true)
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("want a does-not-match rejection, got %v", err)
	}
}

func TestReadRejectsCrossComponentGraph(t *testing.T) {
	// Hierarchy built for two separate components, then paired with a graph
	// that joins them: the sampled edge check must reject, not panic.
	b1 := graph.NewBuilder(4)
	b1.MustAddEdge(0, 1, 2)
	b1.MustAddEdge(2, 3, 2)
	raw := BuildKruskal(b1.Build()).Raw()
	b2 := graph.NewBuilder(4)
	b2.MustAddEdge(0, 1, 2)
	b2.MustAddEdge(2, 3, 2)
	b2.MustAddEdge(1, 2, 2) // crosses the stored components... same sizes
	if _, err := FromRaw(b2.Build(), raw, true); err == nil {
		t.Fatal("accepted hierarchy whose components the graph bridges")
	}
}

func BenchmarkBuildNaive(b *testing.B) {
	g := gen.Random(1<<12, 1<<14, 1<<12, gen.UWD, 42)
	rt := par.NewExec(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildNaive(rt, g, cc.Bully)
	}
}

func BenchmarkBuildKruskal(b *testing.B) {
	g := gen.Random(1<<12, 1<<14, 1<<12, gen.UWD, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildKruskal(g)
	}
}

func BenchmarkBuildMST(b *testing.B) {
	g := gen.Random(1<<12, 1<<14, 1<<12, gen.UWD, 42)
	rt := par.NewExec(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildMST(rt, g)
	}
}
