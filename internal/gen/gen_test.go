package gen

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
)

// isConnected checks connectivity with a simple BFS (self-contained so the
// gen tests do not depend on internal/cc).
func isConnected(g *graph.Graph) bool {
	n := g.NumVertices()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	queue := []int32{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		ts, _ := g.Neighbors(v)
		for _, u := range ts {
			if !seen[u] {
				seen[u] = true
				count++
				queue = append(queue, u)
			}
		}
	}
	return count == n
}

func TestRandomBasics(t *testing.T) {
	g := Random(1000, 4000, 1<<10, UWD, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1000 || g.NumEdges() != 4000 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if !isConnected(g) {
		t.Fatal("random graph with cycle base must be connected")
	}
	if g.MaxWeight() > 1<<10 || g.MinWeight() < 1 {
		t.Fatalf("weights out of range: [%d,%d]", g.MinWeight(), g.MaxWeight())
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(500, 2000, 100, UWD, 7)
	b := Random(500, 2000, 100, UWD, 7)
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("edge counts differ")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestRandomSeedsDiffer(t *testing.T) {
	a := Random(500, 2000, 100, UWD, 1)
	b := Random(500, 2000, 100, UWD, 2)
	ea, eb := a.Edges(), b.Edges()
	same := 0
	for i := range ea {
		if ea[i] == eb[i] {
			same++
		}
	}
	if same == len(ea) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestRandomSingleVertex(t *testing.T) {
	g := Random(1, 3, 10, UWD, 5)
	if g.NumVertices() != 1 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestRandomPanicsOnBadArgs(t *testing.T) {
	for _, f := range []func(){
		func() { Random(0, 0, 1, UWD, 0) },
		func() { Random(10, 5, 1, UWD, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestPWDWeightsArePowersOfTwo(t *testing.T) {
	g := Random(200, 800, 1<<8, PWD, 3)
	for _, e := range g.Edges() {
		if e.W&(e.W-1) != 0 {
			t.Fatalf("PWD weight %d not a power of two", e.W)
		}
		if e.W < 2 || e.W > 1<<8 {
			t.Fatalf("PWD weight %d out of [2, 256]", e.W)
		}
	}
}

// sampleWeight's PWD arm takes floor(log2 C) without a shift that wraps: the
// loop it replaced never ended at C >= 2^31. (No graph carries such weights —
// graph.MaxWeight is 2^30 — so the table is on the sampler itself.)
func TestPWDSampleWeightAtEveryC(t *testing.T) {
	for _, tc := range []struct{ c, lo, hi uint32 }{
		{1, 1, 1}, {2, 2, 2}, {3, 2, 2}, {1 << 30, 2, 1 << 30}, {1 << 31, 2, 1 << 31}, {1<<32 - 1, 2, 1 << 31},
	} {
		r := rng.New(uint64(tc.c))
		var top uint32
		for i := 0; i < 4096; i++ {
			w := sampleWeight(r, tc.c, PWD)
			if w&(w-1) != 0 || w < tc.lo || w > tc.hi {
				t.Fatalf("C=%d: PWD weight %d, want a power of two in [%d, %d]", tc.c, w, tc.lo, tc.hi)
			}
			top = max(top, w)
		}
		if top != tc.hi { // 4096 draws over at most 31 classes reach the top one
			t.Errorf("C=%d: largest weight drawn %d, want %d", tc.c, top, tc.hi)
		}
	}
}

func TestPWDFavoursSmallWeights(t *testing.T) {
	// The paper observes PWD favours small weights; the median weight must
	// be far below C/2.
	g := Random(2000, 8000, 1<<20, PWD, 9)
	var ws []uint32
	for _, e := range g.Edges() {
		ws = append(ws, e.W)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	if med := ws[len(ws)/2]; med > 1<<11 {
		t.Fatalf("PWD median weight %d too large", med)
	}
}

func TestUWDWeightsSpanRange(t *testing.T) {
	g := Random(2000, 8000, 1<<10, UWD, 11)
	if g.MinWeight() > 16 {
		t.Errorf("UWD min weight %d suspiciously large", g.MinWeight())
	}
	if g.MaxWeight() < 1<<9 {
		t.Errorf("UWD max weight %d suspiciously small", g.MaxWeight())
	}
}

func TestUWDSmallC(t *testing.T) {
	g := Random(100, 400, 4, UWD, 13) // C = 2^2 per the paper's small-C rows
	for _, e := range g.Edges() {
		if e.W < 1 || e.W > 4 {
			t.Fatalf("weight %d out of [1,4]", e.W)
		}
	}
}

func TestRMATBasics(t *testing.T) {
	g := RMATGraph(1024, 4096, 1<<10, UWD, 2)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1024 || g.NumEdges() != 4096 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestRMATSkewedDegrees(t *testing.T) {
	// R-MAT must be much more skewed than the random family: its max degree
	// should far exceed the random graph's.
	rm := RMATGraph(4096, 16384, 100, UWD, 4)
	rd := Random(4096, 16384, 100, UWD, 4)
	if rm.Degrees().Max < 2*rd.Degrees().Max {
		t.Fatalf("RMAT max degree %d vs random %d: not skewed",
			rm.Degrees().Max, rd.Degrees().Max)
	}
}

func TestGridBasics(t *testing.T) {
	g := GridGraph(10, 20, 16, UWD, 6)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 200 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	// Grid edges: rows*(cols-1) + (rows-1)*cols.
	want := int64(10*19 + 9*20)
	if g.NumEdges() != want {
		t.Fatalf("m=%d, want %d", g.NumEdges(), want)
	}
	if !isConnected(g) {
		t.Fatal("grid must be connected")
	}
	if g.Degrees().Max > 4 {
		t.Fatalf("grid max degree %d", g.Degrees().Max)
	}
}

func TestPathCycleStarComplete(t *testing.T) {
	p := Path(5, 3)
	if p.NumEdges() != 4 || !isConnected(p) {
		t.Fatalf("path: %v", p)
	}
	c := Cycle(5, 2)
	if c.NumEdges() != 5 || c.Degrees().Max != 2 {
		t.Fatalf("cycle: %v", c)
	}
	s := Star(6, 1)
	if s.NumEdges() != 5 || s.Degree(0) != 5 {
		t.Fatalf("star: %v", s)
	}
	k := Complete(6, 50, 1)
	if k.NumEdges() != 15 {
		t.Fatalf("complete: %v", k)
	}
}

func TestInstanceNaming(t *testing.T) {
	in := Instance{Class: RMAT, Dist: PWD, LogN: 20, LogC: 20}
	if in.Name() != "RMAT-PWD-2^20-2^20" {
		t.Fatalf("name = %q", in.Name())
	}
	in2 := Instance{Class: Rand, Dist: UWD, LogN: 14, LogC: 2}
	if in2.Name() != "Rand-UWD-2^14-2^2" {
		t.Fatalf("name = %q", in2.Name())
	}
}

func TestInstanceGenerate(t *testing.T) {
	for _, in := range []Instance{
		{Class: Rand, Dist: UWD, LogN: 10, LogC: 10, Seed: 1},
		{Class: Rand, Dist: PWD, LogN: 10, LogC: 10, Seed: 1},
		{Class: RMAT, Dist: UWD, LogN: 10, LogC: 2, Seed: 1},
		{Class: Grid, Dist: UWD, LogN: 10, LogC: 4, Seed: 1},
	} {
		g := in.Generate()
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", in.Name(), err)
		}
		if g.NumVertices() != in.N() {
			t.Errorf("%s: n=%d, want %d", in.Name(), g.NumVertices(), in.N())
		}
		if in.Class != Grid && g.NumEdges() != int64(4*in.N()) {
			t.Errorf("%s: m=%d, want 4n", in.Name(), g.NumEdges())
		}
	}
}

// Property: every generated instance validates and has weights within [1,C].
func TestQuickGeneratedInstancesValid(t *testing.T) {
	f := func(seed uint32, logN uint8, pwd bool) bool {
		ln := int(logN%5) + 4 // 16..256 vertices
		dist := UWD
		if pwd {
			dist = PWD
		}
		in := Instance{Class: Rand, Dist: dist, LogN: ln, LogC: ln, Seed: uint64(seed)}
		g := in.Generate()
		if g.Validate() != nil {
			return false
		}
		return g.MaxWeight() <= in.C() && (g.NumEdges() == 0 || g.MinWeight() >= 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
