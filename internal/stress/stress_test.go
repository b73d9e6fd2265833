package stress

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dijkstra"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/solver"
)

// TestSweepClean is the deterministic correctness gate: one full sweep round
// across every family, every solver, every oracle. `make stress` runs this
// under -race.
func TestSweepClean(t *testing.T) {
	cfg := Config{Seed: 1, Rounds: 1, MaxN: 192, Workers: 4, Logf: t.Logf}
	if testing.Short() {
		cfg.MaxN = 64
	}
	if f := Run(cfg); f != nil {
		t.Fatalf("sweep found a failure on a presumed-correct tree: %v", f)
	}
}

// TestSweepDeterministic: the same seed must generate the same sweep and the
// same source sets — repro commands in failure reports depend on it.
func TestSweepDeterministic(t *testing.T) {
	a := Sweep(42, 128)
	b := Sweep(42, 128)
	if len(a) != len(b) {
		t.Fatalf("sweep lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("spec %d differs: %+v vs %+v", i, a[i], b[i])
		}
		ga, gb := a[i].Generate(), b[i].Generate()
		if ga.NumVertices() != gb.NumVertices() || ga.NumEdges() != gb.NumEdges() {
			t.Fatalf("spec %d generated different graphs", i)
		}
	}
	if len(Sweep(43, 128)) == 0 || Sweep(43, 128)[0].Seed == a[0].Seed {
		t.Fatal("different seeds produced the same instance seeds")
	}
}

// brokenDijkstra returns an off-by-one SSSP: the distance of the
// highest-indexed reachable non-source vertex is reported one too large.
// This is the artificial fault of the acceptance criteria: the harness must
// catch it and shrink the witness to a tiny instance.
func brokenDijkstra() solver.Solver {
	return solver.Solver{
		Name: "broken",
		NewState: func() solver.State {
			return solver.StateFunc(func(_ context.Context, in *solver.Instance, sources []int32) []int64 {
				d := dijkstra.SSSPFromSources(in.G, sources)
				for v := len(d) - 1; v >= 0; v-- {
					if d[v] != 0 && d[v] != graph.Inf {
						d[v]++ // the injected off-by-one
						break
					}
				}
				return d
			})
		},
	}
}

// TestInjectedFaultCaughtAndShrunk: with a deliberately broken solver in the
// pool, the differential oracle must trip, and the shrinker must reduce the
// witness to at most 64 vertices while keeping the discrepancy alive.
func TestInjectedFaultCaughtAndShrunk(t *testing.T) {
	cfg := Config{
		Seed:    7,
		MaxN:    192,
		Workers: 2,
		Solvers: append(solver.All(), brokenDijkstra()),
	}
	f := Run(cfg)
	if f == nil {
		t.Fatal("injected off-by-one not caught")
	}
	if !strings.Contains(f.Check, "broken") {
		t.Fatalf("failure not attributed to the broken solver: %v", f)
	}
	if n := f.G.NumVertices(); n > 64 {
		t.Fatalf("shrinker left %d vertices, want <= 64 (failure: %v)", n, f)
	}
	t.Logf("shrunk witness: n=%d m=%d: %v", f.G.NumVertices(), f.G.NumEdges(), f)

	// The repro round trip must preserve the failure.
	dir := t.TempDir()
	grPath, err := f.WriteRepro(dir)
	if err != nil {
		t.Fatalf("WriteRepro: %v", err)
	}
	rt := par.NewExec(2)
	sub := cfg
	sub.NoRace = true
	f2, err := ReplayFile(sub, rt, grPath)
	if err != nil {
		t.Fatalf("ReplayFile: %v", err)
	}
	if f2 == nil || f2.Check != f.Check {
		t.Fatalf("replayed repro did not reproduce %q: got %v", f.Check, f2)
	}
}

// TestShrinkerConvergesOnTinyWitness: a fault that needs only a 2-vertex
// graph must shrink all the way down.
func TestShrinkerConvergesOnTinyWitness(t *testing.T) {
	g := Spec{Family: "rand", N: 128, C: 16, Seed: 3}.Generate()
	// Property: graph has at least one edge and at least 2 vertices (a stand-in
	// for "the bug reproduces"; minimal witnesses are 2 vertices, 1 edge).
	keep := func(g2 *graph.Graph, sources []int32) bool {
		return g2.NumVertices() >= 2 && g2.NumEdges() >= 1
	}
	sg, srcs := Shrink(g, []int32{5}, keep)
	if sg.NumVertices() > 2 || sg.NumEdges() > 1 {
		t.Fatalf("shrinker stalled at n=%d m=%d", sg.NumVertices(), sg.NumEdges())
	}
	if len(srcs) != 1 {
		t.Fatalf("sources not simplified: %v", srcs)
	}
}

// TestReplayCorpus replays the checked-in regression corpus: shrunk
// historical repros and representative degenerate instances. Every entry
// must pass the full oracle stack.
func TestReplayCorpus(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "stress")
	rt := par.NewExec(4)
	f, err := ReplayDir(Config{Logf: t.Logf}, rt, dir)
	if err != nil {
		t.Fatalf("corpus replay: %v", err)
	}
	if f != nil {
		t.Fatalf("corpus instance failed: %v", f)
	}
}

// TestCheckInstanceCatchesCorruptMetamorphic sanity-checks the metamorphic
// plumbing itself: a solver wrong only under relabeling (it special-cases
// vertex ids) must be caught by the relabel transform even though it is
// correct on the base instance... which differential would also catch.
// Instead, verify the transforms produce valid graphs by running a clean
// check on a couple of hand-built instances.
func TestCheckInstanceHandBuilt(t *testing.T) {
	rt := par.NewExec(2)
	// Multigraph with self-loops and parallel edges.
	b := graph.NewBuilder(6)
	b.MustAddEdge(0, 0, 7)
	b.MustAddEdge(0, 1, 3)
	b.MustAddEdge(0, 1, 2)
	b.MustAddEdge(1, 2, 1)
	b.MustAddEdge(3, 4, 9)
	g := b.Build() // vertex 5 isolated, {3,4} disconnected from {0,1,2}
	if f := CheckInstance(Config{}, rt, "hand-multigraph", g, []int32{0, 3}); f != nil {
		t.Fatalf("multigraph: %v", f)
	}
	// Single vertex, no edges.
	if f := CheckInstance(Config{}, rt, "hand-single", graph.NewBuilder(1).Build(), []int32{0}); f != nil {
		t.Fatalf("single vertex: %v", f)
	}
}
