package stress

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/ch"
	"repro/internal/dijkstra"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/par"
)

// TestMutationSequenceDeterministic: the oracle's sequence is a pure function
// of the seed and graph, so failures re-derive identically on replay.
func TestMutationSequenceDeterministic(t *testing.T) {
	g := gen.Random(200, 800, 1<<10, gen.UWD, 11)
	a := genMutationSequence(g, 6, 99)
	b := genMutationSequence(g, 6, 99)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("sequence lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("batch %d differs between identical seeds", i)
		}
	}
	if c := genMutationSequence(g, 6, 100); len(c) > 0 &&
		reflect.DeepEqual(a[0], c[0]) {
		t.Fatal("different seeds produced the same first batch")
	}
}

// TestWideBatchesReachBothRepairs: every third batch of a sequence touches at
// least a quarter of the vertices, and the wide ones alternate between the two
// repairs — additive first, then general.
func TestWideBatchesReachBothRepairs(t *testing.T) {
	g := gen.Random(200, 800, 1<<10, gen.UWD, 11)
	batches := genMutationSequence(g, 12, 99)
	if len(batches) != 12 {
		t.Fatalf("%d batches generated, want 12", len(batches))
	}
	cur, h := g, ch.BuildKruskal(g)
	for i, b := range batches {
		m, err := mutate.Mutate(cur, h, b, mutate.Options{})
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if wide := i%3 == 2; wide != (m.Touched >= 50) || wide && m.Additive != (i%6 == 2) {
			t.Fatalf("batch %d: %d of 200 vertices touched, additive %v", i, m.Touched, m.Additive)
		}
		cur, h = m.G, m.H
	}
}

// TestMutationOracleClean: on a correct tree the oracle must pass, with
// narrow and wide batches (every third one) exercised.
func TestMutationOracleClean(t *testing.T) {
	rt := par.NewExec(2)
	g := gen.Random(150, 600, 1<<10, gen.UWD, 5)
	cfg := Config{Seed: 5, MutateRounds: 6}.withDefaults()
	if f := checkMutate(cfg, rt, "clean", g, []int32{0, 50, 100}); f != nil {
		t.Fatalf("oracle tripped on correct machinery: %v", f)
	}
}

// TestMutationOracleBothLineages drives 100 batches — every third touching a
// quarter of the vertices — through a live catalog on both lineages, from each
// kind of start: a text source (no hierarchy) and a snapshot-like one (a
// hierarchy carried, never used). Un-demanded, every batch is an overlay,
// nothing builds, and the first solver=thorup — one build, over the 100th
// generation — agrees with Dijkstra on the reference replay. Demanded, each
// batch repairs, wide ones included, the generation it makes serving when
// Mutate returns; same answers, and the one build is the first demand's.
func TestMutationOracleBothLineages(t *testing.T) {
	base := gen.Random(200, 800, 1<<10, gen.UWD, 21)
	batches := genMutationSequence(base, 100, 77)
	if len(batches) != 100 {
		t.Fatalf("%d batches generated, want 100", len(batches))
	}
	ref, err := mutate.ReferenceApply(base, batches...)
	if err != nil {
		t.Fatal(err)
	}
	thorup := func(t *testing.T, cat *catalog.Catalog, g *graph.Graph) {
		t.Helper()
		gn, release, err := cat.Acquire("g")
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		for _, src := range []int32{0, 50, 199} {
			res, _, err := gn.Engine.Query(context.Background(), engine.Request{Sources: []int32{src}, Solver: "thorup"})
			if err != nil {
				t.Fatal(err)
			}
			if v := vectorDiff(res, dijkstra.SSSP(g, src)); v >= 0 {
				t.Fatalf("gen %d, solver=thorup from %d: d[%d] = %d, reference says otherwise", gn.Gen, src, v, res.At(v))
			}
		}
		if h, state, _ := gn.Hierarchy(); h.Graph() != gn.G || h.Validate() != nil {
			t.Fatalf("gen %d after solver=thorup: hierarchy %s, Validate: %v", gn.Gen, state, h.Validate())
		}
	}
	for _, start := range []struct {
		name    string
		carried bool
	}{{"text", false}, {"snapshot-carried", true}} {
		load := func(t *testing.T) *catalog.Catalog {
			cat := catalog.New(catalog.Config{QueryWorkers: 2, Logf: func(string, ...any) {}})
			t.Cleanup(cat.Close)
			loader := func() (*graph.Graph, *ch.Hierarchy, error) {
				if start.carried {
					return base, ch.BuildKruskal(base), nil
				}
				return base, nil, nil
			}
			if _, err := cat.Load("g", catalog.Source{Loader: loader}); err != nil {
				t.Fatal(err)
			}
			return cat
		}
		t.Run(start.name+"/undemanded", func(t *testing.T) {
			cat := load(t)
			for i, b := range batches {
				if res, err := cat.Mutate("g", b); err != nil || res.Gen != uint64(i+2) {
					t.Fatalf("batch %d: %+v, %v; want an overlay as gen %d", i, res, err, i+2)
				}
				if st := cat.Status()[0]; st.Hierarchy != "unbuilt" {
					t.Fatalf("after batch %d: hierarchy %s", i, st.Hierarchy)
				}
			}
			if n := cat.Counter("hierarchy_builds"); n != 0 {
				t.Fatalf("%d hierarchy builds over 100 un-demanded mutations", n)
			}
			thorup(t, cat, ref)
			if n := cat.Counter("hierarchy_builds"); n != 1 {
				t.Fatalf("%d hierarchy builds after the first solver=thorup, want 1", n)
			}
		})
		t.Run(start.name+"/demanded", func(t *testing.T) {
			cat := load(t)
			cur, h := base, ch.BuildKruskal(base) // the same lineage at the mutate level, for its RepairStats
			thorup(t, cat, cur)
			for i, b := range batches {
				res, err := cat.Mutate("g", b)
				if st := cat.Status()[0]; err != nil || st.Hierarchy != "carried" || st.Gen != uint64(i+2) || st.State != "ready" || st.Pending {
					t.Fatalf("after batch %d (%d touched): %+v, %v; want gen %d serving, hierarchy carried", i, res.Touched, st, err, i+2)
				}
				m, err := mutate.Mutate(cur, h, b, mutate.Options{})
				if err != nil || m.Stats.ReusedNodes <= 0 && m.Stats.DirtyNodes > 0 { // no dirty node: the structure is shared whole
					t.Fatalf("batch %d (%d touched): repair reused %d nodes, err %v", i, m.Touched, m.Stats.ReusedNodes, err)
				}
				if err := m.H.Validate(); err != nil {
					t.Fatalf("batch %d: repaired hierarchy: %v", i, err)
				}
				cur, h = m.G, m.H
			}
			thorup(t, cat, ref)
			if got, want := cat.Counter("hierarchy_builds"), map[bool]int64{true: 0, false: 1}[start.carried]; got != want {
				t.Fatalf("%d hierarchy builds, want %d: the first demand's, unless the start carried one", got, want)
			}
		})
	}
}

// TestServedAnswersExactAcrossHundredGenerations asks the same three source
// sets — one source, three, one in the small component — of 120 generations in
// a row, on a graph with a second component, parallel copies and self-loops.
// The first batches are the cases by name: a set_weight that lowers one copy
// and raises the other, a self-loop, a bridge into the other component and its
// removal; the rest are random mixed batches. Every answer equals Dijkstra on
// the naive replay, with the parent's remaining sets asked while Inherit walks
// its cache (run under -race: make stress), and all three outcomes of Inherit
// occur on both lineages.
func TestServedAnswersExactAcrossHundredGenerations(t *testing.T) {
	edges := gen.Random(120, 480, 1<<10, gen.UWD, 31).Edges()
	for _, e := range gen.Random(80, 240, 1<<10, gen.UWD, 32).Edges() {
		edges = append(edges, graph.Edge{U: e.U + 120, V: e.V + 120, W: e.W})
	}
	edges = append(edges, graph.Edge{U: 0, V: 1, W: 2}, graph.Edge{U: 0, V: 1, W: 900},
		graph.Edge{U: 130, V: 131, W: 5}, graph.Edge{U: 130, V: 131, W: 700}, graph.Edge{U: 9, V: 9, W: 4})
	base := graph.FromEdges(200, edges)
	batches := []*mutate.Batch{
		{Ops: []mutate.Op{{Op: mutate.OpSetWeight, U: 0, V: 1, W: 400}, {Op: mutate.OpSetWeight, U: 131, V: 130, W: 1}}},
		{Ops: []mutate.Op{{Op: mutate.OpInsert, U: 0, V: 0, W: 1}, {Op: mutate.OpInsert, U: 60, V: 150, W: 3}}},
		{Ops: []mutate.Op{{Op: mutate.OpInsert, U: 61, V: 151, W: 2}}},
		{Ops: []mutate.Op{{Op: mutate.OpDelete, U: 150, V: 60}, {Op: mutate.OpDelete, U: 9, V: 9}}},
		{Ops: []mutate.Op{{Op: mutate.OpDelete, U: 61, V: 151}}},
	}
	cur, err := mutate.ReferenceApply(base, batches...)
	if err != nil {
		t.Fatal(err)
	}
	batches = append(batches, genMutationSequence(cur, 115, 78)...)
	refs, err := referenceChain(base, batches)
	if err != nil || len(refs) != 121 {
		t.Fatalf("%d generations, want 121: %v", len(refs), err)
	}
	cfg := Config{}.withDefaults()
	for _, lineage := range []string{"undemanded", "demanded"} {
		f, tally := replayLineage(cfg, par.NewExec(2), "hundred", lineage, refs, []int32{0, 150, 77}, batches, faults{})
		if f != nil {
			t.Fatalf("%s: %v", lineage, f)
		}
		t.Logf("%s: %+v", lineage, tally)
		if tally.Exact == 0 || tally.Stale == 0 || tally.Dropped == 0 || tally.Resumed == 0 {
			t.Fatalf("%s lineage: %+v; want entries inherited exact, stale and resumed, and dropped", lineage, tally)
		}
	}
}

// TestInheritFaultCaughtShrunkAndReplayed: with engine.Inherit's tightness test
// planted out (an answer is never dropped, however the batch cut its shortest
// paths), the sweep catches a wrong served answer, shrinks the sequence to the
// batch that cut one, and the written repro reproduces it.
func TestInheritFaultCaughtShrunkAndReplayed(t *testing.T) {
	cfg := Config{Seed: 7, MaxN: 128, Workers: 2, InheritFault: true, NoRace: true}
	f := Run(cfg)
	if f == nil {
		t.Fatal("planted inheritance fault not caught")
	}
	totalOps := 0
	for _, b := range f.Mutations {
		totalOps += len(b.Ops)
	}
	if f.Check != "mutate-served" || !f.InheritFault || f.G.NumVertices() > 64 || len(f.Mutations) > 2 || totalOps > 2 {
		t.Fatalf("caught as %q (inherit fault %v) on n=%d with %d batches / %d ops; want mutate-served, near-minimal: %v",
			f.Check, f.InheritFault, f.G.NumVertices(), len(f.Mutations), totalOps, f)
	}
	t.Logf("shrunk witness: n=%d m=%d batches=%d ops=%d: %v", f.G.NumVertices(), f.G.NumEdges(), len(f.Mutations), totalOps, f)
	grPath, err := f.WriteRepro(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rt := par.NewExec(2)
	if f2, err := ReplayFile(cfg, rt, grPath); err != nil || f2 == nil || f2.Check != f.Check {
		t.Fatalf("replayed repro did not reproduce %q: %v, %v", f.Check, f2, err)
	}
	// The same sequence through the real Inherit is clean: the fault is the plant.
	rep, err := LoadRepro(grPath)
	if err != nil || !rep.InheritFault {
		t.Fatalf("sidecar lost the fault flag: %+v, %v", rep, err)
	}
	if f3 := checkMutationSequence(cfg.withDefaults(), rt, "unplanted", rep.G, rep.Sources, rep.Mutations, faults{}); f3 != nil {
		t.Fatalf("the shrunk sequence fails without the plant: %v", f3)
	}
}

// TestMutationFaultCaughtShrunkAndReplayed is the dynamic-graph acceptance
// gate: with the planted repair bug active (the incremental path mis-applies
// the first weighted op by one), the sweep must catch it, the shrinker must
// reduce both the witness graph and the mutation sequence to near-minimal,
// and the written repro (DIMACS pair + .mut sidecar) must reproduce the same
// failure through ReplayFile.
func TestMutationFaultCaughtShrunkAndReplayed(t *testing.T) {
	cfg := Config{
		Seed:        7,
		MaxN:        128,
		Workers:     2,
		MutateFault: true,
		NoRace:      true,
	}
	f := Run(cfg)
	if f == nil {
		t.Fatal("planted repair fault not caught")
	}
	if !strings.HasPrefix(f.Check, "mutate-") {
		t.Fatalf("failure not attributed to the mutation oracle: %v", f)
	}
	if n := f.G.NumVertices(); n > 64 {
		t.Fatalf("graph shrinker left %d vertices, want <= 64 (failure: %v)", n, f)
	}
	totalOps := 0
	for _, b := range f.Mutations {
		totalOps += len(b.Ops)
	}
	if len(f.Mutations) > 2 || totalOps > 2 {
		t.Fatalf("sequence shrinker left %d batches / %d ops, want near-minimal (failure: %v)",
			len(f.Mutations), totalOps, f)
	}
	t.Logf("shrunk witness: n=%d m=%d batches=%d ops=%d: %v",
		f.G.NumVertices(), f.G.NumEdges(), len(f.Mutations), totalOps, f)

	dir := t.TempDir()
	grPath, err := f.WriteRepro(dir)
	if err != nil {
		t.Fatalf("WriteRepro: %v", err)
	}
	mutPath := strings.TrimSuffix(grPath, ".gr") + ".mut"
	if _, err := os.Stat(mutPath); err != nil {
		t.Fatalf("mutation repro missing its .mut sidecar: %v", err)
	}
	rep, err := LoadRepro(grPath)
	if err != nil {
		t.Fatalf("LoadRepro: %v", err)
	}
	if len(rep.Mutations) != len(f.Mutations) || !rep.Fault {
		t.Fatalf("sidecar round trip lost the sequence or fault flag: %+v", rep)
	}

	rt := par.NewExec(2)
	f2, err := ReplayFile(cfg, rt, grPath)
	if err != nil {
		t.Fatalf("ReplayFile: %v", err)
	}
	if f2 == nil || f2.Check != f.Check {
		t.Fatalf("replayed repro did not reproduce %q: got %v", f.Check, f2)
	}
}

// TestShrinkMutationsConverges: ddmin over batches and ops must reduce a
// padded sequence to the single op the property needs.
func TestShrinkMutationsConverges(t *testing.T) {
	seq := []*mutate.Batch{
		{Ops: []mutate.Op{
			{Op: mutate.OpSetWeight, U: 0, V: 1, W: 5},
			{Op: mutate.OpDelete, U: 2, V: 3},
		}},
		{Ops: []mutate.Op{
			{Op: mutate.OpInsert, U: 4, V: 5, W: 1}, // the needle
			{Op: mutate.OpSetWeight, U: 6, V: 7, W: 9},
		}},
		{Ops: []mutate.Op{{Op: mutate.OpDelete, U: 8, V: 9}}},
	}
	keep := func(cand []*mutate.Batch) bool {
		for _, b := range cand {
			for _, op := range b.Ops {
				if op.Op == mutate.OpInsert {
					return true
				}
			}
		}
		return false
	}
	out := ShrinkMutations(seq, keep)
	if len(out) != 1 || len(out[0].Ops) != 1 || out[0].Ops[0].Op != mutate.OpInsert {
		t.Fatalf("shrinker stalled at %d batches: %+v", len(out), out)
	}
}

// TestMutationSmokeCorpusEntry pins the committed .mut sidecar to the replay
// path: the corpus entry must load with its sequence attached and replay
// clean (TestReplayCorpus also covers it, as part of the whole directory).
func TestMutationSmokeCorpusEntry(t *testing.T) {
	grPath := filepath.Join("..", "..", "testdata", "stress", "mutation-smoke.gr")
	rep, err := LoadRepro(grPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mutations) != 3 || rep.Fault {
		t.Fatalf("sidecar not loaded as expected: %d batches, fault=%v", len(rep.Mutations), rep.Fault)
	}
	f, err := ReplayFile(Config{Workers: 2}, par.NewExec(2), grPath)
	if err != nil {
		t.Fatal(err)
	}
	if f != nil {
		t.Fatalf("smoke entry failed: %v", f)
	}
}
