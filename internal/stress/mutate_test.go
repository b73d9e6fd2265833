package stress

import (
	"context"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/ch"
	"repro/internal/dijkstra"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/par"
	"repro/internal/solver"
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
// generation — agrees with Dijkstra on the reference replay. Demanded — a
// solver=thorup before the first batch and after every tenth — every batch is
// an overlay as well, wide ones included: the generation it makes is serving
// when Mutate returns, unbuilt and charged for its graph alone, and each
// solver=thorup after a write adds exactly one build and one log line; same
// answers.
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
	refs, err := referenceChain(base, batches)
	if err != nil {
		t.Fatal(err)
	}
	// thorup asks solver=thorup from srcs; a source whose answer the
	// generation holds (inherited, or asked before) builds nothing.
	thorup := func(t *testing.T, cat *catalog.Catalog, g *graph.Graph, srcs ...int32) {
		t.Helper()
		gn, release, err := cat.Acquire("g")
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		for _, src := range srcs {
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
		load := func(t *testing.T, logf func(string, ...any)) *catalog.Catalog {
			cat := catalog.New(catalog.Config{QueryWorkers: 2, Logf: logf})
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
			cat := load(t, func(string, ...any) {})
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
			thorup(t, cat, ref, 0, 50, 199)
			if n := cat.Counter("hierarchy_builds"); n != 1 {
				t.Fatalf("%d hierarchy builds after the first solver=thorup, want 1", n)
			}
		})
		t.Run(start.name+"/demanded", func(t *testing.T) {
			var mu sync.Mutex
			lines := 0
			cat := load(t, func(format string, args ...any) {
				if strings.HasPrefix(fmt.Sprintf(format, args...), "catalog: hierarchy for g gen ") {
					mu.Lock()
					lines++
					mu.Unlock()
				}
			})
			demands := func() (builds int64, n int) {
				mu.Lock()
				defer mu.Unlock()
				return cat.Counter("hierarchy_builds"), lines
			}
			thorup(t, cat, base, 0, 50, 199)
			for i, b := range batches {
				res, err := cat.Mutate("g", b)
				st := cat.Status()[0]
				if err != nil || st.Hierarchy != "unbuilt" || st.Gen != uint64(i+2) || st.State != "ready" || st.Pending || st.HeapBytes != st.Bytes {
					t.Fatalf("after batch %d (%d touched): %+v, %v; want gen %d serving, hierarchy unbuilt", i, res.Touched, st, err, i+2)
				}
				if i%10 != 9 {
					continue
				}
				gn, release, err := cat.Acquire("g")
				if err != nil {
					t.Fatal(err)
				}
				if st.HeapBytes != gn.G.MemoryBytes() {
					t.Fatalf("after batch %d: charged %d bytes, the graph alone is %d", i, st.HeapBytes, gn.G.MemoryBytes())
				}
				release()
				builds, n := demands()
				k := int32(i / 10)
				thorup(t, cat, refs[i+1], 1+k, 70+k, 140+k) // none asked before
				if b2, n2 := demands(); b2 != builds+1 || n2 != n+1 {
					t.Fatalf("solver=thorup after batch %d: %d builds and %d log lines, from %d and %d; want one more of each", i, b2, n2, builds, n)
				}
			}
			if got, want := cat.Counter("hierarchy_builds"), int64(len(batches)/10)+map[bool]int64{true: 0, false: 1}[start.carried]; got != want {
				t.Fatalf("%d hierarchy builds, want %d: one a demanded generation, the first one's only unless the start carried it", got, want)
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
// its cache (run under -race: make stress) and the small-component source read
// every fourth generation only; entries cross exact, pending and unread on
// both lineages, and pending ones are resumed and repaired.
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
		if tally.Exact == 0 || tally.Pending == 0 || tally.Unread == 0 || tally.Resumed == 0 || tally.Repaired == 0 {
			t.Fatalf("%s lineage: %+v; want entries inherited exact, pending and unread, resumed and repaired", lineage, tally)
		}
	}
}

// TestCarryUnreadAnswerAcrossGeneralBatches: a source read on generation 1
// and not again until generation 5 — four writes on, two of them general, one
// deleting an arc of its shortest-path tree — is answered from the cache
// there, repaired once, and equal to Dijkstra on the naive replay; so is the
// source read on every generation beside it.
func TestCarryUnreadAnswerAcrossGeneralBatches(t *testing.T) {
	base := gen.Random(300, 1200, 1<<10, gen.UWD, 41)
	const hot, cold = 0, 150
	d := dijkstra.SSSP(base, cold)
	var cut mutate.Op // a tight arc of cold's tree, not at cold itself
	for v := int32(0); v < 300 && cut.Op == ""; v++ {
		ts, ws := base.Neighbors(v)
		for i, u := range ts {
			if v != cold && d[v] < graph.Inf && d[v]+int64(ws[i]) == d[u] {
				cut = mutate.Op{Op: mutate.OpDelete, U: v, V: u}
				break
			}
		}
	}
	e0 := base.Edges()[7]
	batches := []*mutate.Batch{
		{Ops: []mutate.Op{{Op: mutate.OpInsert, U: 3, V: 200, W: 5}}},
		{Ops: []mutate.Op{cut, {Op: mutate.OpSetWeight, U: e0.U, V: e0.V, W: e0.W + 400}}},
		{Ops: []mutate.Op{{Op: mutate.OpInsert, U: 17, V: 250, W: 2}}},
		{Ops: []mutate.Op{{Op: mutate.OpSetWeight, U: e0.U, V: e0.V, W: e0.W}, {Op: mutate.OpInsert, U: 40, V: 41, W: 1}}},
	}
	refs, err := referenceChain(base, batches)
	if err != nil {
		t.Fatal(err)
	}
	rt := par.NewExec(2)
	ask := func(e *engine.Gen, gen int, src int32) engine.Via {
		t.Helper()
		res, via, err := e.Query(context.Background(), engine.Request{Sources: []int32{src}})
		if err != nil {
			t.Fatal(err)
		}
		if diff := answerDiff(res, dijkstra.SSSP(refs[gen-1], src)); diff != "" {
			t.Fatalf("gen %d, source %d (via %v): %s", gen, src, via, diff)
		}
		return via
	}
	eng, cur := engine.New(solver.NewInstance(base, rt), engine.Config{CacheEntries: 8}), base
	ask(eng, 1, hot)
	ask(eng, 1, cold)
	for i, b := range batches {
		g, _, err := mutate.Apply(cur, b)
		if err != nil {
			t.Fatal(err)
		}
		child := eng.Next(solver.NewInstance(g, rt))
		_, _, unread := child.Swap(child.Inherit(mutate.Changes(cur, g, b)))
		if i > 0 && unread != 1 {
			t.Fatalf("gen %d inherited %d unread entries, want cold's", i+2, unread)
		}
		eng, cur = child, g
		ask(eng, i+2, hot)
	}
	repaired := eng.Counter("repaired") // over every generation
	if via := ask(eng, 5, cold); via != engine.ViaCache || eng.Counter("repaired") != repaired+1 {
		t.Fatalf("cold on gen 5: via %v, %d repaired; want a repaired cache hit", via, eng.Counter("repaired")-repaired)
	}
}

// TestInheritFaultCaughtShrunkAndReplayed: with engine.Inherit's tightness test
// and the repair's decremental phase planted out (no distance a batch
// lengthened is corrected), the sweep catches a wrong served answer, shrinks the sequence to the
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

// The sweep's last two families hold the served vectors to both ends of their
// width: "heavy" needs more than 32 bits a distance from every source, the
// low-weight "disconnected" one 8 bits or fewer. On both, answers stay exact on
// every generation of both lineages while resumes widen them — an insert
// bridges the two blocks, and an inherited vector reaches the far one — and
// the planted inheritance fault is still caught and shrunk.
func TestMutateServedAtBothWidths(t *testing.T) {
	rt := par.NewExec(2)
	sweep := Sweep(5, 192)
	for _, tc := range []struct {
		sp   Spec
		fits func(width int) bool
	}{
		{sweep[len(sweep)-2], func(width int) bool { return width > 32 }},
		{sweep[len(sweep)-1], func(width int) bool { return width <= 8 }},
	} {
		t.Run(tc.sp.Family, func(t *testing.T) {
			g := tc.sp.Generate()
			sources := pickSources(tc.sp.Seed, g.NumVertices())
			for v := int32(0); v < int32(g.NumVertices()); v += 7 {
				ecc := int64(0)
				for _, d := range dijkstra.SSSP(g, v) {
					if d < graph.Inf {
						ecc = max(ecc, d)
					}
				}
				if w := bits.Len64(uint64(ecc) + 1); !tc.fits(w) {
					t.Fatalf("%s: from %d the eccentricity %d needs %d bits", tc.sp.Name(), v, ecc, w)
				}
			}
			var widened int64
			for k := uint64(0); k < 4; k++ { // four sequences: a bridge need not come in one
				batches := genMutationSequence(g, 30, tc.sp.Seed+k)
				refs, err := referenceChain(g, batches)
				if err != nil {
					t.Fatal(err)
				}
				for _, lineage := range []string{"undemanded", "demanded"} {
					f, tally := replayLineage(Config{}.withDefaults(), rt, tc.sp.Name(), lineage, refs, sources, batches, faults{})
					if f != nil {
						t.Fatalf("sequence %d, %s: %v", k, lineage, f)
					}
					widened += tally.Widened
				}
			}
			if widened == 0 {
				t.Fatal("no resume widened a vector")
			}
			t.Logf("%s: %d resumes widened a vector", tc.sp.Name(), widened)

			cfg := Config{Seed: 5, InheritFault: true, NoRace: true}.withDefaults()
			f := CheckInstance(cfg, rt, tc.sp.Name(), g, sources)
			if f == nil || f.Check != "mutate-served" {
				t.Fatalf("planted inheritance fault caught as %v", f)
			}
			if f = shrinkFailure(cfg, rt, f); f.Check != "mutate-served" || len(f.Mutations) > 2 {
				t.Fatalf("shrunk to %q on n=%d with %d batches: %v", f.Check, f.G.NumVertices(), len(f.Mutations), f)
			}
		})
	}
}
