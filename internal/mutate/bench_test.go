package mutate_test

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/ch"
	"repro/internal/gen"
	"repro/internal/graph"
	. "repro/internal/mutate"
	"repro/internal/rng"
	"repro/internal/stress"
)

func pairKey(u, v int32) [2]int32 { return [2]int32{min(u, v), max(u, v)} }

// TestWriteMutateBenchJSON emits BENCH_mutate.json when BENCH_MUTATE_OUT is
// set (see `make bench-mutate`). The headline number is the cost of repairing
// the hierarchy after a small additive delta — two weight decreases and two
// inserts, the shape the service's mutation traffic has — on the logn=14
// bench family, against rebuilding the same hierarchy from scratch on the
// mutated graph. Both mutation paths pay the identical copy-on-write overlay
// first, so repair-vs-build on the same post-overlay graph is the isolated
// comparison; the end-to-end generation step (Mutate, overlay included)
// against apply-plus-rebuild is reported alongside as mutate_ns /
// apply_build_ns. Gate: repair >= 10x faster than rebuild, the economics
// that justify the mutation subsystem existing at all.
//
// A delete-bearing delta is measured alongside and reported un-gated
// (mixed_*): deletes can split components, so they take the general repair,
// whose level re-sweep is near O(m) on this family's high-fanout hierarchy.
//
// The catalog_mutate_* rows are the whole write as the daemon performs it —
// Catalog.Mutate: the overlay, a new generation's engine, the swap — for both
// deltas, from a generation that carries a hierarchy its child drops.
func TestWriteMutateBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_MUTATE_OUT")
	if out == "" {
		t.Skip("set BENCH_MUTATE_OUT=path to write the mutation benchmark JSON (make bench-mutate)")
	}

	g := gen.Random(1<<14, 1<<16, 1<<10, gen.UWD, 42)
	h := ch.BuildKruskal(g)

	// Pick three distinct edge slots spread through the edge list, then two
	// insert slots that collide with nothing.
	edges := g.Edges()
	seen := map[[2]int32]bool{}
	var picked []int
	for i := 0; i < len(edges) && len(picked) < 3; i += len(edges)/7 + 1 {
		k := pairKey(edges[i].U, edges[i].V)
		if seen[k] {
			continue
		}
		seen[k] = true
		picked = append(picked, i)
	}
	if len(picked) < 3 {
		t.Fatalf("could not pick 3 distinct edge slots from %d edges", len(edges))
	}
	freeSlot := func(u, v int32) (int32, int32) {
		for seen[pairKey(u, v)] {
			v++
		}
		seen[pairKey(u, v)] = true
		return u, v
	}
	insU, insV := freeSlot(3, 4097)
	ins2U, ins2V := freeSlot(9000, 123)
	e0, e1, e2 := edges[picked[0]], edges[picked[1]], edges[picked[2]]
	additive := &Batch{Ops: []Op{
		{Op: OpSetWeight, U: e0.U, V: e0.V, W: 1},
		{Op: OpSetWeight, U: e1.U, V: e1.V, W: 2},
		{Op: OpInsert, U: insU, V: insV, W: 7},
		{Op: OpInsert, U: ins2U, V: ins2V, W: 300},
	}}
	mixed := &Batch{Ops: []Op{
		{Op: OpSetWeight, U: e0.U, V: e0.V, W: e0.W%1024 + 1},
		{Op: OpDelete, U: e2.U, V: e2.V},
		{Op: OpInsert, U: insU, V: insV, W: 7},
	}}
	for _, b := range []*Batch{additive, mixed} {
		if err := b.Validate(g); err != nil {
			t.Fatal(err)
		}
	}

	// One un-clocked run for the delta's shape numbers and sanity.
	probe, err := Mutate(g, h, additive, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if probe.H == nil {
		t.Fatalf("small delta not repaired (touched %d)", probe.Touched)
	}
	if !probe.Additive {
		t.Fatal("additive delta missed the additive repair path")
	}

	avg := func(reps int, fn func()) time.Duration {
		var total time.Duration
		for i := 0; i < reps; i++ {
			start := time.Now()
			fn()
			total += time.Since(start)
		}
		return total / time.Duration(reps)
	}
	clockMutate := func(b *Batch) func() {
		return func() {
			if _, err := Mutate(g, h, b, Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The isolated repair-vs-rebuild comparison runs both stages on the same
	// post-overlay graph, exactly the inputs Mutate hands them.
	g2, _, err := Apply(g, additive)
	if err != nil {
		t.Fatal(err)
	}
	added := make([]graph.Edge, 0, len(additive.Ops))
	for _, op := range additive.Ops {
		added = append(added, graph.Edge{U: op.U, V: op.V, W: op.W})
	}
	repair := avg(100, func() {
		if _, _, err := ch.RepairAdditive(h, g2, added); err != nil {
			t.Fatal(err)
		}
	})
	build := avg(5, func() { ch.BuildKruskal(g2) })

	mutateNS := avg(50, clockMutate(additive))
	mixedInc := avg(5, clockMutate(mixed))
	applyBuild := avg(3, func() {
		ag, _, err := Apply(g, additive)
		if err != nil {
			t.Fatal(err)
		}
		ch.BuildKruskal(ag)
	})

	// Catalog.Mutate, one fresh single-generation catalog per timed call.
	catalogMutate := func(b *Batch) time.Duration {
		var total time.Duration
		const reps = 20
		for i := 0; i < reps; i++ {
			cat := catalog.New(catalog.Config{Logf: func(string, ...any) {}})
			if _, err := cat.AddPrebuilt("g", catalog.Source{}, g, h, nil); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			res, err := cat.Mutate("g", b)
			total += time.Since(start)
			if err != nil {
				t.Fatalf("Catalog.Mutate: %+v, %v", res, err)
			}
			if got := cat.Status()[0].Hierarchy; got != "unbuilt" {
				t.Fatalf("a write's child has its hierarchy %s, want unbuilt", got)
			}
			cat.Close()
		}
		return total / reps
	}

	speedup := float64(build) / float64(repair)
	doc := map[string]any{
		"vertices":             g.NumVertices(),
		"edges":                g.NumEdges(),
		"delta_ops":            len(additive.Ops),
		"touched":              probe.Touched,
		"repair_ns":            repair.Nanoseconds(),
		"rebuild_ns":           build.Nanoseconds(),
		"speedup":              speedup,
		"mutate_ns":            mutateNS.Nanoseconds(),
		"apply_build_ns":       applyBuild.Nanoseconds(),
		"mutate_speedup":       float64(applyBuild) / float64(mutateNS),
		"mixed_delta_ops":      len(mixed.Ops),
		"mixed_incremental_ns": mixedInc.Nanoseconds(),
		"mixed_speedup":        float64(applyBuild) / float64(mixedInc),

		"catalog_mutate_additive_ns": catalogMutate(additive).Nanoseconds(),
		"catalog_mutate_general_ns":  catalogMutate(mixed).Nanoseconds(),
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %d-op additive delta touching %d/%d vertices — repair %s vs rebuild %s (%.1fx); end-to-end %s vs %s (%.1fx); mixed delta %s (%.1fx)",
		out, len(additive.Ops), probe.Touched, g.NumVertices(), repair, build, speedup,
		mutateNS, applyBuild, float64(applyBuild)/float64(mutateNS),
		mixedInc, float64(applyBuild)/float64(mixedInc))
	if speedup < 10 {
		t.Errorf("incremental repair speedup %.1fx over full rebuild, want >= 10x", speedup)
	}
}

// BenchmarkMutateWidth prices a write by its width (DESIGN.md §5, decision
// 18): on the rand family (C = 2^14, ssspd's default) at logn 14 and 16, a
// stress.WideBatch touching 0.05%, 1%, 5%, 25% or all of the vertices, either
// additive (inserts and weight decreases: ch.RepairAdditive) or general (with
// deletes: ch.Repair), through Mutate — the overlay plus the repair, which no
// serving path runs (Catalog.Mutate is the overlay alone) — against
// ch.BuildKruskal of the same mutated graph. `make bench-mutate-width` writes
// the table to results/mutate-width.csv.
func BenchmarkMutateWidth(b *testing.B) {
	for _, logn := range []int{14, 16} {
		g := gen.Instance{Class: gen.Rand, LogN: logn, LogC: 14, Seed: 1}.Generate()
		h := ch.BuildKruskal(g)
		for _, kind := range []string{"additive", "general"} {
			for _, pct := range []float64{0.05, 1, 5, 25, 100} {
				batch := stress.WideBatch(g, rng.New(uint64(logn)*1000+uint64(pct*100)), pct/100, kind == "additive")
				g2, _, err := Apply(g, batch)
				if err != nil {
					b.Fatal(err)
				}
				if res, err := Mutate(g, h, batch, Options{}); err != nil || res.Additive != (kind == "additive") {
					b.Fatalf("logn=%d %s %g%%: additive=%v, %v", logn, kind, pct, res != nil && res.Additive, err)
				}
				name := fmt.Sprintf("logn=%d/%s/touched=%g%%", logn, kind, pct)
				b.Run(name+"/arm=mutate", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := Mutate(g, h, batch, Options{}); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(len(batch.Touched())), "touched")
					b.ReportMetric(float64(len(batch.Ops)), "ops")
				})
				b.Run(name+"/arm=build", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						ch.BuildKruskal(g2)
					}
					b.ReportMetric(float64(len(batch.Touched())), "touched")
					b.ReportMetric(float64(len(batch.Ops)), "ops")
				})
			}
		}
	}
}
