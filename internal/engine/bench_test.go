package engine

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/par"
	"repro/internal/solver"
)

// benchInstance is sized so a solve is real work (tens of microseconds) but
// per-query setup still shows: the regime the engine exists for.
func benchInstance(b *testing.B) *solver.Instance {
	b.Helper()
	g := gen.Random(1<<12, 1<<14, 1<<10, gen.UWD, 42)
	in := solver.NewInstance(g, par.NewExec(2))
	in.Hierarchy() // build once, outside timing
	return in
}

// Cold: every query allocates fresh solver state — the registry's Solve.
func BenchmarkEngineColdQuery(b *testing.B) {
	in := benchInstance(b)
	reg, _ := solver.ByName("thorup")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Solve(in, []int32{int32(i % 4096)})
	}
}

// Pooled: identical workload, state reused through the pool.
func BenchmarkEnginePooledQuery(b *testing.B) {
	e := New(benchInstance(b), Config{})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := int32(i % 4096)
		if _, _, err := e.Query(ctx, Request{Sources: []int32{src}, Solver: "thorup"}); err != nil {
			b.Fatal(err)
		}
	}
}

// Miss: distinct sources with the cache enabled — full solve plus cache
// maintenance, the baseline for the hit benchmark.
func BenchmarkEngineCacheMiss(b *testing.B) {
	e := New(benchInstance(b), Config{CacheEntries: 16})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// 4096 distinct sources against 16 entries: effectively always a miss.
		src := int32(i % 4096)
		if _, _, err := e.Query(ctx, Request{Sources: []int32{src}, Solver: "thorup"}); err != nil {
			b.Fatal(err)
		}
	}
}

// Resume: what the first hit on a pending inherited answer pays, resolve
// alone, on benchInstance's logn-12 random graph. "shortcut": one weight-1
// arc from the source to vertex n/2 brings 2,561 of its 4,096 vertices nearer
// (the budget is lifted for it: that is past n/8). "leaf": a lighter copy of
// the arc into the farthest vertex re-settles it and little else, so the cost
// is the copy of the codes and their recount. resettled is the vertices a
// resolve settles again.
func BenchmarkResume(b *testing.B) {
	g1 := benchInstance(b).G
	old, _, err := engineOn(g1, Config{CacheEntries: 4}).Query(context.Background(), Request{Sources: []int32{0}})
	if err != nil {
		b.Fatal(err)
	}
	far := 0
	for v := range g1.NumVertices() {
		if old.At(v) < graph.Inf && old.At(v) > old.At(far) {
			far = v
		}
	}
	var leaf mutate.Op
	ts, ws := g1.Neighbors(int32(far))
	for i, u := range ts {
		if old.At(int(u))+int64(ws[i]) == old.At(far) {
			leaf = mutate.Op{Op: mutate.OpInsert, U: u, V: int32(far), W: ws[i] - 1}
		}
	}
	for _, bc := range []struct {
		name string
		op   mutate.Op
	}{
		{"shortcut", mutate.Op{Op: mutate.OpInsert, U: 0, V: int32(g1.NumVertices() / 2), W: 1}},
		{"leaf", leaf},
	} {
		b.Run(bc.name, func(b *testing.B) {
			batch := &mutate.Batch{Ops: []mutate.Op{bc.op}}
			g2, _, err := mutate.Apply(g1, batch)
			if err != nil {
				b.Fatal(err)
			}
			e1 := engineOn(g1, Config{CacheEntries: 4})
			if _, _, err := e1.Query(context.Background(), Request{Sources: []int32{0}}); err != nil {
				b.Fatal(err)
			}
			e2, _, stale, _ := inherit(e1, g2, mutate.Changes(g1, g2, batch))
			if stale != 1 {
				b.Fatalf("%d pending entries, want 1", stale)
			}
			e2.SetRepairBudget(g2.NumVertices())
			owed := e2.cache.index[old.key].Value.(*cacheEntry).res.pending.changes
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := &Result{vec: old.vec, g: e2, pending: &pending{changes: owed}}
				if !r.resolve(nil) {
					b.Fatal("the repair outgrew its budget")
				}
			}
			b.ReportMetric(float64(e2.Counter(cResettled))/float64(b.N), "resettled")
		})
	}
}

// Hit: one hot source answered from the result cache.
func BenchmarkEngineCacheHit(b *testing.B) {
	e := New(benchInstance(b), Config{CacheEntries: 16})
	ctx := context.Background()
	req := Request{Sources: []int32{17}, Solver: "thorup"}
	if _, _, err := e.Query(ctx, req); err != nil { // warm the entry
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, via, err := e.Query(ctx, req); err != nil || via != ViaCache {
			b.Fatalf("via=%v err=%v", via, err)
		}
	}
}
