package engine

import (
	"context"
	"testing"

	"repro/internal/gen"
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
