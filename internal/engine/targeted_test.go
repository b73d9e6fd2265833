package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dijkstra"
	"repro/internal/trace"
)

// targetedQuery runs one request and checks every target's answer against the
// full vector from Dijkstra, whichever plan answered.
func targetedQuery(t *testing.T, e *Gen, ctx context.Context, req Request) (*Result, Via) {
	t.Helper()
	res, via, err := e.Query(ctx, req)
	if err != nil {
		t.Fatalf("%+v: %v", req, err)
	}
	want := dijkstra.SSSPFromSources(e.in.G, req.Sources)
	for i, tgt := range req.Targets {
		if got := res.Target(i, tgt); got != want[tgt] {
			t.Fatalf("%+v by %s: target %d = %d, want %d", req, res.Solver, tgt, got, want[tgt])
		}
	}
	return res, via
}

// A targeted miss is a point-to-point search however often its source comes
// back, and caches nothing: a full-vector query for the same source never sees
// the partial Result, and the vector it leaves behind answers later targets.
func TestTargetedSearchCachesNothing(t *testing.T) {
	e := New(testInstance(t, 300, 1200), Config{CacheEntries: 8})
	e.SetTargetBudget(math.MaxInt)
	ctx := context.Background()
	req := Request{Sources: []int32{7}, Targets: []int32{250, 7, 250, 31}}

	for touch := 1; touch <= 2; touch++ {
		res, via := targetedQuery(t, e, ctx, req)
		if res.Solver != "bidirectional" || via != ViaSolve || res.Len() != 0 || len(res.TargetDist) != 4 {
			t.Fatalf("touch %d: %s via %v, Len %d, TargetDist %v", touch, res.Solver, via, res.Len(), res.TargetDist)
		}
	}
	if entries, _ := e.cache.size(); entries != 0 {
		t.Fatalf("a partial result was cached (%d entries)", entries)
	}
	if res, via := targetedQuery(t, e, ctx, Request{Sources: []int32{7}}); res.Solver != "delta" || via != ViaSolve || res.Len() != 300 {
		t.Fatalf("full-vector query after a partial answer: %s via %v, %d distances", res.Solver, via, res.Len())
	}
	if res, via := targetedQuery(t, e, ctx, req); res.Solver != "delta" || via != ViaCache || res.TargetDist != nil {
		t.Fatalf("targeted query of a cached source: %s via %v", res.Solver, via)
	}
	runs := e.SolverRuns()
	if runs["bidirectional"] != 2 || runs["delta"] != 1 || e.Counter("solves") != 3 || e.Counter(cTargetedBailouts) != 0 {
		t.Fatalf("runs %v, counters %v", runs, e.counters.Snapshot())
	}
}

// The requests that take the full path: an explicit
// solver, a source set, and — by outgrowing the budget — a search that would
// settle more than the request may. The bail leaves a cached vector behind.
func TestTargetedFallsThroughToFullSolve(t *testing.T) {
	e := New(testInstance(t, 300, 1200), Config{CacheEntries: 8})
	ctx := context.Background()
	for _, req := range []Request{
		{Sources: []int32{4}, Targets: []int32{9}, Solver: "dijkstra"},
		{Sources: []int32{4, 5}, Targets: []int32{9}},
	} {
		if res, via := targetedQuery(t, e, ctx, req); res.Len() == 0 || via != ViaSolve || e.SolverRuns()["bidirectional"] != 0 {
			t.Fatalf("%+v: %s via %v", req, res.Solver, via)
		}
	}

	e.SetTargetBudget(1)
	tr := trace.New(trace.Config{SampleN: 1}).StartRequest("", "dist")
	res, via := targetedQuery(t, e, trace.NewContext(ctx, tr), Request{Sources: []int32{6}, Targets: []int32{200, 100}})
	if res.Solver != "delta" || via != ViaSolve || res.Len() == 0 {
		t.Fatalf("bailed query: %s via %v", res.Solver, via)
	}
	if e.Counter(cTargetedBailouts) != 1 || e.SolverRuns()["bidirectional"] != 1 {
		t.Fatalf("counters %v runs %v", e.counters.Snapshot(), e.SolverRuns())
	}
	var solves []*trace.SpanJSON
	for _, sp := range tr.Export().Spans.Children {
		if sp.Name == "solve" {
			solves = append(solves, sp)
		}
	}
	if len(solves) != 2 || solves[0].Attrs["solver"] != "bidirectional" || solves[0].Attrs["targets"] != 2 ||
		solves[0].Attrs["settled"] != 1 || solves[0].Attrs["bailed"] != true || solves[1].Attrs["solver"] != "delta" {
		t.Fatalf("solve spans of a bailed query: %+v", solves)
	}
	if _, via = targetedQuery(t, e, ctx, Request{Sources: []int32{6}, Targets: []int32{3}}); via != ViaCache {
		t.Fatalf("after a bail: via %v, want the cached vector", via)
	}

	if _, _, err := e.Query(ctx, Request{Sources: []int32{1}, Targets: []int32{300}}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("out-of-range target: %v", err)
	}
}

// One budget for the whole request: targets are searched in order until their
// searches together have settled it, so a long target list is a full solve by
// itself.
func TestTargetedBudgetIsSharedByTheTargets(t *testing.T) {
	in := testInstance(t, 2048, 8192)
	e := New(in, Config{})
	e.SetTargetBudget(math.MaxInt)
	tr := trace.New(trace.Config{SampleN: 1}).StartRequest("", "table")
	targets := []int32{900, 1500, 33, 2000}
	targetedQuery(t, e, trace.NewContext(context.Background(), tr), Request{Sources: []int32{5}, Targets: targets})
	need := tr.Export().Spans.Children[1].Attrs["settled"].(int)

	for _, tc := range []struct {
		budget int
		solver string
	}{{need, "bidirectional"}, {need - 1, "delta"}} {
		e.SetTargetBudget(tc.budget)
		if res, _ := targetedQuery(t, e, context.Background(), Request{Sources: []int32{5}, Targets: targets}); res.Solver != tc.solver {
			t.Fatalf("budget %d of %d needed: %s, want %s", tc.budget, need, res.Solver, tc.solver)
		}
	}
}

// Bound: a warm targeted query allocates the request's bookkeeping — the
// canonical source set, the cache key, the Result and its per-target answers:
// at most 8 objects, and 4 KB in the mean with the odd growth of a kept heap
// — and nothing that grows with n; a full solve's detached vector alone would
// be 8n = 64 KB.
func TestWarmTargetedQueryAllocatesNothingOfSizeN(t *testing.T) {
	e := New(testInstance(t, 8192, 32768), Config{})
	e.SetTargetBudget(math.MaxInt)
	ctx := context.Background()
	req := Request{Sources: []int32{0}, Targets: []int32{0}}
	query := func() {
		req.Sources[0] = (req.Sources[0] + 1) % 8192
		req.Targets[0] = (req.Targets[0] + 977) % 8192
		if res, _, err := e.Query(ctx, req); err != nil || res.Solver != "bidirectional" {
			t.Fatalf("%v by %s", err, res.Solver)
		}
	}
	for i := 0; i < 500; i++ { // grow the kept state's heaps
		query()
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, query)
	runtime.ReadMemStats(&after)
	if bytes := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); allocs > 8 || bytes > 4096 {
		t.Fatalf("warm targeted query: %v allocs, %d B; want <= 8 and <= 4096", allocs, bytes)
	}
}

// Each executed plan is one "solve" span under its own name, saying what it
// did: a finished search names its targets and what it settled, a bail is two
// spans — the search, bailed, then the full solve — and a cached answer none.
func TestSolveSpansFollowThePlan(t *testing.T) {
	e := New(testInstance(t, 300, 1200), Config{CacheEntries: 8})
	e.SetTargetBudget(math.MaxInt)
	tr := trace.New(trace.Config{SampleN: 1}).StartRequest("", "dist")
	ctx := trace.NewContext(context.Background(), tr)
	targetedQuery(t, e, ctx, Request{Sources: []int32{7}, Targets: []int32{250}})
	targetedQuery(t, e, ctx, Request{Sources: []int32{7}})
	targetedQuery(t, e, ctx, Request{Sources: []int32{7}, Targets: []int32{250}}) // cached
	e.SetTargetBudget(1)
	targetedQuery(t, e, ctx, Request{Sources: []int32{9}, Targets: []int32{250, 31}})

	var got []string
	for _, sp := range tr.Export().Spans.Children {
		if sp.Name != "solve" {
			continue
		}
		a := sp.Attrs
		got = append(got, fmt.Sprint(a["solver"], " ", a["bailed"]))
		if a["sources"] != 1 {
			t.Fatalf("solve span %v", a)
		}
		if a["solver"] == "bidirectional" && (a["targets"] == nil || a["settled"].(int) < 1) {
			t.Fatalf("search span without targets and settled: %v", a)
		}
	}
	want := []string{"bidirectional false", "delta <nil>", "bidirectional true", "delta <nil>"}
	if !slices.Equal(got, want) || e.Counter("solves") != int64(len(want)) {
		t.Fatalf("solve spans %v (%d solves), want %v", got, e.Counter("solves"), want)
	}
}

// Batch rows carry their targets like single queries do (the /table path).
func TestBatchCarriesTargets(t *testing.T) {
	e := New(testInstance(t, 300, 1200), Config{CacheEntries: 8})
	e.SetTargetBudget(math.MaxInt)
	targets := []int32{1, 299}
	reqs := []Request{{Sources: []int32{10}, Targets: targets}, {Sources: []int32{20}, Targets: targets}, {Sources: []int32{10}, Targets: targets}}
	for i, br := range e.Batch(context.Background(), reqs) {
		if br.Err != nil {
			t.Fatal(br.Err)
		}
		want := dijkstra.SSSP(e.in.G, reqs[i].Sources[0])
		for j, tgt := range targets {
			if got := br.Res.Target(j, tgt); got != want[tgt] {
				t.Fatalf("row %d target %d = %d, want %d", i, tgt, got, want[tgt])
			}
		}
	}
}
