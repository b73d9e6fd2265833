package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dijkstra"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/solver"
	"repro/internal/trace"
)

func testInstance(tb testing.TB, n, m int) *solver.Instance {
	tb.Helper()
	g := gen.Random(n, m, 1<<10, gen.UWD, 7)
	return solver.NewInstance(g, par.NewExec(2))
}

// gatedSolver is an injectable solver that blocks until released, so tests
// can hold a solve in flight deterministically.
type gatedSolver struct {
	started chan struct{} // closed (once) when the first solve begins
	release chan struct{} // solve returns once this is closed
	once    sync.Once
}

func (s *gatedSolver) register() solver.Solver {
	return solver.Solver{
		Name: "gated",
		NewState: func() solver.State {
			return solver.StateFunc(func(_ context.Context, in *solver.Instance, sources []int32) []int64 {
				s.once.Do(func() { close(s.started) })
				<-s.release
				out := make([]int64, in.G.NumVertices())
				for i := range out {
					out[i] = graph.Inf
				}
				for _, src := range sources {
					out[src] = 0
				}
				return out
			})
		},
	}
}

func newGated() *gatedSolver {
	return &gatedSolver{started: make(chan struct{}), release: make(chan struct{})}
}

// --- pooled execution correctness -----------------------------------------

// Every solver's pooled execution must match the registry's fresh-state
// Solve, including across reuse of one pooled state: the weighted instance
// covers the five weighted solvers, the unit-weight one adds bfs.
func TestQueryPooledMatchesFresh(t *testing.T) {
	unit := solver.NewInstance(gen.Random(300, 1200, 1, gen.UWD, 7), par.NewExec(2))
	for _, in := range []*solver.Instance{testInstance(t, 300, 1200), unit} {
		e := New(in, Config{})
		for _, name := range solver.Names() {
			reg, _ := solver.ByName(name)
			if !reg.Applicable(in.G) {
				continue
			}
			for _, srcs := range [][]int32{{0}, {5}, {1, 100, 299}, {5}} { // repeat 5: pool reuse
				want := reg.Solve(in, srcs)
				got, _, err := e.Query(context.Background(), Request{Sources: srcs, Solver: name})
				if err != nil {
					t.Fatalf("%s %v: %v", name, srcs, err)
				}
				for v := range want {
					if got.At(v) != want[v] {
						t.Fatalf("%s %v: dist[%d] = %d, want %d", name, srcs, v, got.At(v), want[v])
					}
				}
			}
		}
	}
}

// countingState wraps a solver's state to count what the engine does to it.
type countingState struct {
	solver.State
	runs, resets *atomic.Int64
}

func (c countingState) RunFromSources(ctx context.Context, in *solver.Instance, sources []int32) []int64 {
	c.runs.Add(1)
	return c.State.RunFromSources(ctx, in, sources)
}

func (c countingState) Reset() {
	c.resets.Add(1)
	c.State.Reset()
}

// Injected solvers ride the same pool code as the registry's, and a k-source
// query is one kernel run whatever the solver: the entry under test is
// replaced by a counting wrapper under its own name, and a 4-source query —
// explicit dijkstra, mlb, delta, and the bfs the ladder picks on a
// unit-weight graph — must run its state once, Reset it once, and match the
// Dijkstra oracle.
func TestOneRunPerQueryThroughPool(t *testing.T) {
	srcs := []int32{4, 90, 170, 251}
	weighted := testInstance(t, 300, 1200)
	unit := solver.NewInstance(gen.Random(300, 1200, 1, gen.UWD, 7), par.NewExec(2))
	dj, _ := solver.ByName("dijkstra")
	for _, tc := range []struct {
		in           *solver.Instance
		request, ran string // Request.Solver, and the solver it must resolve to
	}{
		{weighted, "dijkstra", "dijkstra"},
		{weighted, "mlb", "mlb"},
		{weighted, "delta", "delta"},
		{unit, "", "bfs"},
	} {
		var runs, resets atomic.Int64
		pool := solver.All()
		for i, s := range pool {
			if s.Name == tc.ran {
				pool[i].NewState = func() solver.State {
					return countingState{s.NewState(), &runs, &resets}
				}
			}
		}
		e := New(tc.in, Config{Solvers: pool})
		got, _, err := e.Query(context.Background(), Request{Sources: srcs, Solver: tc.request})
		if err != nil {
			t.Fatal(err)
		}
		if got.Solver != tc.ran {
			t.Fatalf("solver %q resolved to %s, want %s", tc.request, got.Solver, tc.ran)
		}
		for v, want := range dj.Solve(tc.in, srcs) {
			if got.At(v) != want {
				t.Fatalf("%s: dist[%d] = %d, want %d", tc.ran, v, got.At(v), want)
			}
		}
		if r, z, sr := runs.Load(), resets.Load(), e.SolverRuns()[tc.ran]; r != 1 || z != 1 || sr != 1 {
			t.Fatalf("%s, 4 sources: %d state runs, %d resets, solver_runs %d, want 1 each", tc.ran, r, z, sr)
		}
	}
}

// One "solve" span per executed solve: a cache hit and singleflight joiners
// add none, and only a tracer state (Thorup) attaches phase counters —
// core.Trace's — to it.
func TestOneSolveSpanPerSolve(t *testing.T) {
	in := testInstance(t, 300, 1200)
	gs := newGated()
	e := New(in, Config{CacheEntries: 8, Solvers: append(solver.All(), gs.register())})
	tr := trace.New(trace.Config{SampleN: 1}).StartRequest("", "sssp")
	traced := trace.NewContext(context.Background(), tr)

	for _, req := range []Request{
		{Sources: []int32{9, 3, 9}, Solver: "thorup"},
		{Sources: []int32{3, 9}, Solver: "thorup"}, // cache hit
		{Sources: []int32{5}, Solver: "dijkstra"},
	} {
		if _, _, err := e.Query(traced, req); err != nil {
			t.Fatal(err)
		}
	}
	const joiners = 4
	var wg sync.WaitGroup
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := e.Query(context.Background(), Request{Sources: []int32{1}, Solver: "gated"}); err != nil {
				t.Error(err)
			}
		}()
	}
	<-gs.started
	// All four in the held flight (a caller that has only missed the cache may
	// reach the flight group after the leader is done, and solve again).
	for e.flight.joined("gated|1") < joiners-1 {
		runtime.Gosched()
	}
	close(gs.release)
	wg.Wait()

	if n, runs := e.Counter("solves"), e.SolverRuns(); n != 3 || runs["thorup"] != 1 || runs["dijkstra"] != 1 || runs["gated"] != 1 {
		t.Fatalf("%d solves, runs %v: want one per executed plan", n, runs)
	}
	var solves []*trace.SpanJSON
	for _, sp := range tr.Export().Spans.Children {
		if sp.Name == "solve" {
			solves = append(solves, sp)
		}
	}
	if len(solves) != 2 {
		t.Fatalf("%d solve spans for two traced solves: %+v", len(solves), solves)
	}
	th, dj := solves[0].Attrs, solves[1].Attrs
	if th["solver"] != "thorup" || th["sources"] != 2 || th["settled"] != int64(300) || th["relaxations"] == int64(0) {
		t.Fatalf("thorup solve span: %v", th)
	}
	if _, ok := dj["settled"]; dj["solver"] != "dijkstra" || dj["sources"] != 1 || ok {
		t.Fatalf("dijkstra solve span grew phase counters: %v", dj)
	}
}

// A delta-stepping solve says on its span which bucket width it ran with and
// what the bounded ring's overflow list cost it, and the engine sums the
// latter: a width far below the weights (here forced to 1 under C = 2^14,
// most arcs beyond the ring's reach) is visible as refills and scanned
// entries, the measured width as none.
func TestDeltaSolveSpanSaysWhichDelta(t *testing.T) {
	for _, tc := range []struct {
		name     string
		override int64
		overflow bool
	}{{"measured", 0, false}, {"delta one", 1, true}} {
		in := solver.NewInstance(gen.Random(300, 1200, 1<<14, gen.UWD, 7), par.NewExec(2))
		if tc.override > 0 {
			in.Delta = tc.override
		}
		e := New(in, Config{})
		tr := trace.New(trace.Config{SampleN: 1}).StartRequest("", "sssp")
		if _, _, err := e.Query(trace.NewContext(context.Background(), tr), Request{Sources: []int32{3, 200}}); err != nil {
			t.Fatal(err)
		}
		var solve *trace.SpanJSON
		for _, sp := range tr.Export().Spans.Children {
			if sp.Name == "solve" {
				solve = sp
			}
		}
		if solve == nil || solve.Attrs["solver"] != "delta" || solve.Attrs["delta"] != in.Delta || e.Delta() != in.Delta {
			t.Fatalf("%s: solve span %+v, engine delta %d, instance delta %d", tc.name, solve, e.Delta(), in.Delta)
		}
		refills, scanned := e.DeltaRing()
		if solve.Attrs["refills"] != int(refills) || solve.Attrs["overflow_scanned"] != scanned {
			t.Fatalf("%s: span %+v, engine sums %d/%d", tc.name, solve.Attrs, refills, scanned)
		}
		if (refills > 0) != tc.overflow || (scanned > 0) != tc.overflow {
			t.Fatalf("%s: %d refills, %d overflow entries scanned", tc.name, refills, scanned)
		}
	}
}

func TestQueryValidation(t *testing.T) {
	in := testInstance(t, 50, 200)
	e := New(in, Config{})
	cases := []Request{
		{Sources: nil},
		{Sources: []int32{-1}},
		{Sources: []int32{50}},
		{Sources: []int32{0}, Solver: "nope"},
		{Sources: []int32{0}, Solver: "bfs"}, // weighted graph: BFS inapplicable
	}
	for _, req := range cases {
		if _, _, err := e.Query(context.Background(), req); !errors.Is(err, ErrBadQuery) {
			t.Fatalf("req %+v: err = %v, want ErrBadQuery", req, err)
		}
	}
}

// Equivalent source sets (order, duplicates) must share one cache entry.
func TestQueryCanonicalSourceSet(t *testing.T) {
	in := testInstance(t, 100, 400)
	e := New(in, Config{CacheEntries: 8})
	r1, via, err := e.Query(context.Background(), Request{Sources: []int32{9, 3, 3, 70}, Solver: "dijkstra"})
	if err != nil || via != ViaSolve {
		t.Fatalf("first query: via=%v err=%v", via, err)
	}
	r2, via, err := e.Query(context.Background(), Request{Sources: []int32{70, 9, 3}, Solver: "dijkstra"})
	if err != nil || via != ViaCache {
		t.Fatalf("permuted query: via=%v err=%v, want cache hit", via, err)
	}
	if r1 != r2 {
		t.Fatal("permuted source set did not share the cached result")
	}
}

// A state kept in a slot holds no generation. Here queries one at a time make
// one slot a kind, so every solve of a kind runs the same state: the Thorup
// state and the s-t search answer on the parent, then on the child of a write
// that shortens the path from 0 to far, whose hierarchy and s-t index are its
// own, and each answer is Dijkstra's on the graph of the generation it ran on.
func TestPooledStatesFollowTheGeneration(t *testing.T) {
	g1 := testInstance(t, 300, 1200).G
	parent := engineOn(g1, Config{}) // no cache: every query runs a state
	d, far := dijkstra.SSSP(g1, 0), int32(0)
	for v, dv := range d {
		if dv < graph.Inf && dv > d[far] {
			far = int32(v)
		}
	}
	b := &mutate.Batch{Ops: []mutate.Op{{Op: mutate.OpInsert, U: 0, V: far, W: 1}}}
	g2, _, err := mutate.Apply(g1, b)
	if err != nil {
		t.Fatal(err)
	}
	child, _, _, _ := inherit(parent, g2, mutate.Changes(g1, g2, b))
	ctx := context.Background()
	for _, gen := range []struct {
		e *Gen
		g *graph.Graph
	}{{parent, g1}, {child, g2}} {
		want := dijkstra.SSSP(gen.g, 0)
		res, _, err := gen.e.Query(ctx, Request{Sources: []int32{0}, Solver: "thorup"})
		if err != nil {
			t.Fatal(err)
		}
		for v, dv := range want {
			if res.At(v) != dv {
				t.Fatalf("thorup on the generation of %d arcs: d[%d] = %d, want %d", gen.g.NumEdges(), v, res.At(v), dv)
			}
		}
		gen.e.SetTargetBudget(math.MaxInt)
		res, _, err = gen.e.Query(ctx, Request{Sources: []int32{0}, Targets: []int32{far}})
		if err != nil || res.Solver != parent.p2p.Name || res.Target(0, far) != want[far] {
			t.Fatalf("targeted 0→%d: %v by %s, want %d (%v)", far, res.TargetDist, res.Solver, want[far], err)
		}
	}
	if runs := child.SolverRuns(); runs["thorup"] != 2 || runs[parent.p2p.Name] != 2 {
		t.Fatalf("runs %v: want both generations' in one engine", runs)
	}
	for _, name := range []string{"thorup", parent.p2p.Name} {
		if n := child.exec[name].made.Load(); n != 1 {
			t.Fatalf("%d %s states made, want the one both generations ran on", n, name)
		}
	}
}

// One engine serves a graph's generations. A write's Swap carries the cache
// and the counters keep counting; from then on a query on the parent misses
// and caches nothing. A reload's Swap empties the cache, and after Drop no
// generation reads or fills it.
func TestSwapKeepsCountersAndMovesTheCache(t *testing.T) {
	g1 := testInstance(t, 200, 800).G
	e1 := engineOn(g1, Config{CacheEntries: 8})
	ask(t, e1, 3)
	ask(t, e1, 3)
	loop := &mutate.Batch{Ops: []mutate.Op{{Op: mutate.OpInsert, U: 9, V: 9, W: 1}}}
	g2, _, _ := mutate.Apply(g1, loop)
	e2, exact, _, _ := inherit(e1, g2, mutate.Changes(g1, g2, loop))
	if exact != 1 || e2.Engine != e1.Engine || e1.cache.gen.Load() != e2 {
		t.Fatalf("%d exact; engine shared %v; serving the child %v", exact, e2.Engine == e1.Engine, e1.cache.gen.Load() == e2)
	}
	if _, via := ask(t, e2, 3); via != ViaCache || e2.Counter(cCacheHits) != 2 || e2.Counter(cSolves) != 1 {
		t.Fatalf("child: via %v, %d hits, %d solves; want the parent's counted on", via, e2.Counter(cCacheHits), e2.Counter(cSolves))
	}
	for _, src := range []int32{3, 4, 4} {
		if _, via := ask(t, e1, src); via != ViaSolve {
			t.Fatalf("parent, source %d after the swap: via %v", src, via)
		}
	}
	if e2.cache.peek(keyOf(t, e2, 4)) {
		t.Fatal("a parent's solve after the swap was cached")
	}

	e3 := nextOn(e2, g2) // a reload
	e3.Swap(nil)
	if entries, bytes := e3.cache.size(); entries != 0 || bytes != 0 {
		t.Fatalf("a reload kept %d entries (%d bytes)", entries, bytes)
	}
	if _, via := ask(t, e3, 3); via != ViaSolve || e3.Counter(cSolves) != 5 {
		t.Fatalf("after the reload: via %v, %d solves", via, e3.Counter(cSolves))
	}
	e3.Drop()
	if _, via := ask(t, e3, 3); via != ViaSolve || e3.cache.gen.Load() != nil {
		t.Fatalf("after Drop: via %v, serving %p", via, e3.cache.gen.Load())
	}
	if entries, _ := e3.cache.size(); entries != 0 {
		t.Fatalf("%d entries after Drop", entries)
	}
}

// --- policy ----------------------------------------------------------------

func TestPolicySelection(t *testing.T) {
	weighted := testInstance(t, 200, 800) // maxW 1024
	e := New(weighted, Config{})
	pick := func(e *Gen, name string) string {
		t.Helper()
		got, err := e.pickSolver(name)
		if err != nil {
			t.Fatalf("pickSolver(%q): %v", name, err)
		}
		return got
	}
	if got := pick(e, ""); got != "delta" {
		t.Fatalf("weighted single-source auto = %s, want delta", got)
	}
	if got := pick(e, "auto"); got != "delta" {
		t.Fatalf("multi-source auto = %s, want delta", got)
	}
	if got := pick(e, "mlb"); got != "mlb" {
		t.Fatalf("explicit override = %s, want mlb", got)
	}

	unitG := gen.Random(200, 800, 1, gen.UWD, 7)
	if unitG.MaxWeight() != 1 {
		t.Fatalf("unit graph maxW = %d", unitG.MaxWeight())
	}
	eu := New(solver.NewInstance(unitG, par.NewExec(2)), Config{})
	if got := pick(eu, ""); got != "bfs" {
		t.Fatalf("unit-weight auto = %s, want bfs", got)
	}

	// A tiny weight range under a high degree (C/d floors to 1) used to go to
	// Thorup; the rule no longer looks at the bucket width.
	dense := gen.Random(64, 1024, 4, gen.UWD, 7) // avgDeg 32 > maxW 4
	ed := New(solver.NewInstance(dense, par.NewExec(2)), Config{})
	if dense.MaxWeight() == 1 {
		t.Skip("dense graph happened to be unit-weight")
	}
	if got := pick(ed, ""); got != "delta" {
		t.Fatalf("narrow-weights single-source auto = %s, want delta", got)
	}

	// Thorup is the default only where delta-stepping is not in the pool.
	var noDelta []solver.Solver
	for _, s := range solver.All() {
		if s.Name != "delta" {
			noDelta = append(noDelta, s)
		}
	}
	if got := pick(New(weighted, Config{Solvers: noDelta}), ""); got != "thorup" {
		t.Fatalf("auto without delta in the pool = %s, want thorup", got)
	}
}

// An auto multi-source query on a weighted graph goes where a single-source
// one goes, to delta-stepping, and costs one run; Thorup stays reachable by
// name and answers the same.
func TestMultiSourceRouting(t *testing.T) {
	in := testInstance(t, 300, 1200)
	e := New(in, Config{})
	srcs := []int32{4, 90, 170, 251}
	auto, _, err := e.Query(context.Background(), Request{Sources: srcs})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Solver != "delta" {
		t.Fatalf("auto 4-source query ran %s, want delta", auto.Solver)
	}
	if runs := e.SolverRuns(); runs["delta"] != 1 || runs["thorup"] != 0 {
		t.Fatalf("solver runs %v after the auto query, want one delta", runs)
	}
	forced, _, err := e.Query(context.Background(), Request{Sources: srcs, Solver: "thorup"})
	if err != nil {
		t.Fatal(err)
	}
	if runs := e.SolverRuns(); runs["thorup"] != 1 || runs["delta"] != 1 {
		t.Fatalf("solver runs %v, want one thorup and one delta", runs)
	}
	for v := 0; v < auto.Len(); v++ {
		if forced.At(v) != auto.At(v) {
			t.Fatalf("thorup d[%d] = %d, delta %d", v, forced.At(v), auto.At(v))
		}
	}
	if forced.Reached != auto.Reached || forced.Eccentricity != auto.Eccentricity {
		t.Fatalf("thorup reached/ecc %d/%d, delta %d/%d",
			forced.Reached, forced.Eccentricity, auto.Reached, auto.Eccentricity)
	}
}

// --- segmented LRU cache ---------------------------------------------------

func cacheRes(key string, n int) *Result {
	return &Result{key: key, vec: pack(make([]int64, n), 32)}
}

func TestLRUEvictionOrder(t *testing.T) {
	var ev obs.Counter
	c := newSLRU(2, 0, &ev, nil)
	c.add(cacheRes("A", 4))
	if _, ok := c.get(nil, "A"); !ok { // touch A: protected, so B, least recently used on probation, goes when C comes
		t.Fatal("A missing")
	}
	c.add(cacheRes("B", 4))
	c.add(cacheRes("C", 4))
	if _, ok := c.get(nil, "B"); ok {
		t.Fatal("B should have been evicted (least recently used)")
	}
	for _, k := range []string{"A", "C"} {
		if _, ok := c.get(nil, k); !ok {
			t.Fatalf("%s should have survived", k)
		}
	}
	if ev.Value() != 1 {
		t.Fatalf("evictions = %d, want 1", ev.Value())
	}
}

func TestLRUByteBudget(t *testing.T) {
	var ev obs.Counter
	per := entryBytes(cacheRes("K1", 100)) // all keys same length/size
	c := newSLRU(100, 3*per, &ev, nil)
	for i := 1; i <= 4; i++ {
		k := fmt.Sprintf("K%d", i)
		c.add(cacheRes(k, 100))
	}
	entries, bytes := c.size()
	if entries != 3 || bytes != 3*per {
		t.Fatalf("size = (%d, %d), want (3, %d)", entries, bytes, 3*per)
	}
	if _, ok := c.get(nil, "K1"); ok {
		t.Fatal("K1 (oldest) should have been evicted by the byte budget")
	}
	if ev.Value() != 1 {
		t.Fatalf("evictions = %d, want 1", ev.Value())
	}

	// Growing an entry (JSON materialization) re-enforces the budget, evicting
	// older entries but keeping the grown one.
	c.grow(c.index["K3"].Value.(*cacheEntry).res, 2*per)
	if _, ok := c.get(nil, "K3"); !ok {
		t.Fatal("grown entry K3 should survive its own growth")
	}
	if entries, _ := c.size(); entries != 1 {
		t.Fatalf("after grow: %d entries, want 1 (K3 alone fills the budget)", entries)
	}
}

func TestLRUDisabled(t *testing.T) {
	c := newSLRU(0, 0, &obs.Counter{}, nil)
	c.add(cacheRes("A", 4))
	if _, ok := c.get(nil, "A"); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if entries, bytes := c.size(); entries != 0 || bytes != 0 {
		t.Fatal("disabled cache reports non-zero size")
	}
}

// --- singleflight ----------------------------------------------------------

// N concurrent identical queries must execute the solver exactly once: one
// leader solves, every other caller joins that flight.
func TestSingleflightExactlyOneSolve(t *testing.T) {
	in := testInstance(t, 100, 400)
	gs := newGated()
	e := New(in, Config{CacheEntries: 8, Solvers: append(solver.All(), gs.register())})

	const N = 8
	req := Request{Sources: []int32{42}, Solver: "gated"}
	vias := make([]Via, N)
	errs := make([]error, N)
	var wg sync.WaitGroup
	wg.Add(N)
	for i := 0; i < N; i++ {
		go func(i int) {
			defer wg.Done()
			_, vias[i], errs[i] = e.Query(context.Background(), req)
		}(i)
	}
	<-gs.started
	// The leader is held inside its solve; once the other N-1 callers have
	// joined its flight, releasing it proves true concurrent coalescing.
	// (Counting cache misses is not enough: a caller that has missed may not
	// reach the flight group until the leader is done.)
	_, _, key, err := e.plan(req)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); e.flight.joined(key) < N-1; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d callers joined the held flight", e.flight.joined(key), N-1)
		}
	}
	close(gs.release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if solves := e.Counter("solves"); solves != 1 {
		t.Fatalf("solves = %d, want exactly 1", solves)
	}
	if runs := e.SolverRuns()["gated"]; runs != 1 {
		t.Fatalf("gated runs = %d, want exactly 1", runs)
	}
	var solve, dedup int
	for _, v := range vias {
		switch v {
		case ViaSolve:
			solve++
		case ViaDedup:
			dedup++
		}
	}
	if solve != 1 || dedup != N-1 {
		t.Fatalf("vias: %d solve + %d dedup, want 1 + %d", solve, dedup, N-1)
	}
}

// A waiter whose context expires stops waiting; the leader still completes
// and caches, so a later query hits the cache.
func TestSingleflightWaiterCancellation(t *testing.T) {
	in := testInstance(t, 100, 400)
	gs := newGated()
	e := New(in, Config{CacheEntries: 8, Solvers: append(solver.All(), gs.register())})

	req := Request{Sources: []int32{7}, Solver: "gated"}
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := e.Query(context.Background(), req)
		leaderDone <- err
	}()
	<-gs.started

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := e.Query(ctx, req)
		waiterDone <- err
	}()
	for e.Counter("cache_misses") < 2 {
	}
	cancel()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}

	close(gs.release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader err = %v", err)
	}
	if _, via, err := e.Query(context.Background(), req); err != nil || via != ViaCache {
		t.Fatalf("post-flight query: via=%v err=%v, want cache hit", via, err)
	}
}

// stoppableSolver is a gated solver that honours its context, as the exec
// kernels do: a run ends when released (a full answer) or when its context
// ends (nil, cancelled). It counts the Resets of its states.
type stoppableSolver struct {
	started   chan struct{} // one send per run start; buffered for the runs a test holds at once
	release   chan struct{}
	cancelled atomic.Int64 // runs that ended on their context
	resets    atomic.Int64
}

type stoppableState struct{ s *stoppableSolver }

func (st stoppableState) RunFromSources(ctx context.Context, in *solver.Instance, sources []int32) []int64 {
	st.s.started <- struct{}{}
	select {
	case <-st.s.release:
		out := make([]int64, in.G.NumVertices())
		for i := range out {
			out[i] = graph.Inf
		}
		for _, src := range sources {
			out[src] = 0
		}
		return out
	case <-ctx.Done():
		st.s.cancelled.Add(1)
		return nil
	}
}

func (st stoppableState) Reset() { st.s.resets.Add(1) }

func newStoppable(t *testing.T) (*stoppableSolver, *Gen) {
	s := &stoppableSolver{started: make(chan struct{}, max(2, runtime.GOMAXPROCS(0))), release: make(chan struct{})}
	e := New(testInstance(t, 100, 400), Config{CacheEntries: 8, Solvers: append(solver.All(), solver.Solver{
		Name:     "stoppable",
		NewState: func() solver.State { return stoppableState{s} },
	})})
	return s, e
}

// joinedBy waits until n callers have joined the flight in progress for req.
func joinedBy(t *testing.T, e *Gen, req Request, n int) {
	t.Helper()
	_, _, key, err := e.plan(req)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); e.flight.joined(key) < n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d callers joined the flight", e.flight.joined(key), n)
		}
	}
}

// The leader's deadline passes while a joiner still waits: the solve goes on
// (on the leader's goroutine), the joiner gets the answer, the leader its
// context's error, and the answer is cached.
func TestSingleflightCancelLeaderJoinerLives(t *testing.T) {
	s, e := newStoppable(t)
	req := Request{Sources: []int32{7}, Solver: "stoppable"}
	lctx, cancelLeader := context.WithCancel(context.Background())
	leader := make(chan error, 1)
	go func() {
		_, _, err := e.Query(lctx, req)
		leader <- err
	}()
	<-s.started
	joiner := make(chan error, 1)
	go func() {
		res, via, err := e.Query(context.Background(), req)
		if err == nil && (via != ViaDedup || res.At(7) != 0) {
			err = fmt.Errorf("via %v, d[7] = %d", via, res.At(7))
		}
		joiner <- err
	}()
	joinedBy(t, e, req, 1)
	cancelLeader()
	select {
	case err := <-leader:
		t.Fatalf("the leader returned (%v) while its solve was held", err)
	case <-time.After(50 * time.Millisecond): // a wrong cancellation would have reached the run by now
	}
	close(s.release)
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	if err := <-joiner; err != nil {
		t.Fatalf("joiner: %v", err)
	}
	if n := s.cancelled.Load(); n != 0 {
		t.Fatalf("%d runs cancelled while a caller still waited", n)
	}
	if _, via, err := e.Query(context.Background(), req); err != nil || via != ViaCache {
		t.Fatalf("after the flight: via=%v err=%v, want a cache hit", via, err)
	}
	if n := e.Counter("cancelled"); n != 0 {
		t.Fatalf("cancelled = %d, want 0", n)
	}
}

// Both callers' deadlines pass: the last to leave cancels the solve, which
// stops, is Reset and goes back to its pool, and caches nothing — the next
// caller solves afresh.
func TestSingleflightCancelAllWaitersGone(t *testing.T) {
	s, e := newStoppable(t)
	req := Request{Sources: []int32{7}, Solver: "stoppable"}
	lctx, cancelLeader := context.WithCancel(context.Background())
	jctx, cancelJoiner := context.WithCancel(context.Background())
	errs := make(chan error, 2)
	go func() {
		_, _, err := e.Query(lctx, req)
		errs <- err
	}()
	<-s.started
	go func() {
		_, _, err := e.Query(jctx, req)
		errs <- err
	}()
	joinedBy(t, e, req, 1)
	cancelJoiner()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("joiner err = %v, want context.Canceled", err)
	}
	if n := s.cancelled.Load(); n != 0 {
		t.Fatalf("the solve was cancelled while its leader waited")
	}
	cancelLeader()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	if c, r := s.cancelled.Load(), s.resets.Load(); c != 1 || r != 1 {
		t.Fatalf("%d runs cancelled, %d states Reset; want 1 and 1", c, r)
	}
	if n := e.Counter("cancelled"); n != 1 {
		t.Fatalf("cancelled = %d, want 1", n)
	}
	close(s.release)
	res, via, err := e.Query(context.Background(), req)
	if err != nil || via != ViaSolve || res.At(7) != 0 {
		t.Fatalf("after the cancelled flight: via=%v err=%v, want a fresh solve", via, err)
	}
	<-s.started
	if r := s.resets.Load(); r != 2 {
		t.Fatalf("%d states Reset after two runs, want 2", r)
	}
}

// --- batch -----------------------------------------------------------------

func TestBatchMatchesIndividualQueries(t *testing.T) {
	in := testInstance(t, 200, 800)
	e := New(in, Config{BatchWorkers: 4})
	reqs := make([]Request, 16)
	for i := range reqs {
		reqs[i] = Request{Sources: []int32{int32(i * 7 % 200)}, Solver: "dijkstra"}
	}
	out := e.Batch(context.Background(), reqs)
	if len(out) != len(reqs) {
		t.Fatalf("%d results for %d queries", len(out), len(reqs))
	}
	reg, _ := solver.ByName("dijkstra")
	for i, br := range out {
		if br.Err != nil {
			t.Fatalf("item %d: %v", i, br.Err)
		}
		want := reg.Solve(in, reqs[i].Sources)
		for v := range want {
			if br.Res.At(v) != want[v] {
				t.Fatalf("item %d dist[%d] = %d, want %d", i, v, br.Res.At(v), want[v])
			}
		}
	}
	if e.Counter("batch_requests") != 1 || e.Counter("batch_items") != 16 {
		t.Fatalf("batch counters = (%d, %d), want (1, 16)",
			e.Counter("batch_requests"), e.Counter("batch_items"))
	}
}

// A bad item fails alone; the rest of the batch still completes.
func TestBatchPerItemErrors(t *testing.T) {
	in := testInstance(t, 50, 200)
	e := New(in, Config{BatchWorkers: 2})
	out := e.Batch(context.Background(), []Request{
		{Sources: []int32{1}, Solver: "dijkstra"},
		{Sources: []int32{999}, Solver: "dijkstra"},
		{Sources: []int32{2}, Solver: "dijkstra"},
	})
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("good items failed: %v, %v", out[0].Err, out[2].Err)
	}
	if !errors.Is(out[1].Err, ErrBadQuery) {
		t.Fatalf("bad item err = %v, want ErrBadQuery", out[1].Err)
	}
}

// Cancelling mid-batch fails every item with ctx.Err(): the queued ones
// without running, and the one solving once its execution returns, because
// the batch was its only waiter; nothing deadlocks or goes unaccounted.
func TestBatchCancellationMidFlight(t *testing.T) {
	in := testInstance(t, 50, 200)
	gs := newGated()
	e := New(in, Config{BatchWorkers: 1, Solvers: append(solver.All(), gs.register())})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan []BatchResult, 1)
	go func() {
		done <- e.Batch(ctx, []Request{
			{Sources: []int32{0}, Solver: "gated"},
			{Sources: []int32{1}, Solver: "dijkstra"},
			{Sources: []int32{2}, Solver: "dijkstra"},
		})
	}()
	<-gs.started // worker 1 of 1 is inside item 0's solve; items 1, 2 queued
	cancel()
	close(gs.release)
	out := <-done

	for i := 0; i < 3; i++ {
		if !errors.Is(out[i].Err, context.Canceled) {
			t.Fatalf("item %d err = %v, want context.Canceled", i, out[i].Err)
		}
	}
	if solves := e.Counter("solves"); solves != 1 {
		t.Fatalf("solves = %d, want 1 (queued items must not execute)", solves)
	}
}

func TestBatchPreCancelled(t *testing.T) {
	in := testInstance(t, 50, 200)
	e := New(in, Config{BatchWorkers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := e.Batch(ctx, []Request{
		{Sources: []int32{0}}, {Sources: []int32{1}}, {Sources: []int32{2}},
	})
	for i, br := range out {
		if !errors.Is(br.Err, context.Canceled) {
			t.Fatalf("item %d err = %v, want context.Canceled", i, br.Err)
		}
	}
	if solves := e.Counter("solves"); solves != 0 {
		t.Fatalf("solves = %d, want 0", solves)
	}
}

// --- slots -----------------------------------------------------------------

// However many goroutines drive a batch, a solver has no more states than
// processors: 8 workers over 64 distinct sources, each run long enough that
// every worker is solving or waiting at once, make at most GOMAXPROCS states,
// and the workers beyond the slots wait for one.
func TestSlotsBoundTheStatesABatchMakes(t *testing.T) {
	in := testInstance(t, 200, 800)
	var made atomic.Int64
	e := New(in, Config{BatchWorkers: 8, Solvers: append(solver.All(), solver.Solver{
		Name: "counting",
		NewState: func() solver.State {
			made.Add(1)
			return solver.StateFunc(func(_ context.Context, in *solver.Instance, srcs []int32) []int64 {
				time.Sleep(time.Millisecond)
				return dijkstra.SSSPFromSources(in.G, srcs)
			})
		},
	})})
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{Sources: []int32{int32(i)}, Solver: "counting"}
	}
	for i, br := range e.Batch(context.Background(), reqs) {
		if br.Err != nil || br.Via != ViaSolve || br.Res.At(i) != 0 {
			t.Fatalf("item %d: via %v, err %v", i, br.Via, br.Err)
		}
	}
	procs := runtime.GOMAXPROCS(0)
	if n := made.Load(); n > int64(procs) {
		t.Fatalf("%d states made for 8 workers at GOMAXPROCS %d", n, procs)
	}
	if runs, waits := e.SolverRuns()["counting"], e.Counter(cSlotWaits); runs != 64 || (procs < 8 && waits == 0) {
		t.Fatalf("%d runs, %d slot waits; want 64 runs and some waits", runs, waits)
	}
}

// A solve that finds every slot of its solver held waits, and a deadline that
// passes while it waits ends it there: the caller gets the context's error,
// the solver never runs, and the wait counts in slot_waits and cancelled but
// not in solves. Once the slots are free the same query solves.
func TestSlotWaitPastItsDeadlineNeverRuns(t *testing.T) {
	s, e := newStoppable(t)
	procs := runtime.GOMAXPROCS(0)
	var held sync.WaitGroup
	for i := range procs {
		held.Add(1)
		go func() {
			defer held.Done()
			if _, _, err := e.Query(context.Background(), Request{Sources: []int32{int32(i)}, Solver: "stoppable"}); err != nil {
				t.Error(err)
			}
		}()
	}
	for range procs {
		<-s.started
	}
	req := Request{Sources: []int32{50}, Solver: "stoppable"}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := e.Query(ctx, req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued solve: err = %v, want context.DeadlineExceeded", err)
	}
	select {
	case <-s.started:
		t.Fatal("the queued solve ran")
	default:
	}
	if w, c, n := e.Counter(cSlotWaits), e.Counter(cCancelled), e.Counter(cSolves); w != 1 || c != 1 || n != int64(procs) {
		t.Fatalf("slot_waits %d, cancelled %d, solves %d; want 1, 1, %d", w, c, n, procs)
	}
	close(s.release)
	held.Wait()
	if _, via, err := e.Query(context.Background(), req); err != nil || via != ViaSolve {
		t.Fatalf("after the slots were freed: via %v, err %v", via, err)
	}
}

// heldState blocks a run until released, then runs the state it wraps.
type heldState struct {
	solver.State
	started, release chan struct{}
}

func (h heldState) RunFromSources(ctx context.Context, in *solver.Instance, srcs []int32) []int64 {
	h.started <- struct{}{}
	<-h.release
	return h.State.RunFromSources(ctx, in, srcs)
}

// Searches have slots of their own: with every delta-stepping slot held, a
// targeted request is still answered by the s-t search. Afterwards slot_bytes
// is what the states kept in the slots hold.
func TestSearchAnswersWhileEveryDeltaSlotIsHeld(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	started, release := make(chan struct{}, procs), make(chan struct{})
	pool := solver.All()
	for i, s := range pool {
		if s.Name == "delta" {
			pool[i].NewState = func() solver.State { return heldState{s.NewState(), started, release} }
		}
	}
	e := New(testInstance(t, 300, 1200), Config{Solvers: pool})
	e.SetTargetBudget(math.MaxInt)
	var held sync.WaitGroup
	for i := range procs {
		held.Add(1)
		go func() {
			defer held.Done()
			if _, _, err := e.Query(context.Background(), Request{Sources: []int32{int32(i)}, Solver: "delta"}); err != nil {
				t.Error(err)
			}
		}()
	}
	for range procs {
		<-started
	}
	want := dijkstra.SSSP(e.in.G, 7)[250]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, _, err := e.Query(ctx, Request{Sources: []int32{7}, Targets: []int32{250}})
	if err != nil || res.Solver != e.p2p.Name || res.Target(0, 250) != want {
		t.Fatalf("search with every delta slot held: %v (%v), want %d by %s", res, err, want, e.p2p.Name)
	}
	close(release)
	held.Wait()
	var kept int64
	for _, p := range e.exec { // every slot is free now; take them all
		for range p.made.Load() {
			if b, ok := (<-p.free).st.(sized); ok {
				kept += b.Bytes()
			}
		}
	}
	if got := e.SlotBytes(); got != kept || kept < 8*300 {
		t.Fatalf("slot_bytes %d, the kept states hold %d", got, kept)
	}
}

// --- JSON streaming --------------------------------------------------------

// DistJSON must encode distances with Inf as -1, build the bytes exactly
// once per result, and count repeat serves as bytes-from-cache.
func TestDistJSONCachedServing(t *testing.T) {
	// Two components: vertex 3 unreachable from 0.
	b := graph.NewBuilder(4)
	b.MustAddEdge(0, 1, 5)
	b.MustAddEdge(1, 2, 7)
	g := b.Build()
	e := New(solver.NewInstance(g, par.NewExec(1)), Config{CacheEntries: 4})

	res, _, err := e.Query(context.Background(), Request{Sources: []int32{0}, Solver: "dijkstra"})
	if err != nil {
		t.Fatal(err)
	}
	j1 := res.DistJSON()
	want := []byte("[0,5,12,-1]")
	if !bytes.Equal(j1, want) {
		t.Fatalf("DistJSON = %s, want %s", j1, want)
	}
	if e.Counter("full_json_built") != 1 || e.Counter("full_bytes_from_cache") != 0 {
		t.Fatalf("after first serve: built=%d fromCache=%d, want 1, 0",
			e.Counter("full_json_built"), e.Counter("full_bytes_from_cache"))
	}

	// Cache hit returns the same Result; its JSON is served without re-marshal.
	res2, via, err := e.Query(context.Background(), Request{Sources: []int32{0}, Solver: "dijkstra"})
	if err != nil || via != ViaCache {
		t.Fatalf("second query: via=%v err=%v", via, err)
	}
	j2 := res2.DistJSON()
	if &j1[0] != &j2[0] {
		t.Fatal("cache hit re-marshaled the distance vector")
	}
	if e.Counter("full_json_built") != 1 {
		t.Fatalf("built = %d, want still 1", e.Counter("full_json_built"))
	}
	if got := e.Counter("full_bytes_from_cache"); got != int64(len(want)) {
		t.Fatalf("full_bytes_from_cache = %d, want %d", got, len(want))
	}

	// The materialized JSON is charged to the cache's byte budget.
	if _, bytes := e.cache.size(); bytes <= entryBytes(res) {
		t.Fatalf("cache bytes %d not charged for JSON (entry alone is %d)",
			bytes, entryBytes(res))
	}
}

// The cache is charged what the serialized vector holds — its capacity, not
// its length — for a vector of multi-digit distances, which overflow any
// guess of a few bytes a vertex.
func TestDistJSONChargedWhatItHolds(t *testing.T) {
	e := New(testInstance(t, 2000, 8000), Config{CacheEntries: 4})
	res, _, err := e.Query(context.Background(), Request{Sources: []int32{0}})
	if err != nil {
		t.Fatal(err)
	}
	_, before := e.cache.size()
	js := res.DistJSON()
	if _, after := e.cache.size(); after-before != int64(cap(js)) {
		t.Fatalf("charged %d bytes for a %d-byte array in a %d-byte buffer", after-before, len(js), cap(js))
	}
}

// --- stats -----------------------------------------------------------------

func TestStatsSnapshotShape(t *testing.T) {
	in := testInstance(t, 100, 400)
	e := New(in, Config{CacheEntries: 4, CacheBytes: 1 << 20})
	if _, _, err := e.Query(context.Background(), Request{Sources: []int32{0}, Solver: "thorup"}); err != nil {
		t.Fatal(err)
	}
	s := e.StatsSnapshot()
	for _, k := range []string{"solves", "dedup_hits", "cache_hits", "cache_misses",
		"cache_evictions", "batch_requests", "batch_items", "full_json_built",
		"full_bytes_from_cache", "cache_entries", "cache_bytes", "cache_max_entries",
		"cache_max_bytes", "solver_runs", "slot_waits", "slot_bytes"} {
		if _, ok := s[k]; !ok {
			t.Fatalf("StatsSnapshot missing %q", k)
		}
	}
	if s["solves"].(int64) != 1 {
		t.Fatalf("solves = %v, want 1", s["solves"])
	}
	if runs := s["solver_runs"].(map[string]int64); runs["thorup"] != 1 {
		t.Fatalf("solver_runs[thorup] = %d, want 1", runs["thorup"])
	}
	if s["slot_bytes"].(int64) <= 0 {
		t.Fatalf("slot_bytes = %v after a Thorup solve, want its kept state's arrays", s["slot_bytes"])
	}
	tr, n := e.ThorupTrace()
	if n != 1 || tr.Settled == 0 {
		t.Fatalf("ThorupTrace = (%+v, %d), want 1 run with settled > 0", tr, n)
	}
	if e.InstanceBytes() <= 0 {
		t.Fatal("InstanceBytes <= 0")
	}
}
