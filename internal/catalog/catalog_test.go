package catalog

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/ch"
	"repro/internal/cli"
	"repro/internal/dijkstra"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/snapshot"
)

const waitFor = 30 * time.Second

func testCatalog(t *testing.T, cfg Config) *Catalog {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	c := New(cfg)
	t.Cleanup(c.Close)
	return c
}

// loaderFor yields graphs of the given seed; distinct seeds give distinct
// weights, so cross-generation staleness is observable in distances.
func loaderFor(seed uint64) func() (*graph.Graph, *ch.Hierarchy, error) {
	return func() (*graph.Graph, *ch.Hierarchy, error) {
		g := gen.Random(400, 1600, 1<<10, gen.UWD, seed)
		return g, ch.BuildKruskal(g), nil
	}
}

// blockedLoad starts Load(name) on a goroutine with a loader that blocks until
// finish is called, and returns once that load is in flight. finish lets the
// loader go and returns Load's result.
func blockedLoad(t *testing.T, c *Catalog, name string) (finish func() (uint64, error)) {
	t.Helper()
	started, unblock := make(chan struct{}), make(chan struct{})
	type result struct {
		gen uint64
		err error
	}
	done := make(chan result, 1)
	go func() {
		gen, err := c.Load(name, Source{Loader: func() (*graph.Graph, *ch.Hierarchy, error) {
			close(started)
			<-unblock
			return loaderFor(1)()
		}})
		done <- result{gen, err}
	}()
	<-started
	return func() (uint64, error) {
		close(unblock)
		r := <-done
		return r.gen, r.err
	}
}

func TestInitialLoadLifecycle(t *testing.T) {
	c := testCatalog(t, Config{})
	gen, err := c.Load("g", Source{Loader: loaderFor(1)})
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("Load returned gen %d, want 1", gen)
	}
	gen1, release, err := c.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if gen1.Gen != 1 || gen1.Name != "g" {
		t.Fatalf("generation %s@%d, want g@1", gen1.Name, gen1.Gen)
	}
	res, _, err := gen1.Engine.Query(context.Background(), engine.Request{Sources: []int32{0}})
	if err != nil {
		t.Fatal(err)
	}
	want := dijkstra.SSSP(gen1.G, 0)
	for v := range want {
		if res.At(v) != want[v] {
			t.Fatalf("distance mismatch at %d: %d vs %d", v, res.At(v), want[v])
		}
	}
	st := c.Status()
	if len(st) != 1 || st[0].State != "ready" || st[0].Gen != 1 || st[0].Vertices != 400 {
		t.Fatalf("status %+v", st)
	}
	if c.Counter(cSwaps) != 1 || c.Counter(cLoads) != 1 {
		t.Fatalf("counters: swaps=%d loads=%d", c.Counter(cSwaps), c.Counter(cLoads))
	}
}

func TestAcquireErrors(t *testing.T) {
	c := testCatalog(t, Config{})
	if _, _, err := c.Acquire("nope"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("want ErrUnknownGraph, got %v", err)
	}
	// A slow loader keeps the entry in a not-ready phase.
	finish := blockedLoad(t, c, "slow")
	_, _, err := c.Acquire("slow")
	var nr *NotReadyError
	if !errors.As(err, &nr) || nr.State != StateLoading {
		t.Fatalf("want NotReadyError (loading) mid-build, got %v", err)
	}
	if _, err := finish(); err != nil {
		t.Fatal(err)
	}
	_, release, err := c.Acquire("slow")
	if err != nil {
		t.Fatalf("acquire after Load returned: %v", err)
	}
	release()
}

func TestLoadIdempotentWhilePendingAndErrorsWhenReady(t *testing.T) {
	c := testCatalog(t, Config{})
	finish := blockedLoad(t, c, "g")
	// While the load is in flight, every other call on the name is refused
	// and changes nothing.
	src := Source{Loader: loaderFor(2)}
	if _, err := c.Load("g", src); !errors.Is(err, ErrBusy) {
		t.Fatalf("second Load while pending: %v, want ErrBusy", err)
	}
	if _, err := c.Reload("g"); !errors.Is(err, ErrBusy) {
		t.Fatalf("Reload while pending: %v, want ErrBusy", err)
	}
	b := &mutate.Batch{Ops: []mutate.Op{{Op: mutate.OpInsert, U: 0, V: 1, W: 1}}}
	if _, err := c.Mutate("g", b); !errors.Is(err, ErrBusy) {
		t.Fatalf("Mutate while pending: %v, want ErrBusy", err)
	}
	if err := c.Unload("g"); !errors.Is(err, ErrBusy) {
		t.Fatalf("Unload while pending: %v, want ErrBusy", err)
	}
	if gen, err := finish(); err != nil || gen != 1 {
		t.Fatalf("the pending load: gen %d, %v; want gen 1", gen, err)
	}
	if c.Counter(cLoads) != 1 || c.Counter(cReloads) != 0 || c.Counter(cMutations) != 0 {
		t.Fatalf("loads=%d reloads=%d mutations=%d, want 1, 0, 0",
			c.Counter(cLoads), c.Counter(cReloads), c.Counter(cMutations))
	}
	if _, err := c.Load("g", src); err == nil || !strings.Contains(err.Error(), "already loaded") {
		t.Fatalf("loading a ready graph: %v", err)
	}
}

func TestLoadFailureAndRetry(t *testing.T) {
	c := testCatalog(t, Config{})
	boom := errors.New("disk on fire")
	_, err := c.Load("g", Source{Loader: func() (*graph.Graph, *ch.Hierarchy, error) {
		return nil, nil, boom
	}})
	if !errors.Is(err, boom) || !errors.Is(err, ErrLoadFailed) {
		t.Fatalf("want the load failure returned, got %v", err)
	}
	if st := c.Status()[0]; st.State != "failed" || st.Pending || !strings.Contains(st.Error, boom.Error()) {
		t.Fatalf("status after a failed load: %+v", st)
	}
	_, _, err = c.Acquire("g")
	var nr *NotReadyError
	if !errors.As(err, &nr) || nr.State != StateFailed || !errors.Is(nr.Err, boom) {
		t.Fatalf("acquire after failure: %v", err)
	}
	if c.Counter(cLoadFailures) != 1 {
		t.Fatalf("load_failures=%d", c.Counter(cLoadFailures))
	}
	// Retrying with a working source recovers.
	if _, err := c.Load("g", Source{Loader: loaderFor(2)}); err != nil {
		t.Fatal(err)
	}
	if st := c.Status()[0]; st.State != "ready" || st.Error != "" {
		t.Fatalf("status after the retry: %+v", st)
	}
}

// A generation nothing refers to any more is garbage in the very next
// collection, although the engine and its pooled solver states live on with
// the child a mutation made of it: a pooled state holds no instance, the
// instance's build hook must not lead back to the generation (it once did:
// churn's peak RSS rose by a quarter), and the answers the child inherited,
// exact ones and a stale one nothing has resolved yet, are the parent's
// vectors and nothing else of it. Its graph goes in that collection too: a
// pooled Thorup state lets go of the hierarchy over it at Reset. Only the
// graph carries a finalizer: one on the generation would keep what it
// reaches, the graph included, for a cycle more, and the generation reaches
// the graph, so the graph going shows the generation went with it.
func TestGenerationIsGarbageInOneCollection(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no cycle but the one below
	c := testCatalog(t, Config{Engine: engine.Config{CacheEntries: 16}})
	collected := make(chan struct{})
	child := func() *Generation {
		g, _, _ := lazyLoader(4)()
		gn := c.newGeneration("g", 1, nil, g, nil, nil)
		checkDistances(t, gn, g) // default queries: delta-stepping states go to the pool
		demandOn(t, gn)          // and a Thorup one, over a hierarchy built on demand
		runtime.SetFinalizer(g, func(*graph.Graph) { close(collected) })

		// An arc from 0 to the vertex furthest from it, one shorter than the
		// path there: 0's answer goes stale, and hardly another.
		d0, far := dijkstra.SSSP(g, 0), 0
		for v, d := range d0 {
			if d < graph.Inf && d > d0[far] {
				far = v
			}
		}
		b := &mutate.Batch{Ops: []mutate.Op{{Op: mutate.OpInsert, U: 0, V: int32(far), W: uint32(d0[far] - 1)}}}
		g2, _, err := mutate.Apply(g, b)
		if err != nil {
			t.Fatal(err)
		}
		child := c.newGeneration("g", 2, gn, g2, nil, nil)
		if exact, stale, _ := child.Engine.Swap(child.Engine.Inherit(mutate.Changes(g, g2, b))); exact == 0 || stale == 0 {
			t.Fatalf("the child inherited %d exact and %d stale answers, want some of each", exact, stale)
		}
		return child
	}()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(10 * time.Second):
		t.Fatal("an unreferenced generation or its graph survived a collection: a pooled solver state, or an answer the child inherited, holds more than the vector")
	}
	checkDistances(t, child, child.G) // resolving the stale answer needs nothing of the parent
	if child.Engine.Counter("resumed") == 0 {
		t.Fatal("no inherited answer was resumed")
	}
}

func TestUnloadDrainsInFlight(t *testing.T) {
	c := testCatalog(t, Config{})
	if _, err := c.Load("g", Source{Loader: loaderFor(1)}); err != nil {
		t.Fatal(err)
	}
	g1, release, err := c.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Unload("g"); err != nil {
		t.Fatal(err)
	}
	// Out of service for new queries immediately, and not loadable again
	// until the drain is over...
	if _, _, err := c.Acquire("g"); err == nil {
		t.Fatal("acquired a draining graph")
	}
	if _, err := c.Load("g", Source{Loader: loaderFor(3)}); !errors.Is(err, ErrBusy) {
		t.Fatalf("load while draining: %v, want ErrBusy", err)
	}
	// ...but the held generation still answers, and is not drained yet.
	if _, _, err := g1.Engine.Query(context.Background(), engine.Request{Sources: []int32{3}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-g1.Drained():
		t.Fatal("drained while a query held a reference")
	default:
	}
	release()
	<-g1.Drained()
	// ...after which the entry reads evicted and loads again.
	if st := c.Status(); len(st) != 1 || st[0].State != "evicted" {
		t.Fatalf("status after the drain: %+v", st)
	}
	if _, err := c.Load("g", Source{Loader: loaderFor(3)}); err != nil {
		t.Fatal(err)
	}
	g2, release2, err := c.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer release2()
	if g2.Gen != 2 {
		t.Fatalf("gen %d after reload-from-evicted, want 2", g2.Gen)
	}
}

func TestReleaseIdempotent(t *testing.T) {
	c := testCatalog(t, Config{})
	if _, err := c.Load("g", Source{Loader: loaderFor(1)}); err != nil {
		t.Fatal(err)
	}
	gen1, release, err := c.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	release()
	release() // double release must not underflow the refcount
	if n := gen1.InFlight(); n != 0 {
		t.Fatalf("in-flight %d after double release", n)
	}
}

func TestReloadKeepsServingAndFailedReloadKeepsOldGeneration(t *testing.T) {
	c := testCatalog(t, Config{})
	if _, err := c.Load("g", Source{Loader: loaderFor(1)}); err != nil {
		t.Fatal(err)
	}

	// Swap the source so the reload fails; the old generation must survive.
	c.mu.Lock()
	c.entries["g"].src = Source{Loader: func() (*graph.Graph, *ch.Hierarchy, error) {
		return nil, nil, errors.New("flaky source")
	}}
	c.mu.Unlock()
	if _, err := c.Reload("g"); !errors.Is(err, ErrLoadFailed) {
		t.Fatalf("failed reload returned %v, want ErrLoadFailed", err)
	}
	g1, release, err := c.Acquire("g")
	if err != nil {
		t.Fatalf("old generation gone after failed reload: %v", err)
	}
	if g1.Gen != 1 {
		t.Fatalf("gen %d, want the original 1", g1.Gen)
	}
	release()
	st := c.Status()
	if st[0].Error == "" || st[0].State != "ready" {
		t.Fatalf("status should stay ready and record the error: %+v", st[0])
	}

	// A working reload swaps in a fresh generation and drains the old one.
	c.mu.Lock()
	c.entries["g"].src = Source{Loader: loaderFor(9)}
	c.mu.Unlock()
	if _, err := c.Reload("g"); err != nil {
		t.Fatal(err)
	}
	g3, release3, err := c.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer release3()
	if g3.Gen <= g1.Gen {
		t.Fatalf("generation did not advance: %d -> %d", g1.Gen, g3.Gen)
	}
	select {
	case <-g1.Drained():
	case <-time.After(waitFor):
		t.Fatal("old generation never drained after swap")
	}
}

func TestMemoryBudgetEvictsLRU(t *testing.T) {
	// Budget fits roughly two of the three identical graphs.
	probe := gen.Random(400, 1600, 1<<10, gen.UWD, 1)
	one := probe.MemoryBytes() + ch.BuildKruskal(probe).ComputeStats().CHBytes
	c := testCatalog(t, Config{MemoryBudget: 2*one + one/2})
	for i, name := range []string{"a", "b", "c"} {
		if _, err := c.Load(name, Source{Loader: loaderFor(uint64(i + 1))}); err != nil {
			t.Fatal(err)
		}
		// Touch so LRU order is load order: a oldest.
		_, release, err := c.Acquire(name)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	if c.Counter(cEvictions) == 0 {
		t.Fatal("no eviction despite exceeding the budget")
	}
	// "a" was least recently used; it must be the one out of service.
	if _, _, err := c.Acquire("a"); err == nil {
		t.Fatal("a not evicted")
	}
	for _, name := range []string{"b", "c"} {
		_, release, err := c.Acquire(name)
		if err != nil {
			t.Fatalf("%s should have survived: %v", name, err)
		}
		release()
	}
	// An evicted graph reloads on demand from its remembered source: an idle
	// victim is evicted, not draining, by the time the eviction returns.
	if _, err := c.Load("a", Source{Loader: loaderFor(1)}); err != nil {
		t.Fatal(err)
	}
}

// A reload whose entry the memory budget evicts while it builds installs
// nothing: its generation is discarded, the name stays evicted, and a later
// load brings it back.
func TestReloadEvictedMidBuildDiscards(t *testing.T) {
	probe := gen.Random(400, 1600, 1<<10, gen.UWD, 1)
	one := probe.MemoryBytes() + ch.BuildKruskal(probe).ComputeStats().CHBytes
	c := testCatalog(t, Config{MemoryBudget: one + one/2})
	if _, err := c.Load("a", Source{Loader: loaderFor(1)}); err != nil {
		t.Fatal(err)
	}
	started, unblock := make(chan struct{}), make(chan struct{})
	c.mu.Lock()
	c.entries["a"].src = Source{Loader: func() (*graph.Graph, *ch.Hierarchy, error) {
		close(started)
		<-unblock
		return loaderFor(2)()
	}}
	c.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		_, err := c.Reload("a")
		done <- err
	}()
	<-started
	// b does not fit beside a, and a is idle: installing b evicts a mid-reload.
	if _, err := c.Load("b", Source{Loader: loaderFor(3)}); err != nil {
		t.Fatal(err)
	}
	close(unblock)
	if err := <-done; err == nil || !strings.Contains(err.Error(), "evicted during its reload") {
		t.Fatalf("reload of an entry evicted mid-build: %v", err)
	}
	if st := row(t, c, "a"); st.State != "evicted" || st.Pending || st.Gen != 0 {
		t.Fatalf("after the discarded reload: %+v, want evicted and idle", st)
	}
	if _, _, err := c.Acquire("a"); err == nil {
		t.Fatal("the discarded generation serves")
	}
	if n := c.Counter(cSwaps); n != 2 {
		t.Fatalf("%d swaps, want 2 (a's load and b's): the discarded generation was installed", n)
	}
	if gen, err := c.Load("a", Source{Loader: loaderFor(1)}); err != nil || gen != 2 {
		t.Fatalf("load after the discard: gen %d, %v; want gen 2", gen, err)
	}
}

// Unloading a graph no query holds takes it all the way to evicted before
// Unload returns, so loading it again straight away succeeds.
func TestUnloadIdleThenLoadAgain(t *testing.T) {
	c := testCatalog(t, Config{})
	for gen := uint64(1); gen <= 3; gen++ {
		if _, err := c.Load("g", Source{Loader: loaderFor(gen)}); err != nil {
			t.Fatalf("load %d: %v", gen, err)
		}
		gn, release, err := c.Acquire("g")
		if err != nil || gn.Gen != gen {
			t.Fatalf("acquired %+v, %v; want gen %d", gn, err, gen)
		}
		release()
		if err := c.Unload("g"); err != nil {
			t.Fatal(err)
		}
		if st := c.Status()[0]; st.State != "evicted" {
			t.Fatalf("idle unload left %+v, want evicted", st)
		}
		select {
		case <-gn.Drained():
		default:
			t.Fatalf("gen %d not drained when Unload returned", gen)
		}
	}
}

func TestSnapshotAndSpecSources(t *testing.T) {
	dir := t.TempDir()
	g := gen.Random(300, 1200, 256, gen.UWD, 4)
	h := ch.BuildKruskal(g)
	snap := filepath.Join(dir, "g.snap")
	if err := snapshot.WriteFile(snap, g, h); err != nil {
		t.Fatal(err)
	}
	c := testCatalog(t, Config{})
	if _, err := c.Load("snap", Source{Snapshot: snap}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load("spec", Source{Spec: cli.Spec{Class: "rand", LogN: 8, LogC: 8, Seed: 5}}); err != nil {
		t.Fatal(err)
	}
	// The empty source must fail with a clear error, not hang or panic.
	if _, err := c.Load("empty", Source{}); err == nil || !strings.Contains(err.Error(), "empty source") {
		t.Fatalf("empty source: %v", err)
	}
	gs, release, err := c.Acquire("snap")
	if err != nil {
		t.Fatal(err)
	}
	if gs.G.Fingerprint() != g.Fingerprint() {
		t.Fatal("snapshot source loaded a different graph")
	}
	release()
}

func TestStatsSnapshotShape(t *testing.T) {
	c := testCatalog(t, Config{MemoryBudget: 1 << 30})
	if _, err := c.Load("g", Source{Loader: loaderFor(1)}); err != nil {
		t.Fatal(err)
	}
	st := c.StatsSnapshot()
	for _, key := range []string{cLoads, cSwaps, cEvictions, "graphs", "ready", "ready_bytes", "memory_budget"} {
		if _, ok := st[key]; !ok {
			t.Errorf("stats missing %q", key)
		}
	}
	if st["ready"].(int) != 1 || st["ready_bytes"].(int64) <= 0 {
		t.Fatalf("stats %+v", st)
	}
}

// A graph's cached answers live and die with its service. A reload starts with
// an empty cache while the graph's engine keeps counting; an unload drops the
// cache at once, though a query still holds the last generation, and so does
// an eviction: neither AccountedBytes nor Status counts a vector of the graph.
func TestGraphCacheLivesAndDiesWithItsService(t *testing.T) {
	probe := gen.Random(400, 1600, 1<<10, gen.UWD, 1)
	one := probe.MemoryBytes() + ch.BuildKruskal(probe).ComputeStats().CHBytes
	c := testCatalog(t, Config{MemoryBudget: 2*one + one/2, Engine: engine.Config{CacheEntries: 16}})
	serve := func(name string, seed uint64) *Generation {
		t.Helper()
		if _, err := c.Load(name, Source{Loader: loaderFor(seed)}); err != nil {
			t.Fatal(err)
		}
		gn, release, err := c.Acquire(name)
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		checkDistances(t, gn, gn.G)
		if row(t, c, name).CacheBytes == 0 {
			t.Fatalf("%s: nothing cached after three solves", name)
		}
		return gn
	}
	// accounted is what AccountedBytes must be: the heap of every generation
	// held, and the cache of the serving graphs alone.
	accounted := func(held ...*Generation) {
		t.Helper()
		var want int64
		for _, gn := range held {
			want += gn.HeapBytes()
		}
		for _, gn := range c.Serving() {
			want += gn.Engine.CacheBytes()
		}
		if got := c.AccountedBytes(); got != want {
			t.Fatalf("AccountedBytes %d, want %d", got, want)
		}
	}

	a1 := serve("a", 1)
	solves := a1.Engine.Counter("solves")
	if _, err := c.Reload("a"); err != nil {
		t.Fatal(err)
	}
	a2, release, err := c.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	if row(t, c, "a").CacheBytes != 0 || a2.Engine.CacheBytes() != 0 || a2.Engine.Counter("solves") != solves {
		t.Fatalf("after a reload: %d bytes cached, %d solves (%d before)", row(t, c, "a").CacheBytes, a2.Engine.Counter("solves"), solves)
	}
	checkDistances(t, a2, a2.G)
	if a2.Engine.Counter("solves") != solves+3 {
		t.Fatalf("%d solves after three on the reloaded graph, %d before", a2.Engine.Counter("solves"), solves)
	}

	b := serve("b", 2)
	if err := c.Unload("a"); err != nil { // a2 is still held
		t.Fatal(err)
	}
	if st := row(t, c, "a"); st.State != "draining" || st.CacheBytes != 0 || a2.Engine.CacheBytes() != 0 {
		t.Fatalf("unloaded while held: %+v, engine holds %d bytes", st, a2.Engine.CacheBytes())
	}
	accounted(a2, b)
	release()

	serve("c", 3)
	serve("d", 4) // evicts b, the least recently used
	if st := row(t, c, "b"); st.State != "evicted" || st.CacheBytes != 0 || b.Engine.CacheBytes() != 0 {
		t.Fatalf("evicted: %+v, engine holds %d bytes", st, b.Engine.CacheBytes())
	}
	accounted(c.Serving()...)
}
