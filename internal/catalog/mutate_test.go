package catalog

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ch"
	"repro/internal/dijkstra"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/solver"
)

// weightBatch builds a weight-only batch over the first k distinct edge slots
// of g, bumping each weight by delta (clamped into the legal range).
func weightBatch(g *graph.Graph, k int, delta uint32) *mutate.Batch {
	seen := make(map[[2]int32]bool)
	var ops []mutate.Op
	for _, e := range g.Edges() {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		if seen[[2]int32{u, v}] {
			continue
		}
		seen[[2]int32{u, v}] = true
		w := e.W + delta
		if w > graph.MaxWeight {
			w = e.W - delta
		}
		ops = append(ops, mutate.Op{Op: mutate.OpSetWeight, U: e.U, V: e.V, W: w})
		if len(ops) == k {
			break
		}
	}
	return &mutate.Batch{Ops: ops}
}

// sharesTopology reports whether a and b share CSR offsets storage, the mark
// of a weight-only overlay.
func sharesTopology(a, b *graph.Graph) bool { return &a.AdjOffsets()[0] == &b.AdjOffsets()[0] }

// checkDistances verifies the serving generation's engine agrees with a
// Dijkstra run on want for a few sources.
func checkDistances(t *testing.T, gn *Generation, want *graph.Graph) {
	t.Helper()
	for _, src := range []int32{0, 7, 123} {
		res, _, err := gn.Engine.Query(context.Background(), engine.Request{Sources: []int32{src}})
		if err != nil {
			t.Fatal(err)
		}
		exp := dijkstra.SSSP(want, src)
		for v := range exp {
			if res.At(v) != exp[v] {
				t.Fatalf("gen %d source %d: dist[%d]=%d, want %d", gn.Gen, src, v, res.At(v), exp[v])
			}
		}
	}
}

func TestMutateIncremental(t *testing.T) {
	c := testCatalog(t, Config{})
	if _, err := c.Load("g", Source{Loader: loaderFor(7)}); err != nil {
		t.Fatal(err)
	}
	g1, rel1, err := c.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	base := g1.G
	rel1()

	b := weightBatch(base, 4, 3)
	res, err := c.Mutate("g", b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gen != 2 || !res.Aliased {
		t.Fatalf("mutate result %+v, want aliased gen 2", res)
	}

	g2, rel2, err := c.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer rel2()
	if g2.Gen != 2 || g2.ParentGen != 1 || g2.DeltaSize != len(b.Ops) {
		t.Fatalf("generation lineage gen=%d parent=%d delta=%d, want 2/1/%d",
			g2.Gen, g2.ParentGen, g2.DeltaSize, len(b.Ops))
	}
	if !sharesTopology(g2.G, base) {
		t.Fatal("weight-only mutation should alias the parent's structure arrays")
	}
	want, err := mutate.ReferenceApply(base, b)
	if err != nil {
		t.Fatal(err)
	}
	checkDistances(t, g2, want)

	if c.Counter(cMutations) != 1 {
		t.Fatalf("counters: mutations=%d", c.Counter(cMutations))
	}
	st := c.Status()
	if st[0].ParentGen != 1 || st[0].DeltaSize != len(b.Ops) || st[0].Deltas != 1 {
		t.Fatalf("status lineage %+v", st[0])
	}
}

func TestMutateStructuralNotAliased(t *testing.T) {
	c := testCatalog(t, Config{})
	if _, err := c.Load("g", Source{Loader: loaderFor(8)}); err != nil {
		t.Fatal(err)
	}
	g1, rel1, err := c.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	base := g1.G
	rel1()

	b := &mutate.Batch{Ops: []mutate.Op{{Op: mutate.OpInsert, U: 1, V: 399, W: 2}}}
	res, err := c.Mutate("g", b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aliased {
		t.Fatalf("structural mutation result %+v, want non-aliased", res)
	}
	g2, rel2, err := c.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer rel2()
	want, err := mutate.ReferenceApply(base, b)
	if err != nil {
		t.Fatal(err)
	}
	checkDistances(t, g2, want)

	// The parent holds no pin from the child: it must drain promptly.
	select {
	case <-g1.Drained():
	case <-time.After(waitFor):
		t.Fatal("parent generation never drained after structural mutation")
	}
}

// A batch touching 40% of the vertices on a lineage that has demanded its
// hierarchy is an overlay like any other: the generation it makes is serving
// when Mutate returns, has no hierarchy and is charged for its graph alone,
// answers as Dijkstra on the reference replay does, and has the answers its
// parent was asked for; its first solver=thorup adds one build and one log line.
func TestWideMutationOnDemandedLineage(t *testing.T) {
	var sink logSink
	c := testCatalog(t, Config{Engine: engine.Config{CacheEntries: 16}, Logf: sink.logf})
	if _, err := c.Load("g", Source{Loader: lazyLoader(9)}); err != nil {
		t.Fatal(err)
	}
	base, _, _ := lazyLoader(9)()
	demand(t, c, "g")
	g1, rel1, err := c.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []int32{0, 123} { // asked for on the parent
		if _, _, err := g1.Engine.Query(context.Background(), engine.Request{Sources: []int32{src}}); err != nil {
			t.Fatal(err)
		}
	}
	rel1()

	// Inserts pairing up vertices 0..159: 160 of 400 touched.
	wide := &mutate.Batch{}
	for u := int32(0); u < 160; u += 2 {
		wide.Ops = append(wide.Ops, mutate.Op{Op: mutate.OpInsert, U: u, V: u + 1, W: 3})
	}
	res, err := c.Mutate("g", wide)
	if err != nil || res.Gen != 2 || res.Touched != 160 {
		t.Fatalf("wide mutate: %+v, %v; want gen 2 with 160 touched", res, err)
	}
	g2, rel2, err := c.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer rel2()
	st := row(t, c, "g")
	if st.State != "ready" || st.Pending || st.Gen != 2 || st.ParentGen != 1 || st.Hierarchy != "unbuilt" || st.Bytes != g2.G.MemoryBytes() {
		t.Fatalf("after the wide batch: %+v, want gen 2 serving without a hierarchy, charged %d bytes", st, g2.G.MemoryBytes())
	}
	if n := g2.Engine.Counter("inherited_exact") + g2.Engine.Counter("inherited_stale"); n < 2 {
		t.Fatalf("%d answers inherited, want the 2 asked for", n)
	}
	want, err := mutate.ReferenceApply(base, wide)
	if err != nil {
		t.Fatal(err)
	}
	checkDistances(t, g2, want)
	// solver=thorup from a source the cache does not hold (7's answer came
	// along), over a hierarchy built for gen 2
	res2, _, err := g2.Engine.Query(context.Background(), engine.Request{Sources: []int32{11}, Solver: "thorup"})
	if err != nil || res2.Solver != "thorup" {
		t.Fatalf("solver=thorup on gen 2: %+v, %v", res2, err)
	}
	for v, d := range dijkstra.SSSP(want, 11) {
		if res2.At(v) != d {
			t.Fatalf("solver=thorup on gen 2: d[%d] = %d, want %d", v, res2.At(v), d)
		}
	}
	if n, lines := c.Counter(cHierarchyBuilds), sink.count("catalog: hierarchy for g gen 2 built on demand"); n != 2 || lines != 1 {
		t.Fatalf("%d hierarchy builds, %d gen 2 log lines; want 2 (one a generation) and 1", n, lines)
	}
	if h, state, _ := g2.Hierarchy(); state != "built" || h.Graph() != g2.G || h.Validate() != nil {
		t.Fatalf("gen 2 after solver=thorup: hierarchy %s over %p (graph %p)", state, h.Graph(), g2.G)
	}
}

func TestReloadReplaysDeltaLog(t *testing.T) {
	c := testCatalog(t, Config{})
	if _, err := c.Load("g", Source{Loader: loaderFor(10)}); err != nil {
		t.Fatal(err)
	}
	g1, rel1, err := c.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	base := g1.G
	rel1()

	b1 := weightBatch(base, 3, 2)
	if _, err := c.Mutate("g", b1); err != nil {
		t.Fatal(err)
	}
	g2, rel2, err := c.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	b2 := &mutate.Batch{Ops: []mutate.Op{{Op: mutate.OpInsert, U: 0, V: 250, W: 1}}}
	rel2()
	if _, err := c.Mutate("g", b2); err != nil {
		t.Fatal(err)
	}
	_ = g2

	// A reload rebuilds from the source and must replay both deltas: the
	// rebuilt generation serves the mutated graph, not the base one.
	gen, err := c.Reload("g")
	if err != nil {
		t.Fatal(err)
	}
	if gen != 4 {
		t.Fatalf("reload installed gen %d, want 4", gen)
	}
	g4, rel4, err := c.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer rel4()
	if g4.Gen != 4 || g4.ParentGen != 0 {
		t.Fatalf("rebuilt generation gen=%d parent=%d, want 4/0", g4.Gen, g4.ParentGen)
	}
	want, err := mutate.ReferenceApply(base, b1, b2)
	if err != nil {
		t.Fatal(err)
	}
	checkDistances(t, g4, want)
	st := c.Status()
	if st[0].Deltas != 2 {
		t.Fatalf("delta log length %d after reload, want 2 (log survives reloads)", st[0].Deltas)
	}
}

func TestMutateErrors(t *testing.T) {
	c := testCatalog(t, Config{})
	ok := &mutate.Batch{Ops: []mutate.Op{{Op: mutate.OpInsert, U: 0, V: 1, W: 1}}}

	if _, err := c.Mutate("nope", ok); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("want ErrUnknownGraph, got %v", err)
	}

	// A load in flight conflicts.
	finish := blockedLoad(t, c, "g")
	if _, err := c.Mutate("g", ok); !errors.Is(err, ErrBusy) {
		t.Fatalf("want ErrBusy mid-load, got %v", err)
	}
	if _, err := finish(); err != nil {
		t.Fatal(err)
	}

	// Invalid batches surface mutate.ErrInvalid and change nothing.
	bad := &mutate.Batch{Ops: []mutate.Op{{Op: mutate.OpSetWeight, U: 0, V: 1, W: 0}}}
	if _, err := c.Mutate("g", bad); !errors.Is(err, mutate.ErrInvalid) {
		t.Fatalf("want ErrInvalid, got %v", err)
	}
	if g, rel, err := c.Acquire("g"); err != nil || g.Gen != 1 {
		t.Fatalf("rejected mutation must not advance the generation: gen=%v err=%v", g, err)
	} else {
		rel()
	}

	// Not-ready graphs conflict with NotReadyError.
	if err := c.Unload("g"); err != nil {
		t.Fatal(err)
	}
	if st := c.Status()[0]; st.State != "evicted" {
		t.Fatalf("idle unload left %+v, want evicted", st)
	}
	var nre *NotReadyError
	if _, err := c.Mutate("g", ok); !errors.As(err, &nre) {
		t.Fatalf("want NotReadyError, got %v", err)
	}
}

// TestMutateAliasedMmapChain chains weight-only mutations on top of an
// mmap-served snapshot. The first child copies the offsets and targets it
// would read out of the mapping, so the mapped root drains (and unmaps) the
// moment the write retires it; the next child shares the heap arrays of its
// parent, which drains at once as well. The chain head answers as Dijkstra on
// the reference replay, and so does a reload that maps the file again.
func TestMutateAliasedMmapChain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.snap")
	base := writeMappedSnap(t, path, 300, 42) // a heap copy: the mapping goes with g1
	requireCatalogMmap(t, path)

	c := testCatalog(t, Config{MMap: true})
	if _, err := c.Load("m", Source{Snapshot: path}); err != nil {
		t.Fatal(err)
	}
	g1, rel1, err := c.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	rel1()
	if !g1.Mapped() {
		t.Fatal("the snapshot did not map")
	}
	mapped := g1.G

	b1 := weightBatch(base, 3, 2)
	if res, err := c.Mutate("m", b1); err != nil || !res.Aliased {
		t.Fatalf("weight-only write: %+v, %v; want aliased", res, err)
	}
	g2, rel2, err := c.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	b2 := weightBatch(g2.G, 3, 4)
	rel2()
	if _, err := c.Mutate("m", b2); err != nil {
		t.Fatal(err)
	}
	g3, rel3, err := c.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	for i, gn := range []*Generation{g1, g2} {
		select {
		case <-gn.Drained():
		default:
			t.Fatalf("ancestor %d (gen %d) still undrained under a serving descendant", i, gn.Gen)
		}
	}
	if g2.Mapped() || sharesTopology(g2.G, mapped) || sharesTopology(g3.G, mapped) {
		t.Fatal("a child still reads its topology out of the mapped root")
	}
	if !sharesTopology(g3.G, g2.G) {
		t.Fatal("a weight-only child of a heap parent should share its arrays")
	}
	want, err := mutate.ReferenceApply(base, b1, b2)
	if err != nil {
		t.Fatal(err)
	}
	checkDistances(t, g3, want)
	rel3()

	// A reload maps the file again and replays the log over it.
	if _, err := c.Reload("m"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-g3.Drained():
	case <-time.After(waitFor):
		t.Fatalf("chain head (gen %d) never drained", g3.Gen)
	}
	g4, rel4, err := c.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	defer rel4()
	checkDistances(t, g4, want)
}

// Two hundred weight-only writes off a mapped snapshot, each generation
// answering a targeted query (so it builds its s-t index too): every retired
// generation drains as its write installs the next, and the lineage holds one
// generation's storage, not one per write. (When each child read its topology
// out of the mapping, it pinned its parent, and that parent its own: every
// generation stayed, with its weights and index, and the heap grew by some
// 300 MB that no budget counted.)
func TestMappedLineageDrainsEveryGeneration(t *testing.T) {
	const writes = 200
	path := filepath.Join(t.TempDir(), "lineage.snap")
	base := writeMappedSnap(t, path, 1<<14, 3)
	requireCatalogMmap(t, path)
	c := testCatalog(t, Config{MMap: true, Logf: func(string, ...any) {}})
	if _, err := c.Load("m", Source{Snapshot: path}); err != nil {
		t.Fatal(err)
	}
	// Each write reweighs three edges of vertex 0, and each generation is
	// asked for the distance to its lightest neighbour.
	ts, ws := base.Neighbors(0)
	near := ts[slices.Index(ws, slices.Min(ws))]
	reweigh := func(i int) *mutate.Batch {
		b := &mutate.Batch{}
		for j, v := range ts[:3] {
			b.Ops = append(b.Ops, mutate.Op{Op: mutate.OpSetWeight, U: 0, V: v, W: ws[j] + uint32((i+j)%7)})
		}
		return b
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	var batches []*mutate.Batch
	for i := range writes {
		gn, rel, err := c.Acquire("m")
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := gn.Engine.Query(context.Background(), engine.Request{Sources: []int32{0}, Targets: []int32{near}})
		if err != nil || i%40 == 0 && res.Target(0, near) != dijkstra.SSSP(gn.G, 0)[near] {
			t.Fatalf("gen %d: targeted answer %+v, %v", gn.Gen, res, err)
		}
		if _, ok := gn.Built()[solver.KindSTIndex]; !ok {
			t.Fatalf("gen %d built %v, want its s-t index", gn.Gen, gn.Built())
		}
		rel()
		b := reweigh(i)
		if _, err := c.Mutate("m", b); err != nil {
			t.Fatal(err)
		}
		batches = append(batches, b)
		select {
		case <-gn.Drained():
		case <-time.After(waitFor):
			t.Fatalf("write %d: gen %d never drained", i, gn.Gen)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d writes grew the heap by %d KiB", writes, grew>>10)
	if grew >= 16<<20 {
		t.Fatalf("%d writes grew the heap by %d MiB", writes, grew>>20)
	}
	if st := row(t, c, "m"); st.MappedBytes != 0 || st.HeapBytes == 0 {
		t.Fatalf("head of a heap lineage: %+v", st)
	}
	gn, rel, err := c.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	want, err := mutate.ReferenceApply(base, batches...)
	if err != nil {
		t.Fatal(err)
	}
	checkDistances(t, gn, want)
}

// TestMutateUnderLoad streams queries while a chain of mutations swaps
// generations; every response must be exactly consistent with the generation
// that served it, and every retired generation must drain.
func TestMutateUnderLoad(t *testing.T) {
	c := testCatalog(t, Config{})
	if _, err := c.Load("g", Source{Loader: loaderFor(12)}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var queries atomic.Int64
	var firstErr error
	var mu sync.Mutex
	fail := func(format string, args ...any) {
		mu.Lock()
		if firstErr == nil {
			firstErr = fmt.Errorf(format, args...)
		}
		mu.Unlock()
	}
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				gn, rel, err := c.Acquire("g")
				if err != nil {
					fail("acquire: %v", err)
					return
				}
				src := int32((q*131 + i*17) % gn.G.NumVertices())
				res, _, err := gn.Engine.Query(context.Background(), engine.Request{Sources: []int32{src}})
				if err != nil {
					rel()
					fail("query: %v", err)
					return
				}
				exp := dijkstra.SSSP(gn.G, src)
				for v := range exp {
					if res.At(v) != exp[v] {
						rel()
						fail("gen %d source %d: dist[%d]=%d want %d", gn.Gen, src, v, res.At(v), exp[v])
						return
					}
				}
				rel()
				queries.Add(1)
			}
		}(q)
	}

	var retired []*Generation
	for r := 0; r < 8; r++ {
		gn, rel, err := c.Acquire("g")
		if err != nil {
			t.Fatal(err)
		}
		b := weightBatch(gn.G, 3, uint32(r+1))
		retired = append(retired, gn)
		rel()
		if _, err := c.Mutate("g", b); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for _, gn := range retired {
		select {
		case <-gn.Drained():
		case <-time.After(waitFor):
			t.Fatalf("generation %d never drained (in-flight %d)", gn.Gen, gn.InFlight())
		}
	}
	if queries.Load() == 0 {
		t.Fatal("no queries completed under mutation load")
	}
	t.Logf("mutate under load: %d queries across 8 mutations", queries.Load())
}

// A mutation hands the child generation every answer its parent's cache holds —
// exact, or pending what the batch did to it — and says so in its log line; a
// reload starts empty.
func TestMutateCarriesAnswersOnIncrementalPathOnly(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	mutatedLine := func() string {
		mu.Lock()
		defer mu.Unlock()
		for i := len(lines) - 1; i >= 0; i-- {
			if strings.Contains(lines[i], "mutated from gen") {
				return lines[i]
			}
		}
		return ""
	}
	sources := []int32{3, 90, 250}
	// ask queries every source on the current generation and holds the answers
	// to Dijkstra on want; it returns how many came from the cache.
	ask := func(c *Catalog, want *graph.Graph) (gn *Generation, cached int) {
		t.Helper()
		gn, rel, err := c.Acquire("g")
		if err != nil {
			t.Fatal(err)
		}
		defer rel()
		for _, src := range sources {
			res, via, err := gn.Engine.Query(context.Background(), engine.Request{Sources: []int32{src}})
			if err != nil {
				t.Fatal(err)
			}
			if via == engine.ViaCache {
				cached++
			}
			exp := dijkstra.SSSP(want, src)
			for v := range exp {
				if res.At(v) != exp[v] {
					t.Fatalf("gen %d source %d (via %v): dist[%d]=%d, want %d", gn.Gen, src, via, v, res.At(v), exp[v])
				}
			}
		}
		return gn, cached
	}
	// inherited is what the inherited_* counters, which count over every
	// generation, gained since the last call.
	var last [3]int64
	inherited := func(gn *Generation) (d [3]int64) {
		now := [3]int64{gn.Engine.Counter("inherited_exact"), gn.Engine.Counter("inherited_stale"), gn.Engine.Counter("inherited_unread")}
		for i := range d {
			d[i] = now[i] - last[i]
		}
		last = now
		return d
	}

	c := testCatalog(t, Config{Engine: engine.Config{CacheEntries: 16}, Logf: logf})
	if _, err := c.Load("g", Source{Loader: lazyLoader(5)}); err != nil {
		t.Fatal(err)
	}
	base, _, _ := lazyLoader(5)()
	ask(c, base)

	// A self-loop changes no distance: everything crosses as it is.
	loop := &mutate.Batch{Ops: []mutate.Op{{Op: mutate.OpInsert, U: 8, V: 8, W: 1}}}
	if _, err := c.Mutate("g", loop); err != nil {
		t.Fatal(err)
	}
	want, _ := mutate.ReferenceApply(base, loop)
	g2, cached := ask(c, want)
	if got := inherited(g2); got != [3]int64{3, 0, 0} || cached != 3 {
		t.Fatalf("after a self-loop: inherited %v, %d of 3 answered from the cache", got, cached)
	}
	if line := mutatedLine(); !strings.Contains(line, "answers inherited 3 exact + 0 pending, 0 unread") {
		t.Fatalf("log line %q", line)
	}

	// Cut the first arc of a shortest path from 3 (tight for 3 at least) and
	// hang a far vertex one step from 90 (an improvement for 90 at least).
	d3, d90 := dijkstra.SSSP(want, 3), dijkstra.SSSP(want, 90)
	var cut, far int32 = -1, 0
	ts, ws := want.Neighbors(3)
	for i, v := range ts {
		if d3[v] == int64(ws[i]) && v != 3 {
			cut = v
		}
	}
	for v := range d90 {
		if d90[v] < graph.Inf && d90[v] > d90[far] {
			far = int32(v)
		}
	}
	mixed := &mutate.Batch{Ops: []mutate.Op{{Op: mutate.OpDelete, U: 3, V: cut}, {Op: mutate.OpInsert, U: 90, V: far, W: 1}}}
	if _, err := c.Mutate("g", mixed); err != nil {
		t.Fatal(err)
	}
	want, _ = mutate.ReferenceApply(want, mixed)
	g3, cached := ask(c, want)
	got := inherited(g3)
	over := g3.Engine.Counter("repair_budget_exceeded") // a repair past it is a solve
	if got[0]+got[1] != 3 || got[1] < 2 || got[2] != 0 || int64(cached)+over != 3 ||
		g3.Engine.Counter("resumed")+over != got[1] || g3.Engine.Counter("repaired") == 0 {
		t.Fatalf("after a cut and a shortcut: inherited %v, %d from the cache, %d resumed, %d repaired, %d over budget",
			got, cached, g3.Engine.Counter("resumed"), g3.Engine.Counter("repaired"), over)
	}
	if line := mutatedLine(); !strings.Contains(line, fmt.Sprintf("answers inherited %d exact + %d pending, %d unread", got[0], got[1], got[2])) {
		t.Fatalf("log line %q, counters %v", line, got)
	}

	// A reload replays the log over the source and starts with an empty cache.
	if gen, err := c.Reload("g"); err != nil || gen != 4 {
		t.Fatalf("reload: gen %d, %v; want gen 4", gen, err)
	}
	if g4, cached := ask(c, want); cached != 0 {
		t.Fatalf("after a reload: inherited %v, %d answered from the cache", inherited(g4), cached)
	} else if got := inherited(g4); got != [3]int64{} {
		t.Fatalf("a reload inherited %v", got)
	}
}

// A weight-only child of a mapped generation holds its own copy of the
// offsets and targets: it is charged its whole graph as heap and nothing as
// mapped, in HeapBytes, /graphs and the budget (AccountedBytes adds the
// write's delta log), and its parent, with the mapping, is gone at once.
func TestMappedChildChargesItsWholeGraphAsHeap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "child.snap")
	base := writeMappedSnap(t, path, 1000, 7)
	requireCatalogMmap(t, path)

	c := testCatalog(t, Config{MMap: true, Engine: engine.Config{CacheEntries: 4}})
	if _, err := c.Load("m", Source{Snapshot: path}); err != nil {
		t.Fatal(err)
	}
	parent, rel, err := c.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	rel()
	if !parent.Mapped() || parent.HeapBytes() != 0 || parent.MappedBytes() == 0 {
		t.Fatalf("parent: mapped=%v heap=%d, want a mapped generation with no heap", parent.Mapped(), parent.HeapBytes())
	}
	mapped := parent.G
	b := weightBatch(base, 1, 3)
	res, err := c.Mutate("m", b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aliased {
		t.Fatal("a set_weight batch should report aliased")
	}
	select {
	case <-parent.Drained():
	default:
		t.Fatal("the mapped parent is still undrained under its child")
	}
	child, rel, err := c.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	if child.Mapped() || sharesTopology(child.G, mapped) {
		t.Fatal("the child reads its topology out of its parent's mapping")
	}
	want, err := mutate.ReferenceApply(base, b)
	if err != nil {
		t.Fatal(err)
	}
	checkDistances(t, child, want)
	wantHeap := child.G.MemoryBytes()
	if child.HeapBytes() != wantHeap || child.MappedBytes() != 0 {
		t.Fatalf("child heap=%d mapped=%d, want heap=%d (its graph) mapped=0", child.HeapBytes(), child.MappedBytes(), wantHeap)
	}
	st := c.Status()[0]
	cache := child.Engine.CacheBytes()
	if st.HeapBytes != wantHeap || st.MappedBytes != 0 || st.Bytes != wantHeap || st.CacheBytes != cache || cache == 0 {
		t.Fatalf("/graphs row heap=%d mapped=%d bytes=%d cache=%d (engine %d)", st.HeapBytes, st.MappedBytes, st.Bytes, st.CacheBytes, cache)
	}
	if got, log := c.AccountedBytes(), int64(len(b.Ops))*opBytes; got != wantHeap+cache+log {
		t.Fatalf("AccountedBytes %d, want the child's heap %d + cache %d + delta log %d", got, wantHeap, cache, log)
	}
}

// A wide batch on a full cache holds the graph's write slot for a few
// milliseconds: Inherit merges each entry's owed changes with the batch's in
// slot order, and a repair finds a slot by binary search. (A scan of the owed
// list for each change of the batch made this write take seconds.) The
// entries it carries answer as Dijkstra on the reference replay does.
func TestWideBatchOnFullCache(t *testing.T) {
	const n, entries, ops = 1 << 14, 144, 4000
	base := gen.Random(n, 4*n, 1<<10, gen.UWD, 3)
	c := testCatalog(t, Config{Engine: engine.Config{CacheEntries: entries}})
	if _, err := c.Load("g", Source{Loader: func() (*graph.Graph, *ch.Hierarchy, error) { return base, nil, nil }}); err != nil {
		t.Fatal(err)
	}
	g1, rel1, err := c.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	for src := range int32(entries) {
		for range 2 { // read twice: answers read once would hold only a fifth of the cache
			if _, _, err := g1.Engine.Query(context.Background(), engine.Request{Sources: []int32{src * 7}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	rel1()

	// Every other slot heavier, the rest lighter.
	b := weightBatch(base, ops, 300)
	for i := 1; i < len(b.Ops); i += 2 {
		b.Ops[i].W = max(1, (b.Ops[i].W-300)/2)
	}
	start := time.Now()
	if _, err := c.Mutate("g", b); err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	g2, rel2, err := c.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer rel2()
	carried := g2.Engine.Counter("inherited_exact") + g2.Engine.Counter("inherited_stale")
	t.Logf("%d ops on %d cached answers: %d carried, write took %v", ops, entries, carried, took)
	if carried != entries || took > time.Second/2 {
		t.Fatalf("%d of %d answers carried, the write took %v", carried, entries, took)
	}
	want, err := mutate.ReferenceApply(base, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []int32{0, 7 * 71, 7 * 143} {
		res, _, err := g2.Engine.Query(context.Background(), engine.Request{Sources: []int32{src}})
		if err != nil {
			t.Fatal(err)
		}
		for v, d := range dijkstra.SSSP(want, src) {
			if res.At(v) != d {
				t.Fatalf("source %d: d[%d] = %d, want %d", src, v, res.At(v), d)
			}
		}
	}
}

// Every generation runs its loops on one exec runtime: a load, its reload, a
// mutation's child and a second graph all share the token bucket that
// Config.QueryWorkers sizes.
func TestGenerationsShareOneRuntime(t *testing.T) {
	c := testCatalog(t, Config{})
	runtimeOf := func(name string) any {
		t.Helper()
		gn, release, err := c.Acquire(name)
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		return gn.in.RT
	}
	if _, err := c.Load("g", Source{Loader: loaderFor(7)}); err != nil {
		t.Fatal(err)
	}
	first := runtimeOf("g")
	if _, err := c.Reload("g"); err != nil {
		t.Fatal(err)
	}
	reloaded := runtimeOf("g")
	gn, release, err := c.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	b := weightBatch(gn.G, 2, 1)
	release()
	if _, err := c.Mutate("g", b); err != nil {
		t.Fatal(err)
	}
	mutated := runtimeOf("g")
	if _, err := c.Load("h", Source{Loader: loaderFor(8)}); err != nil {
		t.Fatal(err)
	}
	second := runtimeOf("h")
	for what, rt := range map[string]any{"reload": reloaded, "mutation": mutated, "second graph": second} {
		if rt != first {
			t.Errorf("%s runs on its own runtime", what)
		}
	}
}

// A reload of a lineage that took a weight-only write over a mapped snapshot
// replays it under the write's storage rule: the generation it installs is a
// heap one, charged its whole graph and nothing mapped, the reload's own
// mapping is closed before the install (nothing maps the file while it
// serves), and it answers as Dijkstra on the reference replay. (It once kept
// the mapping and served the replayed weights beside it, charged nothing.)
func TestReloadOfMappedLineageServesFromTheHeap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "replay.snap")
	base := writeMappedSnap(t, path, 1000, 9)
	requireCatalogMmap(t, path)

	c := testCatalog(t, Config{MMap: true})
	if _, err := c.Load("m", Source{Snapshot: path}); err != nil {
		t.Fatal(err)
	}
	b := weightBatch(base, 3, 2)
	if res, err := c.Mutate("m", b); err != nil || !res.Aliased {
		t.Fatalf("weight-only write: %+v, %v; want aliased", res, err)
	}
	if gen, err := c.Reload("m"); err != nil || gen != 3 {
		t.Fatalf("reload: gen %d, %v; want 3", gen, err)
	}
	gn, rel, err := c.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	if gn.Mapped() || gn.MappedBytes() != 0 || gn.HeapBytes() != gn.G.MemoryBytes() {
		t.Fatalf("reloaded gen: mapped=%v mapped_bytes=%d heap=%d, want a heap generation charged its graph %d",
			gn.Mapped(), gn.MappedBytes(), gn.HeapBytes(), gn.G.MemoryBytes())
	}
	if n, ok := mappingsOf(path); ok && n != 0 {
		t.Fatalf("%d mappings of the snapshot while the reloaded generation serves, want 0", n)
	}
	if st := row(t, c, "m"); st.MappedBytes != 0 || st.HeapBytes != gn.G.MemoryBytes() || st.Deltas != 1 {
		t.Fatalf("/graphs row after the reload: %+v", st)
	}
	want, err := mutate.ReferenceApply(base, b)
	if err != nil {
		t.Fatal(err)
	}
	checkDistances(t, gn, want)
}

// The delta log counts in AccountedBytes, the input of a daemon's
// memory-limit rule, at its ops' in-memory size: each accepted batch raises
// catalog.accounted_bytes by its charge, a rejected one by nothing. The
// memory budget's Bytes leave it out (evicting a generation frees none of
// it), an unload keeps it (a later reload replays it), and a Load of the
// name, a new lineage, drops it.
func TestDeltaLogIsAccounted(t *testing.T) {
	c := testCatalog(t, Config{})
	if _, err := c.Load("g", Source{Loader: loaderFor(10)}); err != nil {
		t.Fatal(err)
	}
	accounted := func() int64 { return c.StatsSnapshot()["accounted_bytes"].(int64) }
	logged := func() int64 { // accounted_bytes beyond what the serving generation holds
		t.Helper()
		gn, rel, err := c.Acquire("g")
		if err != nil {
			t.Fatal(err)
		}
		defer rel()
		if st := row(t, c, "g"); st.Bytes != gn.Bytes() {
			t.Fatalf("/graphs bytes %d, want the generation's %d alone", st.Bytes, gn.Bytes())
		}
		return accounted() - gn.HeapBytes() - gn.Engine.CacheBytes()
	}
	if got := logged(); got != 0 {
		t.Fatalf("a fresh lineage accounts %d log bytes", got)
	}
	gn, rel, err := c.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	base := gn.G
	rel()
	var want int64
	for i, b := range []*mutate.Batch{
		weightBatch(base, 3, 1),
		{Ops: []mutate.Op{{Op: mutate.OpInsert, U: 0, V: 250, W: 1}}},
		{Ops: []mutate.Op{{Op: "bogus", U: 1, V: 2}}}, // rejected
		weightBatch(base, 7, 2),
	} {
		if _, err := c.Mutate("g", b); err == nil {
			want += int64(len(b.Ops)) * opBytes
		} else if !errors.Is(err, mutate.ErrInvalid) {
			t.Fatal(err)
		}
		if got := logged(); got != want {
			t.Fatalf("after batch %d: %d log bytes accounted, want %d", i, got, want)
		}
	}
	if want != 11*opBytes {
		t.Fatalf("%d bytes charged, want 11 ops' worth", want)
	}
	if err := c.Unload("g"); err != nil {
		t.Fatal(err)
	}
	if got := accounted(); got != want {
		t.Fatalf("unloaded: accounted_bytes %d, want the log's %d", got, want)
	}
	if _, err := c.Load("g", Source{Loader: loaderFor(10)}); err != nil {
		t.Fatal(err)
	}
	if got := logged(); got != 0 {
		t.Fatalf("a Load of the name accounts %d log bytes, want 0", got)
	}
}
