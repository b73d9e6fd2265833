package catalog

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
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

// lazyLoader yields loaderFor's graph without a hierarchy, the way a text or
// generator source does.
func lazyLoader(seed uint64) func() (*graph.Graph, *ch.Hierarchy, error) {
	return func() (*graph.Graph, *ch.Hierarchy, error) {
		return gen.Random(400, 1600, 1<<10, gen.UWD, seed), nil, nil
	}
}

// row is name's Status row as it stands.
func row(t *testing.T, c *Catalog, name string) GraphStatus {
	t.Helper()
	for _, st := range c.Status() {
		if st.Name == name {
			return st
		}
	}
	t.Fatalf("%s: no status row; status %+v", name, c.Status())
	return GraphStatus{}
}

// logSink collects a catalog's log lines.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logSink) count(substr string) (n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			n++
		}
	}
	return n
}

// demand runs one solver=thorup query on name's serving generation — the one
// thing that builds a hierarchy — and checks its answer.
func demand(t *testing.T, c *Catalog, name string) {
	t.Helper()
	gn, rel, err := c.Acquire(name)
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	demandOn(t, gn)
}

func demandOn(t *testing.T, gn *Generation) {
	t.Helper()
	res, _, err := gn.Engine.Query(context.Background(), engine.Request{Sources: []int32{7}, Solver: "thorup"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver != "thorup" {
		t.Fatalf("gen %d: solver=thorup answered by %s", gn.Gen, res.Solver)
	}
	for v, want := range dijkstra.SSSP(gn.G, 7) {
		if res.At(v) != want {
			t.Fatalf("gen %d: solver=thorup d[%d] = %d, Dijkstra %d", gn.Gen, v, res.At(v), want)
		}
	}
}

// A load returns ready, and no hierarchy is built on
// the way or by default queries after:
// the generation answers correctly and is charged for the graph alone. The
// first solver=thorup query builds one, in its own call, and the generation
// grows by exactly the hierarchy's bytes; the second builds nothing.
func TestLoadReadyBeforeHierarchy(t *testing.T) {
	c := testCatalog(t, Config{})
	if _, err := c.Load("g", Source{Loader: lazyLoader(3)}); err != nil {
		t.Fatal(err)
	}
	gn, rel, err := c.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	checkDistances(t, gn, gn.G)
	st := row(t, c, "g")
	if st.State != "ready" || st.Hierarchy != "unbuilt" || st.Bytes != gn.G.MemoryBytes() || st.HeapBytes != st.Bytes || c.Counter(cHierarchyBuilds) != 0 {
		t.Fatalf("ready without a hierarchy: %+v (graph is %d bytes), %d builds", st, gn.G.MemoryBytes(), c.Counter(cHierarchyBuilds))
	}

	demandOn(t, gn)
	built, hb := row(t, c, "g"), ch.BuildKruskal(gn.G).Bytes()
	if built.Hierarchy != "built" || built.Bytes != st.Bytes+hb || built.HeapBytes != built.Bytes || built.HierarchyBuildMS <= 0 {
		t.Fatalf("after the demand: %+v, want %d + %d bytes", built, st.Bytes, hb)
	}
	demandOn(t, gn)
	if h, _, _ := gn.Hierarchy(); h.Bytes() != hb || gn.in.Hierarchy() != h || c.Counter(cHierarchyBuilds) != 1 {
		t.Fatalf("hierarchy of %d bytes (want %d), %d builds (want 1)", h.Bytes(), hb, c.Counter(cHierarchyBuilds))
	}
}

// The memory budget is re-checked when a demand build lands, by the request
// that demanded it: two graphs that fit while one has no hierarchy stop fitting
// when it gets one, and the idle one is evicted then, not before.
func TestBudgetRecheckedWhenHierarchyLands(t *testing.T) {
	ga, ha, _ := loaderFor(1)()
	gb, _, _ := lazyLoader(2)()
	hb := ch.BuildKruskal(gb).Bytes()
	c := testCatalog(t, Config{MemoryBudget: ga.MemoryBytes() + ha.Bytes() + gb.MemoryBytes() + hb/2})
	if _, err := c.Load("a", Source{Loader: loaderFor(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load("b", Source{Loader: lazyLoader(2)}); err != nil {
		t.Fatal(err)
	}
	if n := c.Counter(cEvictions); n != 0 {
		t.Fatalf("%d evictions with b's hierarchy unbuilt", n)
	}
	demand(t, c, "b")
	// builtOnDemand evicts before the query that built returns.
	if n := c.Counter(cEvictions); n != 1 {
		t.Fatalf("%d evictions after b's hierarchy landed, want 1", n)
	}
	if st := row(t, c, "a"); st.State != "evicted" {
		t.Fatalf("a not evicted: %+v", st)
	}
	if st := row(t, c, "b"); st.State != "ready" || st.Hierarchy != "built" {
		t.Fatalf("b should have survived: %+v", st)
	}
}

// The s-t index a generation's first targeted query builds is charged the
// same way: b fits the budget until a /dist-shaped query on it lands 8 bytes
// an arc, and the build's own request evicts the idle a.
func TestBudgetRecheckedWhenSTIndexLands(t *testing.T) {
	ga, ha, _ := loaderFor(1)()
	gb, _, _ := lazyLoader(2)()
	xb := dijkstra.NewSTIndex(gb, nil).Bytes()
	c := testCatalog(t, Config{MemoryBudget: ga.MemoryBytes() + ha.Bytes() + gb.MemoryBytes() + xb/2})
	for i, load := range []func() (*graph.Graph, *ch.Hierarchy, error){loaderFor(1), lazyLoader(2)} {
		name := []string{"a", "b"}[i]
		if _, err := c.Load(name, Source{Loader: load}); err != nil {
			t.Fatal(err)
		}
	}
	gn, rel, err := c.Acquire("b")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := gn.Engine.Query(context.Background(), engine.Request{Sources: []int32{7}}); err != nil {
		t.Fatal(err)
	}
	if n := c.Counter(cEvictions); n != 0 || len(gn.Built()) != 0 {
		t.Fatalf("%d evictions, built %v, after a full-vector query on b", n, gn.Built())
	}
	ts, ws := gb.Neighbors(3)
	near := ts[slices.Index(ws, slices.Min(ws))] // inside the search budget
	res, _, err := gn.Engine.Query(context.Background(), engine.Request{Sources: []int32{3}, Targets: []int32{near}})
	rel()
	if err != nil || res.Solver != "bidirectional" || res.Target(0, near) != dijkstra.SSSP(gb, 3)[near] {
		t.Fatalf("targeted query on b: %+v, %v", res, err)
	}
	if n := c.Counter(cEvictions); n != 1 {
		t.Fatalf("%d evictions after b's s-t index landed, want 1", n)
	}
	if st := row(t, c, "a"); st.State != "evicted" {
		t.Fatalf("a not evicted: %+v", st)
	}
	if st := row(t, c, "b"); st.State != "ready" || st.HeapBytes != gb.MemoryBytes()+xb {
		t.Fatalf("b should have survived, charged %d + %d: %+v", gb.MemoryBytes(), xb, st)
	}
}

// A demand build on a generation that has been retired — replaced by a reload,
// then unloaded — needs nothing but the demanding request's own reference: the
// generation stays readable, and mapped, until that is released, then drains
// and unmaps. What the request demands is the s-t index, the one value a
// generation derives by reading its mapping (a snapshot carries its
// hierarchy, and a replay makes a heap generation): unmapping early would
// fault.
func TestRetiredMidBuild(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.snap")
	base := writeMappedSnap(t, path, 300, 5)
	requireCatalogMmap(t, path)
	var sink logSink
	c := testCatalog(t, Config{MMap: true, Logf: sink.logf})
	if _, err := c.Load("g", Source{Snapshot: path}); err != nil {
		t.Fatal(err)
	}
	var gens []*Generation
	var rels []func()
	for want := uint64(1); want <= 2; want++ {
		gn, rel, err := c.Acquire("g") // the request that will demand, admitted before gn retires
		if err != nil {
			t.Fatal(err)
		}
		if gn.Gen != want || !gn.Mapped() || len(gn.Built()) != 0 {
			t.Fatalf("gen %d (mapped %v, built %v), want mapped gen %d with nothing built", gn.Gen, gn.Mapped(), gn.Built(), want)
		}
		gens, rels = append(gens, gn), append(rels, rel)
		if want == 1 {
			if _, err := c.Reload("g"); err != nil { // maps the file again
				t.Fatal(err)
			}
		}
	}
	if err := c.Unload("g"); err != nil {
		t.Fatal(err)
	}
	if st := row(t, c, "g"); st.State != "draining" {
		t.Fatalf("unloaded with a request in flight: %+v", st)
	}
	ts, ws := base.Neighbors(3)
	near := ts[slices.Index(ws, slices.Min(ws))] // inside the search budget
	wantD := dijkstra.SSSP(base, 3)[near]
	for i, gn := range gens {
		res, _, err := gn.Engine.Query(context.Background(), engine.Request{Sources: []int32{3}, Targets: []int32{near}})
		if err != nil || res.Solver != "bidirectional" || res.Target(0, near) != wantD {
			t.Fatalf("gen %d: targeted query %+v, %v; want the search's %d", gn.Gen, res, err, wantD)
		}
		select {
		case <-gn.Drained():
			t.Fatalf("gen %d drained (and unmapped) under its request's reference", gn.Gen)
		default:
		}
		if n, ok := mappingsOf(path); ok && n != len(gens)-i {
			t.Fatalf("gen %d in flight: %d mappings of the snapshot, want %d", gn.Gen, n, len(gens)-i)
		}
		rels[i]()
		select {
		case <-gn.Drained():
		case <-time.After(waitFor):
			t.Fatalf("gen %d never drained after its request released", gn.Gen)
		}
		if n, ok := mappingsOf(path); ok && n != len(gens)-i-1 {
			t.Fatalf("gen %d drained: %d mappings of the snapshot, want %d", gn.Gen, n, len(gens)-i-1)
		}
		if gn.Built()[solver.KindSTIndex] == 0 {
			t.Fatalf("gen %d: built %v, want its s-t index", gn.Gen, gn.Built())
		}
	}
	if st := row(t, c, "g"); st.State != "evicted" {
		t.Fatalf("g not evicted: %+v", st)
	}
	if n := sink.count("catalog: s-t index for g gen"); n != 2 {
		t.Fatalf("%d s-t index log lines, want 2", n)
	}
}

// A write derives nothing: on a lineage no query has demanded a hierarchy on,
// the child has none, whatever the batch touches, and a hierarchy the parent
// carried unused is dropped; on a demanded lineage every child is unbuilt as
// well and charged for its graph alone, answers as Dijkstra on the reference
// replay, and its first solver=thorup adds exactly one build and one log line.
func TestMutateDerivesNothing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		loader func() (*graph.Graph, *ch.Hierarchy, error)
		start  string
	}{{"text", lazyLoader(6), "unbuilt"}, {"snapshot", loaderFor(6), "carried"}} {
		t.Run(tc.name, func(t *testing.T) {
			var sink logSink
			c := testCatalog(t, Config{Logf: sink.logf})
			base, _, _ := tc.loader()
			if _, err := c.Load("g", Source{Loader: tc.loader}); err != nil {
				t.Fatal(err)
			}
			if st := row(t, c, "g"); st.Hierarchy != tc.start {
				t.Fatalf("loaded: %+v, want hierarchy %s", st, tc.start)
			}
			wide := weightBatch(base, 40, 2) // touches > 5% of 400 vertices
			batches := []*mutate.Batch{weightBatch(base, 3, 1), {Ops: []mutate.Op{{Op: mutate.OpInsert, U: 1, V: 399, W: 2}}}, wide}
			for i, b := range batches {
				if res, err := c.Mutate("g", b); err != nil {
					t.Fatalf("un-demanded batch %d: %+v, %v; want an overlay", i, res, err)
				}
				if st := row(t, c, "g"); st.Hierarchy != "unbuilt" || st.HeapBytes != st.Bytes || st.Gen != uint64(i+2) {
					t.Fatalf("after un-demanded batch %d: %+v", i, st)
				}
			}
			want, err := mutate.ReferenceApply(base, batches...)
			if err != nil {
				t.Fatal(err)
			}
			demand(t, c, "g") // fresh build over the mutated graph
			if st := row(t, c, "g"); st.Hierarchy != "built" || c.Counter(cHierarchyBuilds) != 1 {
				t.Fatalf("after the demand: %+v, %d builds", st, c.Counter(cHierarchyBuilds))
			}
			for i, b := range []*mutate.Batch{weightBatch(want, 3, 1), {Ops: []mutate.Op{{Op: mutate.OpDelete, U: 1, V: 399}}}, nil} {
				if b == nil { // wide, and heavier
					b = weightBatch(want, 40, 2)
				}
				if res, err := c.Mutate("g", b); err != nil {
					t.Fatalf("demanded batch %d: %+v, %v", i, res, err)
				}
				gn, rel, err := c.Acquire("g")
				if err != nil {
					t.Fatal(err)
				}
				st := row(t, c, "g")
				if h, state, _ := gn.Hierarchy(); state != "unbuilt" || h != nil || st.Hierarchy != "unbuilt" || st.HierarchyBuildMS != 0 ||
					st.HeapBytes != gn.G.MemoryBytes() || st.Bytes != st.HeapBytes {
					t.Fatalf("child %d of a demanded lineage: %s %p, %+v; want unbuilt, charged %d bytes", i, state, h, st, gn.G.MemoryBytes())
				}
				if want, err = mutate.ReferenceApply(want, b); err != nil {
					t.Fatal(err)
				}
				checkDistances(t, gn, want)
				builds, lines := c.Counter(cHierarchyBuilds), sink.count("catalog: hierarchy for g gen")
				demandOn(t, gn)
				if c.Counter(cHierarchyBuilds) != builds+1 || sink.count("catalog: hierarchy for g gen") != lines+1 ||
					sink.count(fmt.Sprintf("catalog: hierarchy for g gen %d built on demand", gn.Gen)) != 1 {
					t.Fatalf("child %d's first solver=thorup: %d builds, %d log lines, from %d and %d; want one more of each",
						i, c.Counter(cHierarchyBuilds), sink.count("catalog: hierarchy for g gen"), builds, lines)
				}
				rel()
			}
			if n := c.Counter(cHierarchyBuilds); n != 4 {
				t.Fatalf("%d builds, want 4: one per generation that a solver=thorup ran on", n)
			}
		})
	}
}
