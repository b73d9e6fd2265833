package catalog

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ch"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/solver"
)

// holdBuilds holds every hierarchy build until the returned release (also run
// at cleanup, so a failing test never leaves one blocked).
func holdBuilds(t *testing.T) (release func()) {
	t.Helper()
	release = solver.HoldHierarchyBuilds()
	t.Cleanup(release)
	return release
}

// lazyLoader yields loaderFor's graph without a hierarchy, the way a text or
// generator source does.
func lazyLoader(seed uint64) func() (*graph.Graph, *ch.Hierarchy, error) {
	return func() (*graph.Graph, *ch.Hierarchy, error) {
		return gen.Random(400, 1600, 1<<10, gen.UWD, seed), nil, nil
	}
}

// waitRow polls name's Status row until ok accepts it.
func waitRow(t *testing.T, c *Catalog, name, what string, ok func(GraphStatus) bool) GraphStatus {
	t.Helper()
	for deadline := time.Now().Add(waitFor); ; time.Sleep(time.Millisecond) {
		for _, st := range c.Status() {
			if st.Name == name && ok(st) {
				return st
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: never saw %s; status %+v", name, what, c.Status())
		}
	}
}

// row is name's Status row as it stands.
func row(t *testing.T, c *Catalog, name string) GraphStatus {
	t.Helper()
	return waitRow(t, c, name, "a row", func(GraphStatus) bool { return true })
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

// A background load walks loading→building→warming→ready, warm-up queries
// included, while the hierarchy build has not even started; the generation
// answers correctly, is charged for the graph alone, and grows by exactly the
// hierarchy's bytes when the build lands.
func TestLoadReadyBeforeHierarchy(t *testing.T) {
	release := holdBuilds(t)
	c := testCatalog(t, Config{})
	if err := c.Load("g", Source{Loader: lazyLoader(3)}); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitReady("g", waitFor); err != nil {
		t.Fatal(err)
	}
	if got := c.Counter(cWarmQueries); got != 4 {
		t.Fatalf("%d warm queries ran before ready, want 4", got)
	}
	gn, rel, err := c.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	checkDistances(t, gn, gn.G)
	st := row(t, c, "g")
	if st.State != "ready" || st.Hierarchy != "building" || st.Bytes != gn.G.MemoryBytes() || st.HeapBytes != st.Bytes {
		t.Fatalf("ready without a hierarchy: %+v (graph is %d bytes)", st, gn.G.MemoryBytes())
	}

	release()
	built := waitRow(t, c, "g", "hierarchy built", func(st GraphStatus) bool { return st.Hierarchy == "built" })
	hb := ch.BuildKruskal(gn.G).Bytes()
	if built.Bytes != st.Bytes+hb || built.HeapBytes != built.Bytes || built.HierarchyBuildMS <= 0 {
		t.Fatalf("after the build: %+v, want %d + %d bytes", built, st.Bytes, hb)
	}
	if got := gn.H().Bytes(); got != hb || gn.Stats().CHBytes != hb {
		t.Fatalf("hierarchy is %d bytes (stats say %d), want %d", got, gn.Stats().CHBytes, hb)
	}
}

// The memory budget is re-checked when a background build lands: two graphs
// that fit while one has no hierarchy stop fitting when it gets one, and the
// idle one is evicted then, not before.
func TestBudgetRecheckedWhenHierarchyLands(t *testing.T) {
	release := holdBuilds(t)
	ga, ha, _ := loaderFor(1)()
	gb, _, _ := lazyLoader(2)()
	hb := ch.BuildKruskal(gb).Bytes()
	c := testCatalog(t, Config{MemoryBudget: ga.MemoryBytes() + ha.Bytes() + gb.MemoryBytes() + hb/2})
	if err := c.Load("a", Source{Loader: loaderFor(1)}); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitReady("a", waitFor); err != nil {
		t.Fatal(err)
	}
	if err := c.Load("b", Source{Loader: lazyLoader(2)}); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitReady("b", waitFor); err != nil {
		t.Fatal(err)
	}
	if n := c.Counter(cEvictions); n != 0 {
		t.Fatalf("%d evictions with b's hierarchy still unbuilt", n)
	}
	release()
	waitRow(t, c, "b", "hierarchy built", func(st GraphStatus) bool { return st.Hierarchy == "built" })
	// finishHierarchy charges and evicts under one hold of the lock.
	if n := c.Counter(cEvictions); n != 1 {
		t.Fatalf("%d evictions after b's hierarchy landed, want 1", n)
	}
	waitRow(t, c, "a", "evicted", func(st GraphStatus) bool { return st.State == "evicted" })
	if st := row(t, c, "b"); st.State != "ready" {
		t.Fatalf("b should have survived: %+v", st)
	}
}

// Generations retired while their hierarchy is still being built — replaced
// by a reload, then unloaded — stay readable until the build is done, let it
// finish into garbage, and their goroutines run to their last statement. The
// instance is a mapped snapshot carrying a weight-only delta, so the graph
// the build reads aliases the mapping: unmapping it early would fault.
func TestRetiredMidBuild(t *testing.T) {
	release := holdBuilds(t)
	path := filepath.Join(t.TempDir(), "g.snap")
	base := writeMappedSnap(t, path, 300, 5)
	requireCatalogMmap(t, path)
	var sink logSink
	c := testCatalog(t, Config{MMap: true, Logf: sink.logf})
	if err := c.Load("g", Source{Snapshot: path}); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitReady("g", waitFor); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Mutate("g", weightBatch(base, 4, 3)); err != nil { // the snapshot carried its hierarchy: no wait
		t.Fatal(err)
	}
	var gens []*Generation
	for want := uint64(3); want <= 4; want++ {
		// Each reload maps the file again, replays the delta over it, drops
		// the carried hierarchy and installs a generation without one.
		if _, err := c.Reload("g"); err != nil {
			t.Fatal(err)
		}
		if err := c.WaitReady("g", waitFor); err != nil {
			t.Fatal(err)
		}
		gn, rel, err := c.Acquire("g")
		if err != nil {
			t.Fatal(err)
		}
		rel()
		if gn.Gen != want || !gn.Mapped() {
			t.Fatalf("reload installed gen %d (mapped %v), want mapped gen %d", gn.Gen, gn.Mapped(), want)
		}
		gens = append(gens, gn)
	}
	if err := c.Unload("g"); err != nil {
		t.Fatal(err)
	}
	for _, gn := range gens {
		select {
		case <-gn.Drained():
			t.Fatalf("gen %d drained (and unmapped) with its hierarchy build still to run", gn.Gen)
		default:
		}
	}
	if st := row(t, c, "g"); st.State != "draining" || st.Hierarchy != "building" {
		t.Fatalf("unloaded mid-build: %+v", st)
	}

	release()
	for _, gn := range gens {
		select {
		case <-gn.Drained():
		case <-time.After(waitFor):
			t.Fatalf("gen %d never drained after its build was released", gn.Gen)
		}
		if got := gn.H().NumLeaves(); got != base.NumVertices() { // the graph itself is unmapped by now
			t.Fatalf("gen %d: hierarchy over %d vertices, want %d", gn.Gen, got, base.NumVertices())
		}
	}
	waitRow(t, c, "g", "evicted", func(st GraphStatus) bool { return st.State == "evicted" })
	for deadline := time.Now().Add(waitFor); sink.count("catalog: hierarchy for g gen") != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("build goroutines never finished; log:\n%s", strings.Join(sink.lines, "\n"))
		}
	}
}
