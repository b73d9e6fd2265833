package solver

import (
	"context"
	"maps"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/ch"
	"repro/internal/dijkstra"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
)

func TestRegistryNames(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range All() {
		if s.Name == "" {
			t.Fatal("solver with empty name")
		}
		if seen[s.Name] {
			t.Fatalf("duplicate solver name %q", s.Name)
		}
		seen[s.Name] = true
		got, ok := ByName(s.Name)
		if !ok || got.Name != s.Name {
			t.Fatalf("ByName(%q) = %v, %v", s.Name, got.Name, ok)
		}
	}
	if _, ok := ByName("no-such-solver"); ok {
		t.Fatal("ByName accepted an unknown name")
	}
	if len(Names()) != len(All()) {
		t.Fatalf("Names() has %d entries, All() has %d", len(Names()), len(All()))
	}
	// The names and their order are an interface: bench/metrics.go and
	// BENCHMARK.json carry one engine.solver_share row per entry.
	want := []string{"thorup", "thorup-serial", "dijkstra", "delta", "mlb", "bfs"}
	if got := Names(); !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

func TestApplicable(t *testing.T) {
	weighted := gen.Random(32, 96, 8, gen.UWD, 1)
	unit := gen.Random(32, 96, 1, gen.UWD, 1)
	empty := graph.NewBuilder(4).Build()
	for _, s := range All() {
		if !s.Applicable(weighted) && !s.UnitWeightsOnly {
			t.Errorf("%s not applicable to a weighted graph", s.Name)
		}
		if s.UnitWeightsOnly && s.Applicable(weighted) {
			t.Errorf("%s (unit-only) applicable to a weighted graph", s.Name)
		}
		if !s.Applicable(unit) {
			t.Errorf("%s not applicable to a unit-weight graph", s.Name)
		}
		if !s.Applicable(empty) {
			t.Errorf("%s not applicable to an edgeless graph", s.Name)
		}
	}
}

func TestAllSolversAgree(t *testing.T) {
	rt := par.NewExec(2)
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		sources []int32
	}{
		{"weighted", gen.Random(64, 256, 32, gen.UWD, 7), []int32{3, 40}},
		{"unit", gen.Random(64, 256, 1, gen.UWD, 8), []int32{0}},
		{"single-vertex", graph.NewBuilder(1).Build(), []int32{0}},
	} {
		in := NewInstance(tc.g, rt)
		want := dijkstra.SSSP(tc.g, tc.sources[0])
		for _, s := range tc.sources[1:] {
			for v, dv := range dijkstra.SSSP(tc.g, s) {
				if dv < want[v] {
					want[v] = dv
				}
			}
		}
		for _, s := range All() {
			if !s.Applicable(tc.g) {
				continue
			}
			got := s.Solve(in, tc.sources)
			for v := range want {
				if got[v] != want[v] {
					t.Errorf("%s/%s: d[%d] = %d, want %d", tc.name, s.Name, v, got[v], want[v])
					break
				}
			}
		}
		for _, pp := range PointToPoints() {
			tgt := int32(tc.g.NumVertices() - 1)
			ref := dijkstra.SSSP(tc.g, tc.sources[0])
			if got := pp.Dist(in, tc.sources[0], tgt); got != ref[tgt] {
				t.Errorf("%s/%s: st = %d, want %d", tc.name, pp.Name, got, ref[tgt])
			}
		}
	}
}

func TestInstanceHierarchyLazyAndCached(t *testing.T) {
	g := gen.Random(32, 96, 8, gen.UWD, 2)
	in := NewInstance(g, par.NewExec(1))
	h1 := in.Hierarchy()
	if h1 == nil {
		t.Fatal("nil hierarchy")
	}
	if h2 := in.Hierarchy(); h2 != h1 {
		t.Fatal("Hierarchy not cached")
	}
}

// Two CH solvers' first Solve on one fresh instance, from two goroutines,
// must build one hierarchy and both see it (run under -race by `make stress`).
func TestInstanceHierarchyConcurrentFirstUse(t *testing.T) {
	g := gen.Random(128, 512, 64, gen.UWD, 3)
	in := NewInstance(g, par.NewExec(2))
	want := dijkstra.SSSP(g, 5)
	seen := make([]*ch.Hierarchy, 2)
	var wg sync.WaitGroup
	for i, name := range []string{"thorup", "thorup-serial"} {
		s, _ := ByName(name)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := s.Solve(in, []int32{5}); !slices.Equal(got, want) {
				t.Errorf("%s: wrong distances on a concurrently built hierarchy", name)
			}
			seen[i] = in.Hierarchy()
		}()
	}
	wg.Wait()
	if seen[0] == nil || seen[0] != seen[1] {
		t.Fatalf("two hierarchies observed: %p and %p", seen[0], seen[1])
	}
}

// Only a solver that reads the hierarchy builds one: every other solver
// answers and leaves the instance unbuilt, with nothing built on demand; the
// ones that do need it, first used concurrently, answer over the one hierarchy
// HierarchyState and Built then report. TestDerivedValue has the build itself.
func TestOnlyHierarchySolversBuild(t *testing.T) {
	g := gen.Random(128, 512, 64, gen.UWD, 4)
	want := dijkstra.SSSP(g, 9)
	in := NewInstance(g, par.NewExec(2))
	for _, s := range All() {
		if !s.Applicable(g) || s.NeedsCH {
			continue
		}
		if got := s.Solve(in, []int32{9}); !slices.Equal(got, want) {
			t.Fatalf("%s: wrong distances with the hierarchy unbuilt", s.Name)
		}
	}
	if h, state, ms := in.HierarchyState(); h != nil || state != "unbuilt" || ms != 0 || len(in.Built()) != 0 {
		t.Fatalf("after every solver that needs no hierarchy: %p %s %v, built %v", h, state, ms, in.Built())
	}
	var wg sync.WaitGroup
	for _, s := range All() {
		if !s.NeedsCH {
			continue
		}
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := s.Solve(in, []int32{9}); !slices.Equal(got, want) {
					t.Errorf("%s: wrong distances over the built hierarchy", s.Name)
				}
			}()
		}
	}
	wg.Wait()
	h, state, ms := in.HierarchyState()
	if state != "built" || h != in.Hierarchy() || ms <= 0 || !maps.Equal(in.Built(), map[string]int64{KindHierarchy: h.Bytes()}) {
		t.Fatalf("state %p %s %v, built %v", h, state, ms, in.Built())
	}
}

// Eight goroutines' first point-to-point searches on one fresh instance answer
// as Dijkstra does, over the one s-t index they leave built; no full solver
// builds one.
func TestSTIndexConcurrentFirstUse(t *testing.T) {
	g := gen.Random(1024, 4096, 1<<10, gen.UWD, 5)
	in := NewInstance(g, par.NewExec(2))
	for _, s := range All() {
		if s.Applicable(g) {
			s.Solve(in, []int32{3})
		}
	}
	if _, ok := in.Built()[KindSTIndex]; ok {
		t.Fatalf("a full solver built the s-t index: %v", in.Built())
	}
	targets := []int32{0, 17, 500, 1023}
	want := dijkstra.SSSP(g, 3)
	got := make([][]int64, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			search := PointToPoints()[0].NewState()
			for _, tgt := range targets {
				d, _, _ := search.Distance(in, 3, tgt, math.MaxInt)
				got[i] = append(got[i], d)
			}
		}()
	}
	wg.Wait()
	if b, ok := in.Built()[KindSTIndex]; !ok || b != 8*g.NumArcs() {
		t.Fatalf("built %v, want the s-t index of %d bytes", in.Built(), 8*g.NumArcs())
	}
	for i := range got {
		for j, tgt := range targets {
			if got[i][j] != want[tgt] {
				t.Fatalf("goroutine %d: st(3,%d) = %d, want %d", i, tgt, got[i][j], want[tgt])
			}
		}
	}
}

// sized is what every value an Instance derives has.
type sized = interface{ Bytes() int64 }

// Each value an Instance derives on demand — the hierarchy and the s-t index —
// is built by its first caller: eight concurrent first callers share one build
// and get the same value; the build reports once, with its kind, bytes equal
// to the value's Bytes() and ms > 0; the peek (and Built) see nothing before
// the build and return at once while it is held open. A carried hierarchy is
// never built or reported, used or not, and stays carried.
func TestDerivedValue(t *testing.T) {
	g := gen.Random(1024, 4096, 1<<10, gen.UWD, 6)
	for _, tc := range []struct {
		kind string
		get  func(in *Instance) sized
		peek func(in *Instance) sized
		// hold makes the instance's build close started, then wait for open.
		hold func(in *Instance, started chan<- struct{}, open <-chan struct{})
	}{
		{
			kind: KindHierarchy,
			get:  func(in *Instance) sized { return in.Hierarchy() },
			peek: func(in *Instance) sized {
				if h, ok := in.hierarchy.peek(); ok {
					return h
				}
				return nil
			},
			hold: func(in *Instance, started chan<- struct{}, open <-chan struct{}) {
				build := in.hierarchy.build
				in.hierarchy.build = func(in *Instance) *ch.Hierarchy { close(started); <-open; return build(in) }
			},
		},
		{
			kind: KindSTIndex,
			get:  func(in *Instance) sized { return in.STIndex() },
			peek: func(in *Instance) sized {
				if x, ok := in.stIndex.peek(); ok {
					return x
				}
				return nil
			},
			hold: func(in *Instance, started chan<- struct{}, open <-chan struct{}) {
				build := in.stIndex.build
				in.stIndex.build = func(in *Instance) *dijkstra.STIndex { close(started); <-open; return build(in) }
			},
		},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			in := NewInstance(g, par.NewExec(2))
			var mu sync.Mutex
			type report struct {
				kind  string
				bytes int64
				ms    float64
			}
			var reports []report
			in.OnDerived = func(kind string, bytes int64, ms float64) {
				mu.Lock()
				reports = append(reports, report{kind, bytes, ms})
				mu.Unlock()
				if tc.peek(in) == nil {
					t.Errorf("%s reported before it landed", kind)
				}
			}
			if _, ok := in.Built()[tc.kind]; ok || tc.peek(in) != nil {
				t.Fatalf("before any caller: peek %v, built %v", tc.peek(in), in.Built())
			}

			started, open := make(chan struct{}), make(chan struct{})
			tc.hold(in, started, open)
			got := make([]sized, 8)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = tc.get(in)
				}()
			}
			<-started
			peeked := make(chan bool, 1)
			go func() {
				_, ok := in.Built()[tc.kind]
				peeked <- !ok && tc.peek(in) == nil
			}()
			select {
			case empty := <-peeked:
				if !empty {
					t.Fatal("the peek saw a value while its build was held open")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the peek waited for the build")
			}
			close(open)
			wg.Wait()

			v := got[0]
			for i := range got {
				if got[i] == nil || got[i] != v {
					t.Fatalf("caller %d got %v, caller 0 %v: want one shared value", i, got[i], v)
				}
			}
			tc.get(in) // a later caller builds and reports nothing
			mu.Lock()
			defer mu.Unlock()
			if len(reports) != 1 || reports[0].kind != tc.kind || reports[0].bytes != v.Bytes() || reports[0].ms <= 0 {
				t.Fatalf("reports %v, want one %s of %d bytes in > 0 ms", reports, tc.kind, v.Bytes())
			}
			if tc.peek(in) != v || in.Built()[tc.kind] != v.Bytes() {
				t.Fatalf("after the build: peek %v, built %v; want %v of %d bytes", tc.peek(in), in.Built(), v, v.Bytes())
			}
		})
	}

	h := ch.BuildKruskal(g)
	carried := NewInstanceWithHierarchy(g, par.NewExec(2), h)
	carried.OnDerived = func(kind string, _ int64, _ float64) {
		if kind == KindHierarchy {
			t.Error("an instance that came with its hierarchy reported a build")
		}
	}
	if got, state, ms := carried.HierarchyState(); got != h || state != "carried" || ms != 0 || len(carried.Built()) != 0 {
		t.Fatalf("carried, unused: %p %s %v, built %v", got, state, ms, carried.Built())
	}
	s, _ := ByName("thorup")
	if d := s.Solve(carried, []int32{3}); !slices.Equal(d, dijkstra.SSSP(g, 3)) || carried.Hierarchy() != h {
		t.Fatal("solver=thorup over a carried hierarchy: wrong distances or another hierarchy")
	}
	if _, state, _ := carried.HierarchyState(); state != "carried" || len(carried.Built()) != 0 {
		t.Fatalf("carried, used: %s, built %v", state, carried.Built())
	}
}

// conformanceGraphs are the instance shapes every registered solver must
// agree on; the unit-weight ones are where BFS joins.
func conformanceGraphs() map[string]*graph.Graph {
	two := graph.NewBuilder(9) // a weighted path 0..4, a triangle 5..7, and isolated 8
	for v := int32(0); v < 4; v++ {
		two.MustAddEdge(v, v+1, uint32(3+v))
	}
	two.MustAddEdge(5, 6, 2)
	two.MustAddEdge(6, 7, 9)
	two.MustAddEdge(5, 7, 4)
	return map[string]*graph.Graph{
		"rand":          gen.Random(96, 384, 1<<10, gen.UWD, 11),
		"rmat":          gen.RMATGraph(64, 256, 1<<6, gen.PWD, 12),
		"grid":          gen.GridGraph(8, 9, 16, gen.UWD, 13),
		"star":          gen.Star(33, 7),
		"two-component": two.Build(),
		"unit-grid":     gen.GridGraph(7, 7, 1, gen.UWD, 14),
		"unit-rand":     gen.Random(80, 200, 1, gen.UWD, 15),
		"n=0":           graph.NewBuilder(0).Build(),
		"n=1":           graph.NewBuilder(1).Build(),
	}
}

// sourceSets draws source sets of 1-4 vertices of an n-vertex graph, with
// duplicates and both ends of the id range.
func sourceSets(n int) [][]int32 {
	if n == 0 {
		return nil
	}
	last := int32(n - 1)
	return [][]int32{{0}, {last}, {last / 2, 0}, {last / 3, last, last / 3}, {0, last / 2, last, 0}, {last, last, last, last}}
}

// TestConformance is the contract of a registry entry, checked for every
// solver in All() and PointToPoints() — another is covered by registering it. For each
// applicable solver, graph shape and source set: a k-source run equals the
// elementwise minimum of that solver's own single-source runs and Dijkstra's
// answer; an empty source set (and an empty graph) reaches nothing; and one
// state answers different source sets on every graph, before and after a
// Reset, exactly as a fresh state does. For each point-to-point solver and
// pair of vertices: one state, reused across graphs, pairs and budgets,
// answers as a fresh one does; never
// settles more than its budget; without one never gives up; and an answer it
// does give is Dijkstra's.
func TestConformance(t *testing.T) {
	rt := par.NewExec(2)
	reused := make(map[string]State) // one state a solver, for every graph
	for _, s := range All() {
		reused[s.Name] = s.NewState()
	}
	searches := make(map[string]PointSearch)
	for _, pp := range PointToPoints() {
		searches[pp.Name] = pp.NewState()
	}
	for gname, g := range conformanceGraphs() {
		in := NewInstance(g, rt)
		n := g.NumVertices()
		for _, s := range All() {
			if !s.Applicable(g) {
				continue
			}
			check := func(what string, got, want []int64) {
				t.Helper()
				if !slices.Equal(got, want) {
					t.Errorf("%s/%s %s: got %v, want %v", gname, s.Name, what, got, want)
				}
			}
			unreached := make([]int64, n)
			for i := range unreached {
				unreached[i] = graph.Inf
			}
			reused := reused[s.Name]
			check("empty source set", s.Solve(in, nil), unreached)
			check("empty source set, reused state", reused.RunFromSources(context.Background(), in, nil), unreached)
			for i, srcs := range sourceSets(n) {
				want := dijkstra.SSSPFromSources(g, srcs)
				singles := slices.Clone(unreached)
				for _, src := range srcs {
					for v, d := range s.Solve(in, []int32{src}) {
						singles[v] = min(singles[v], d)
					}
				}
				check("min of single-source runs", singles, want)
				check("fresh state", s.Solve(in, srcs), want)
				// reused has by now answered every earlier, different set.
				check("reused state", reused.RunFromSources(context.Background(), in, srcs), want)
				if i%2 == 1 {
					reused.Reset()
				}
			}
		}
		for _, pp := range PointToPoints() {
			for src := int32(0); int(src) < n; src += 5 {
				want := dijkstra.SSSP(g, src)
				for dst := int32(0); int(dst) < n; dst += 3 {
					for _, budget := range []int{0, 2, 9, math.MaxInt} {
						d, settled, ok := searches[pp.Name].Distance(in, src, dst, budget)
						fd, fsettled, fok := pp.NewState().Distance(in, src, dst, budget)
						if d != fd || settled != fsettled || ok != fok {
							t.Fatalf("%s/%s st(%d,%d) budget %d: reused (%d,%d,%v), fresh (%d,%d,%v)",
								gname, pp.Name, src, dst, budget, d, settled, ok, fd, fsettled, fok)
						}
						if settled > budget || (!ok && budget == math.MaxInt) || (ok && d != want[dst]) {
							t.Fatalf("%s/%s st(%d,%d) budget %d = (%d,%d,%v), want %d",
								gname, pp.Name, src, dst, budget, d, settled, ok, want[dst])
						}
					}
				}
			}
		}
	}
}

// A warm dijkstra state answers a 4-source query in one run that allocates
// nothing (it was four runs and a copy).
func TestWarmDijkstraStateAllocatesNothing(t *testing.T) {
	g := gen.Random(256, 1024, 1<<10, gen.UWD, 21)
	s, _ := ByName("dijkstra")
	st, in := s.NewState(), NewInstance(g, par.NewExec(1))
	srcs := []int32{3, 77, 140, 255}
	st.RunFromSources(context.Background(), in, srcs) // grow the buffers
	if a := testing.AllocsPerRun(20, func() { st.RunFromSources(context.Background(), in, srcs) }); a != 0 {
		t.Fatalf("warm 4-source dijkstra run: %v allocs, want 0", a)
	}
}

// A warm Thorup state allocates nothing on its second run on the same
// instance, though the Reset between them, as a pool does, let go of the
// hierarchy: the run binds it again into the arrays it kept.
func TestWarmThorupStateAllocatesNothing(t *testing.T) {
	g := gen.Random(256, 1024, 1<<10, gen.UWD, 21)
	s, _ := ByName("thorup")
	st, in := s.NewState(), NewInstance(g, par.NewExec(1))
	srcs := []int32{3, 77, 140, 255}
	want := dijkstra.SSSPFromSources(g, srcs)
	st.RunFromSources(context.Background(), in, srcs) // grow the arrays, build the hierarchy
	st.Reset()
	if a := testing.AllocsPerRun(20, func() {
		st.RunFromSources(context.Background(), in, srcs)
		st.Reset()
	}); a != 0 {
		t.Fatalf("warm thorup run: %v allocs, want 0", a)
	}
	if got := st.RunFromSources(context.Background(), in, srcs); !slices.Equal(got, want) {
		t.Fatalf("warm thorup run: got %v, want %v", got, want)
	}
}

// Under a context that has ended, the kernels that look at it (delta, bfs,
// thorup) return nil, and the reference solvers (dijkstra, mlb,
// thorup-serial) run to completion: the contract State documents.
func TestStatesUnderCancelledContext(t *testing.T) {
	const n = 3 * 4096 // past exec Thorup's first check
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	checks := map[string]bool{"delta": true, "bfs": true, "thorup": true}
	for _, c := range []uint32{1 << 10, 1} {
		in := NewInstance(gen.Random(n, 4*n, c, gen.UWD, 5), par.NewExec(2))
		want := dijkstra.SSSP(in.G, 3)
		for _, s := range All() {
			if !s.Applicable(in.G) || (s.UnitWeightsOnly != (c == 1)) {
				continue
			}
			got := s.NewState().RunFromSources(ctx, in, []int32{3})
			switch {
			case checks[s.Name] && got != nil:
				t.Errorf("%s ran to completion under a cancelled context", s.Name)
			case !checks[s.Name] && !slices.Equal(got, want):
				t.Errorf("%s, a reference solver, did not complete under a cancelled context", s.Name)
			}
		}
	}
}
