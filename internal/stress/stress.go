package stress

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/deltastep"
	"repro/internal/dijkstra"
	"repro/internal/graph"
	"repro/internal/mta"
	"repro/internal/mutate"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/solver"
	"repro/internal/verify"
)

// Config parameterizes a stress run. The zero value is usable: Run fills in
// the documented defaults.
type Config struct {
	Seed    uint64                           // base seed; the whole run is a function of it
	Rounds  int                              // sweep repetitions with derived seeds (default 1)
	MaxN    int                              // vertex-count ceiling for generated instances (default 256)
	Workers int                              // exec-runtime goroutines (default 4)
	Targets int                              // sampled s-t pairs per instance for point-to-point solvers (default 4)
	Solvers []solver.Solver                  // solver pool (default solver.All()); tests may append broken ones
	NoRace  bool                             // skip the concurrent-query stage (the shrinker sets this for speed)
	Logf    func(format string, args ...any) // optional progress sink

	MutateRounds int  // mutation batches per instance for the dynamic-graph oracle (default 6: one wide batch of each kind; negative disables)
	MutateFault  bool // plant the incremental-repair bug (mutate.Options.InjectFault); the oracle must catch it
	InheritFault bool // plant the answer-inheritance bug (engine.Inherit without its tightness test, the repair without its decremental phase); the oracle must catch it
}

func (cfg Config) withDefaults() Config {
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	if cfg.MaxN <= 0 {
		cfg.MaxN = 256
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Targets <= 0 {
		cfg.Targets = 4
	}
	if cfg.Solvers == nil {
		cfg.Solvers = solver.All()
	}
	if cfg.MutateRounds == 0 {
		cfg.MutateRounds = 6
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return cfg
}

// Failure describes one reproducible discrepancy. The graph and sources are
// the (possibly shrunk) witness; WriteRepro persists them as DIMACS files.
type Failure struct {
	Check   string // which oracle tripped, e.g. "differential(thorup~mlb)"
	Inst    string // instance description at detection time
	Detail  string // human-readable discrepancy
	Seed    uint64 // base seed of the run that found it
	G       *graph.Graph
	Sources []int32

	// Mutation-oracle failures additionally carry the (shrunk) batch
	// sequence and which planted faults were active; WriteRepro persists
	// them in a .mut sidecar next to the DIMACS pair.
	Mutations    []*mutate.Batch
	MutateFault  bool
	InheritFault bool
}

func (f *Failure) Error() string {
	return fmt.Sprintf("stress: %s on %s (n=%d m=%d sources=%v seed=%d): %s",
		f.Check, f.Inst, f.G.NumVertices(), f.G.NumEdges(), f.Sources, f.Seed, f.Detail)
}

// Run executes the configured number of sweep rounds and returns the first
// failure, shrunk to a minimal witness, or nil if every check passed.
func Run(cfg Config) *Failure {
	cfg = cfg.withDefaults()
	rt := par.NewExec(cfg.Workers)
	for round := 0; round < cfg.Rounds; round++ {
		roundSeed := cfg.Seed + uint64(round)*0x9e3779b97f4a7c15
		for _, sp := range Sweep(roundSeed, cfg.MaxN) {
			g := sp.Generate()
			sources := pickSources(sp.Seed, g.NumVertices())
			cfg.Logf("stress: %-38s n=%-5d m=%-6d sources=%v", sp.Name(), g.NumVertices(), g.NumEdges(), sources)
			if f := CheckInstance(cfg, rt, sp.Name(), g, sources); f != nil {
				f.Seed = cfg.Seed
				return shrinkFailure(cfg, rt, f)
			}
		}
	}
	return nil
}

// shrinkFailure minimizes a failing instance while the same oracle keeps
// tripping, then re-describes the failure on the shrunk witness.
func shrinkFailure(cfg Config, rt par.Runtime, f *Failure) *Failure {
	cfg.Logf("stress: FAILURE %s — shrinking (n=%d m=%d)", f.Check, f.G.NumVertices(), f.G.NumEdges())
	sub := cfg
	sub.NoRace = true
	sub.Logf = func(string, ...any) {}
	keep := func(g *graph.Graph, sources []int32) bool {
		f2 := CheckInstance(sub, rt, "shrink", g, sources)
		return f2 != nil && f2.Check == f.Check
	}
	g, sources := Shrink(f.G, f.Sources, keep)
	f2 := CheckInstance(sub, rt, f.Inst+"(shrunk)", g, sources)
	if f2 == nil {
		// Cannot happen (Shrink only returns witnesses keep accepted), but
		// never trade a real failure for a nil one.
		return f
	}
	f2.Seed = f.Seed
	if len(f2.Mutations) > 0 {
		f2 = shrinkMutationSequence(sub, rt, f2)
	}
	cfg.Logf("stress: shrunk to n=%d m=%d sources=%v", f2.G.NumVertices(), f2.G.NumEdges(), f2.Sources)
	return f2
}

// pickSources derives a deterministic multi-source set (up to three spread
// vertices) from the instance seed. The first entry doubles as the
// single-source query.
func pickSources(seed uint64, n int) []int32 {
	if n <= 0 {
		return nil
	}
	r := rng.New(seed ^ 0x5eed5eed5eed5eed)
	s0 := int32(r.Intn(n))
	out := []int32{s0}
	for _, off := range []int{n / 3, 2 * n / 3} {
		s := (s0 + int32(off)) % int32(n)
		dup := false
		for _, have := range out {
			if have == s {
				dup = true
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	return out
}

// CheckInstance runs the full oracle stack on one instance and returns the
// first discrepancy (without shrinking), or nil. It is exported so that
// repro replay (cmd/stress -replay, the regression corpus test) applies
// exactly the checks the sweep applies.
func CheckInstance(cfg Config, rt par.Runtime, name string, g *graph.Graph, sources []int32) *Failure {
	cfg = cfg.withDefaults()
	n := g.NumVertices()
	if n == 0 || len(sources) == 0 {
		return nil
	}
	fail := func(check, format string, args ...any) *Failure {
		return &Failure{Check: check, Inst: name, Detail: fmt.Sprintf(format, args...), G: g, Sources: sources}
	}
	if err := g.Validate(); err != nil {
		return fail("graph-validate", "%v", err)
	}

	// Structural invariants of the Component Hierarchy, after construction.
	in := solver.NewInstance(g, rt)
	h := in.Hierarchy()
	if err := h.Validate(); err != nil {
		return fail("ch-validate", "%v", err)
	}

	pool := make([]solver.Solver, 0, len(cfg.Solvers))
	for _, s := range cfg.Solvers {
		if s.Applicable(g) {
			pool = append(pool, s)
		}
	}

	// Differential + certification, single- then multi-source.
	sourceSets := [][]int32{sources[:1]}
	if len(sources) > 1 {
		sourceSets = append(sourceSets, sources)
	}
	var ref []int64 // reference distances from sources[0] (first solver's answer)
	for _, srcs := range sourceSets {
		results := make([][]int64, len(pool))
		for i, s := range pool {
			d := s.Solve(in, srcs)
			if len(d) != n {
				return fail("shape("+s.Name+")", "%d distances for %d vertices", len(d), n)
			}
			results[i] = d
		}
		for i := 0; i < len(pool); i++ {
			for j := i + 1; j < len(pool); j++ {
				if v := firstDiff(results[i], results[j]); v >= 0 {
					return fail(fmt.Sprintf("differential(%s~%s)", pool[i].Name, pool[j].Name),
						"sources %v: d[%d] = %d vs %d", srcs, v, results[i][v], results[j][v])
				}
			}
		}
		for i, s := range pool {
			if err := verify.DistancesSerial(g, srcs, results[i]); err != nil {
				return fail("certify("+s.Name+")", "sources %v: %v", srcs, err)
			}
		}
		if len(srcs) == 1 && len(results) > 0 {
			ref = results[0]
		}
	}
	if ref == nil {
		return nil // empty solver pool: nothing further to cross-check
	}

	// Thorup traversal invariants after a run, for the serving kernel's books
	// (active lists, child-count liveness) and the cost-model kernel's
	// (per-vertex unsettled counts) alike; the two must also agree.
	var exec []int64
	for _, krt := range []par.Runtime{rt, mta.NewSim(mta.MTA2(8))} {
		q := core.NewSolver(h, krt).Query()
		d := q.RunFromSources(sources)
		if err := q.CheckInvariants(); err != nil {
			return fail("ch-traversal-invariant", "sources %v (sim=%v): %v", sources, krt != rt, err)
		}
		if exec == nil {
			exec = d
		} else if v := firstDiff(d, exec); v >= 0 {
			return fail("ch-traversal-kernels", "sources %v: sim d[%d] = %d, exec %d", sources, v, d[v], exec[v])
		}
	}

	// Point-to-point solvers against the reference vector on sampled targets.
	for _, pp := range solver.PointToPoints() {
		r := rng.New(uint64(sources[0]) ^ 0x7a11)
		for k := 0; k < cfg.Targets; k++ {
			t := int32(r.Intn(n))
			got := pp.Dist(in, sources[0], t)
			if got != ref[t] {
				return fail("point-to-point("+pp.Name+")",
					"st(%d,%d) = %d, reference %d", sources[0], t, got, ref[t])
			}
		}
	}

	// The engine's targeted plans against Dijkstra's full vector (targeted.go).
	if f := checkTargeted(cfg, rt, name, g, sources); f != nil {
		return f
	}

	// Metamorphic transformations.
	if f := checkMetamorphic(cfg, rt, name, g, sources, ref); f != nil {
		return f
	}

	// Dynamic-graph oracle: random mutation sequences through the
	// incremental-repair and fallback paths vs an independent replay.
	if f := checkMutate(cfg, rt, name, g, sources); f != nil {
		return f
	}

	// Concurrent-query race stress: several queries share one hierarchy and
	// one runtime (the paper's Figure 5 workload); delta-stepping runs beside
	// them on the same runtime. Meaningful under `go test -race` / `go run
	// -race`, which is how make stress invokes it.
	if !cfg.NoRace && n > 1 {
		srcs := raceSources(sources[0], n)
		res := core.NewSolver(h, rt).RunMany(srcs)
		var wg sync.WaitGroup
		deltaRes := make([][]int64, len(srcs))
		delta := deltastep.DefaultDelta(g)
		for i, s := range srcs {
			wg.Add(1)
			go func(i int, s int32) {
				defer wg.Done()
				deltaRes[i] = deltastep.SSSP(rt, g, s, delta)
			}(i, s)
		}
		wg.Wait()
		for i, s := range srcs {
			want := dijkstra.SSSP(g, s)
			if v := firstDiff(res[i], want); v >= 0 {
				return fail("race-shared-ch", "concurrent query %d (src %d): d[%d] = %d, want %d",
					i, s, v, res[i][v], want[v])
			}
			if v := firstDiff(deltaRes[i], want); v >= 0 {
				return fail("race-deltastep", "concurrent run %d (src %d): d[%d] = %d, want %d",
					i, s, v, deltaRes[i][v], want[v])
			}
		}

		// The query-execution engine under a concurrent mixed workload
		// (dedup races, cache hits, batches) over the same instance.
		if f := checkEngine(cfg, name, g, sources, in); f != nil {
			return f
		}

		// The graph catalog under admin churn: reloads hot-swapping
		// generations beneath live queries, a second name loading and
		// unloading beside them (catalog.go).
		if f := checkCatalog(cfg, name, g, sources); f != nil {
			return f
		}
	}
	return nil
}

// raceSources spreads four query sources across the vertex range.
func raceSources(s0 int32, n int) []int32 {
	out := []int32{s0}
	for _, off := range []int{1, n / 4, n / 2} {
		s := (s0 + int32(off)) % int32(n)
		dup := false
		for _, have := range out {
			if have == s {
				dup = true
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	return out
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []int64) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
