package solver

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bfs"
	"repro/internal/ch"
	"repro/internal/core"
	"repro/internal/deltastep"
	"repro/internal/dijkstra"
	"repro/internal/graph"
	"repro/internal/mlb"
	"repro/internal/par"
)

// Instance bundles a graph with the runtime and the per-graph values its
// solvers share: the delta-stepping bucket width, and what the first solver
// that needs it derives from the graph — the Component Hierarchy (the Thorup
// solvers) and the s-t search index (the point-to-point search).
// Build one per graph and run any number of solvers on it, from any number of
// goroutines.
type Instance struct {
	G *graph.Graph
	// RT runs the parallel kernels. The registry's "thorup" runs core's exec
	// kernel whatever RT is; the simulated one is core.NewSolver's on an mta.Sim.
	RT par.Runtime
	// Delta is the delta-stepping bucket width, measured from G's weights
	// (deltastep.DefaultDelta) unless the caller overrides it before the
	// first run.
	Delta int64
	// OnDerived, set before the first run, is told of each value the instance
	// builds — its kind, bytes and build ms — once it has landed, on the
	// goroutine that built it.
	OnDerived func(kind string, bytes int64, ms float64)

	hierarchy derived[*ch.Hierarchy]
	stIndex   derived[*dijkstra.STIndex]
}

// The kinds of value an Instance derives.
const (
	KindHierarchy = "hierarchy"
	KindSTIndex   = "s-t index"
)

// derived is a value an Instance derives from its graph on demand: the first
// get builds it on the caller's goroutine, concurrent first callers wait for
// that build, and nothing builds it in the background. A carried value came
// with the instance and is never built or reported.
type derived[T interface{ Bytes() int64 }] struct {
	kind    string
	build   func(*Instance) T
	carried bool
	once    sync.Once
	done    atomic.Bool // v and ms are written
	v       T
	ms      float64
}

// get returns the value, building it on the first call. The builder alone
// reports the build to in.OnDerived, once it has landed and outside the once.
func (d *derived[T]) get(in *Instance) T {
	built := false
	d.once.Do(func() {
		start := time.Now()
		d.v, built = d.build(in), true
		d.ms = time.Since(start).Seconds() * 1e3
		d.done.Store(true)
	})
	if built && in.OnDerived != nil {
		in.OnDerived(d.kind, d.v.Bytes(), d.ms)
	}
	return d.v
}

// peek returns the value once it is there, and ok false before, a build in
// progress included; it never builds or waits.
func (d *derived[T]) peek() (v T, ok bool) {
	if ok = d.done.Load(); ok {
		v = d.v
	}
	return v, ok
}

// NewInstance wraps a graph for the registry's solvers.
func NewInstance(g *graph.Graph, rt par.Runtime) *Instance {
	return NewInstanceWithHierarchy(g, rt, nil)
}

// NewInstanceWithHierarchy wraps a graph together with an already-built
// hierarchy (e.g. loaded from a snapshot), which the instance then carries
// and never builds.
func NewInstanceWithHierarchy(g *graph.Graph, rt par.Runtime, h *ch.Hierarchy) *Instance {
	in := &Instance{G: g, RT: rt, Delta: deltastep.DefaultDelta(g)}
	in.hierarchy.kind, in.hierarchy.build = KindHierarchy, func(in *Instance) *ch.Hierarchy { return ch.BuildKruskal(in.G) }
	in.stIndex.kind, in.stIndex.build = KindSTIndex, func(in *Instance) *dijkstra.STIndex { return dijkstra.NewSTIndex(in.G, in.RT) }
	if h != nil {
		in.hierarchy.once.Do(func() { in.hierarchy.v, in.hierarchy.carried = h, true; in.hierarchy.done.Store(true) })
	}
	return in
}

// Hierarchy returns the instance's Component Hierarchy, built by the first
// call (Kruskal; all constructions yield the same one) unless the instance
// carries one. Only the solvers that read a hierarchy ask for it.
func (in *Instance) Hierarchy() *ch.Hierarchy { return in.hierarchy.get(in) }

// Thorup returns a Thorup solver over the instance's hierarchy (see Hierarchy).
func (in *Instance) Thorup() *core.Solver { return core.NewSolver(in.Hierarchy(), in.RT) }

// STIndex returns the instance's s-t search index, built by the first call on
// the instance's runtime. Only a point-to-point search state asks for it, so
// an instance that never answers a targeted query never holds one.
func (in *Instance) STIndex() *dijkstra.STIndex { return in.stIndex.get(in) }

// HierarchyState reports, without building or waiting, what the instance
// holds: "unbuilt" (nil, a build in progress included), "carried" (what it was
// made with, used or not) or "built" (by the first Hierarchy call, in buildMS).
func (in *Instance) HierarchyState() (h *ch.Hierarchy, state string, buildMS float64) {
	switch h, ok := in.hierarchy.peek(); {
	case in.hierarchy.carried:
		return h, "carried", 0
	case ok:
		return h, "built", in.hierarchy.ms
	}
	return nil, "unbuilt", 0
}

// Built is the bytes of what the instance has built so far, by kind; a
// carried hierarchy is not among it. It never builds or waits.
func (in *Instance) Built() map[string]int64 {
	out := make(map[string]int64, 2)
	if h, ok := in.hierarchy.peek(); ok && !in.hierarchy.carried {
		out[KindHierarchy] = h.Bytes()
	}
	if x, ok := in.stIndex.peek(); ok {
		out[KindSTIndex] = x.Bytes()
	}
	return out
}

// State is one solver's reusable per-query state. It holds no graph: each
// run names the Instance it runs on, so one kept state serves every
// generation of a graph (and resizes its arrays to the run's vertex count). It
// is not safe for concurrent use; concurrency is across states.
type State interface {
	// RunFromSources returns the distance on in from the nearest source for
	// every vertex (graph.Inf where unreachable). Sources must be in range and
	// may repeat; an empty set leaves every vertex at graph.Inf. The result may
	// alias the state and is valid until the next run or Reset. A kernel that
	// looks at ctx (delta, bfs, thorup) stops once it is done and returns nil;
	// the reference solvers (dijkstra, mlb, thorup-serial) run to completion.
	RunFromSources(ctx context.Context, in *Instance, sources []int32) []int64
	// Reset scrubs the state so nothing of the last run leaks to the next
	// user of a kept state. Not required between runs.
	Reset()
}

// StateFunc adapts a kernel that allocates everything per run to State: it
// keeps nothing between runs, so Reset has nothing to scrub.
type StateFunc func(ctx context.Context, in *Instance, sources []int32) []int64

func (f StateFunc) RunFromSources(ctx context.Context, in *Instance, sources []int32) []int64 {
	return f(ctx, in, sources)
}
func (StateFunc) Reset() {}

// Solver is one registered full-distance-vector SSSP implementation.
type Solver struct {
	// Name is the registry key, matching the cmd/sssp -algo spelling.
	Name string
	// UnitWeightsOnly marks solvers whose output equals shortest-path
	// distances only when every edge weighs 1 (BFS).
	UnitWeightsOnly bool
	// NeedsCH marks solvers that consume the Component Hierarchy.
	NeedsCH bool
	// NewState allocates per-query state: the one description of how the
	// solver executes. A serving layer keeps the states; everything else goes
	// through Solve.
	NewState func() State
}

// Solve is a fresh state, one run, and a copy of the result that nothing
// else references.
func (s Solver) Solve(in *Instance, sources []int32) []int64 {
	return append([]int64(nil), s.NewState().RunFromSources(context.Background(), in, sources)...)
}

// PointSearch is one point-to-point solver's reusable per-query state, run on
// the Instance it is given like a State, but keeping nothing of a run (no
// Reset). Not safe for concurrent use.
type PointSearch interface {
	// Distance returns the s-t distance (graph.Inf: unreachable), or ok false
	// once that would take settling more than budget vertices.
	Distance(in *Instance, s, t int32, budget int) (dist int64, settled int, ok bool)
}

// PointToPoint is a solver that answers a single s-t distance query.
type PointToPoint struct {
	Name string
	// NewState allocates per-query state, as Solver's does.
	NewState func() PointSearch
}

// Dist is a fresh state and one search without a budget.
func (p PointToPoint) Dist(in *Instance, s, t int32) int64 {
	d, _, _ := p.NewState().Distance(in, s, t, math.MaxInt)
	return d
}

// thorupState runs a core.State, the exec kernel's arrays alone, on the
// instance's hierarchy (whatever its runtime: the simulated machine's kernel
// is core.Solver's), and Reset lets go of that hierarchy.
type thorupState struct{ core.State }

func (s *thorupState) RunFromSources(ctx context.Context, in *Instance, sources []int32) []int64 {
	return s.State.RunFromSources(ctx, in.Hierarchy(), sources)
}

// dijkstraState runs a dijkstra.Scratch on the instance's graph.
type dijkstraState struct{ *dijkstra.Scratch }

func (s dijkstraState) RunFromSources(_ context.Context, in *Instance, sources []int32) []int64 {
	return s.SSSPFromSources(in.G, sources)
}

// stSearch runs a dijkstra.STScratch on the instance's s-t index.
type stSearch struct{ *dijkstra.STScratch }

func (s stSearch) Distance(in *Instance, src, t int32, budget int) (int64, int, bool) {
	return s.STScratch.Distance(in.STIndex(), src, t, budget)
}

// deltaState runs a deltastep.State on the instance's runtime, graph and
// bucket width, and keeps the phase statistics of its last run.
type deltaState struct {
	*deltastep.State
	last deltastep.Stats
}

func (s *deltaState) RunFromSources(ctx context.Context, in *Instance, sources []int32) (d []int64) {
	d, s.last = s.State.RunFromSources(ctx, in.RT, in.G, sources, in.Delta)
	return d
}

// LastStats returns the statistics of the state's last run.
func (s *deltaState) LastStats() deltastep.Stats { return s.last }

// All returns the registry of full solvers, in a stable order. The returned
// slice is fresh; callers may append (e.g. fault-injected variants in tests).
func All() []Solver {
	return []Solver{
		{
			Name:     "thorup",
			NeedsCH:  true,
			NewState: func() State { return new(thorupState) },
		},
		{
			Name:    "thorup-serial",
			NeedsCH: true,
			NewState: func() State {
				return StateFunc(func(_ context.Context, in *Instance, srcs []int32) []int64 {
					return core.SerialSSSPFromSources(in.Hierarchy(), srcs)
				})
			},
		},
		{
			Name:     "dijkstra",
			NewState: func() State { return dijkstraState{dijkstra.NewScratch()} },
		},
		{
			Name:     "delta",
			NewState: func() State { return &deltaState{State: deltastep.NewState()} },
		},
		{
			Name: "mlb",
			NewState: func() State {
				return StateFunc(func(_ context.Context, in *Instance, srcs []int32) []int64 { return mlb.SSSPFromSources(in.G, srcs) })
			},
		},
		{
			Name:            "bfs",
			UnitWeightsOnly: true,
			NewState: func() State {
				return StateFunc(func(ctx context.Context, in *Instance, srcs []int32) []int64 {
					if level := bfs.ParallelFromSources(ctx, in.RT, in.G, srcs); level != nil {
						return bfs.Distances(level)
					}
					return nil
				})
			},
		},
	}
}

// PointToPoints returns the registered point-to-point solvers.
func PointToPoints() []PointToPoint {
	return []PointToPoint{
		{
			Name:     "bidirectional",
			NewState: func() PointSearch { return stSearch{new(dijkstra.STScratch)} },
		},
	}
}

// ByName looks a full solver up by its registry name.
func ByName(name string) (Solver, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return Solver{}, false
}

// Names returns the registry names in order.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name
	}
	return names
}

// Applicable reports whether the solver's output is exact shortest-path
// distances on g (BFS requires unit weights; an edgeless graph has no
// weights to violate that).
func (s Solver) Applicable(g *graph.Graph) bool {
	if !s.UnitWeightsOnly {
		return true
	}
	return g.NumEdges() == 0 || (g.MinWeight() == 1 && g.MaxWeight() == 1)
}
