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
// solvers share: the Component Hierarchy (with the Thorup solver over it) and
// the s-t search index, each built only by a solver that needs it, and the
// delta-stepping bucket width.
// Build one per graph and run any number of solvers on it, from any number of
// goroutines.
type Instance struct {
	G  *graph.Graph
	RT *par.Runtime
	// Delta is the delta-stepping bucket width, measured from G's weights
	// (deltastep.DefaultDelta) unless the caller overrides it before the
	// first run.
	Delta int64
	// OnBuild, set before the first run, is told of the instance's one
	// hierarchy build once it has landed, on the goroutine that ran it.
	OnBuild func(h *ch.Hierarchy, ms float64)
	// OnSTIndex is OnBuild for the instance's one s-t search index.
	OnSTIndex func(x *dijkstra.STIndex, ms float64)

	carried  *ch.Hierarchy // what the instance was made with; never written after
	once     sync.Once
	buildMS  float64
	thorup   *core.Solver
	demanded atomic.Pointer[ch.Hierarchy] // thorup's, once the first Thorup call is done

	stOnce  sync.Once
	stIndex atomic.Pointer[dijkstra.STIndex] // once the first STIndex call is done
}

// NewInstance wraps a graph for the registry's solvers.
func NewInstance(g *graph.Graph, rt *par.Runtime) *Instance {
	return NewInstanceWithHierarchy(g, rt, nil)
}

// NewInstanceWithHierarchy wraps a graph together with an already-built
// hierarchy (e.g. loaded from a snapshot), which the instance then never
// builds.
func NewInstanceWithHierarchy(g *graph.Graph, rt *par.Runtime, h *ch.Hierarchy) *Instance {
	return &Instance{G: g, RT: rt, Delta: deltastep.DefaultDelta(g), carried: h}
}

// Thorup returns the instance's shared Thorup solver. The first call makes it,
// building the hierarchy there and then (Kruskal; all constructions yield the
// same one) unless the instance carries one; concurrent first callers block
// until that build is done. Nothing else builds a hierarchy.
func (in *Instance) Thorup() *core.Solver {
	built := false
	in.once.Do(func() {
		h := in.carried
		if h == nil {
			start := time.Now()
			h, built = ch.BuildKruskal(in.G), true
			in.buildMS = time.Since(start).Seconds() * 1e3
		}
		in.thorup = core.NewSolver(h, in.RT)
		in.demanded.Store(h)
	})
	if built && in.OnBuild != nil { // the builder alone, and not under the once
		in.OnBuild(in.thorup.Hierarchy(), in.buildMS)
	}
	return in.thorup
}

// Hierarchy returns the instance's Component Hierarchy (see Thorup).
func (in *Instance) Hierarchy() *ch.Hierarchy { return in.Thorup().Hierarchy() }

// Demanded returns the hierarchy if a Thorup solver has been made over it —
// something asked for it — and nil otherwise, a build in progress included:
// what a mutation asks, without building or waiting, before it repairs one.
func (in *Instance) Demanded() *ch.Hierarchy { return in.demanded.Load() }

// HierarchyState reports, like Demanded without building or waiting, what the
// instance holds: "unbuilt" (nil), "carried" (what it was made with, used or
// not) or "built" (by the first Thorup call, in buildMS).
func (in *Instance) HierarchyState() (h *ch.Hierarchy, state string, buildMS float64) {
	switch h := in.Demanded(); {
	case in.carried != nil:
		return in.carried, "carried", 0
	case h != nil:
		return h, "built", in.buildMS
	}
	return nil, "unbuilt", 0
}

// STIndex returns the instance's s-t search index. The first call builds it,
// on the instance's runtime; concurrent first callers block until that build
// is done. Only a point-to-point search state asks for it, so an instance that
// never answers a targeted query never holds one.
func (in *Instance) STIndex() *dijkstra.STIndex {
	built, ms := false, 0.0
	in.stOnce.Do(func() {
		start := time.Now()
		in.stIndex.Store(dijkstra.NewSTIndex(in.G, in.RT))
		built, ms = true, time.Since(start).Seconds()*1e3
	})
	x := in.stIndex.Load()
	if built && in.OnSTIndex != nil { // the builder alone, and not under the once
		in.OnSTIndex(x, ms)
	}
	return x
}

// BuiltSTIndex returns the s-t search index if a STIndex call has built it,
// and nil otherwise, a build in progress included; it never builds or waits.
func (in *Instance) BuiltSTIndex() *dijkstra.STIndex { return in.stIndex.Load() }

// State is one solver's reusable per-query state, bound to an Instance. It is
// not safe for concurrent use; concurrency is across states.
type State interface {
	// RunFromSources returns the distance from the nearest source for every
	// vertex (graph.Inf where unreachable). Sources must be in range and may
	// repeat; an empty set leaves every vertex at graph.Inf. The result may
	// alias the state and is valid until the next run or Reset. A kernel that
	// looks at ctx (delta, bfs, thorup) stops once it is done and returns nil;
	// the reference solvers (dijkstra, mlb, thorup-serial) run to completion.
	RunFromSources(ctx context.Context, sources []int32) []int64
	// Reset scrubs the state so nothing of the last run leaks to the next
	// user across a pool boundary. Not required between runs.
	Reset()
}

// StateFunc adapts a kernel that allocates everything per run to State: it
// keeps nothing between runs, so Reset has nothing to scrub.
type StateFunc func(ctx context.Context, sources []int32) []int64

func (f StateFunc) RunFromSources(ctx context.Context, sources []int32) []int64 {
	return f(ctx, sources)
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
	// NewState allocates per-query state over the instance: the one
	// description of how the solver executes. A serving layer pools the
	// states; everything else goes through Solve.
	NewState func(in *Instance) State
}

// Solve is a fresh state, one run, and a copy of the result that nothing
// else references.
func (s Solver) Solve(in *Instance, sources []int32) []int64 {
	return append([]int64(nil), s.NewState(in).RunFromSources(context.Background(), sources)...)
}

// PointSearch is one point-to-point solver's reusable per-query state, bound
// to an Instance like a State, but keeping nothing of a run (no Reset). It
// returns the s-t distance (graph.Inf: unreachable), or ok false once that
// would take settling more than budget vertices. Not safe for concurrent use.
type PointSearch func(s, t int32, budget int) (dist int64, settled int, ok bool)

// PointToPoint is a solver that answers a single s-t distance query.
type PointToPoint struct {
	Name string
	// NewState allocates per-query state over the instance, as Solver's does.
	NewState func(in *Instance) PointSearch
}

// Dist is a fresh state and one search without a budget.
func (p PointToPoint) Dist(in *Instance, s, t int32) int64 {
	d, _, _ := p.NewState(in)(s, t, math.MaxInt)
	return d
}

// thorupState is a core.Query answering the empty source set, which core
// rejects, the way every other solver does.
type thorupState struct{ *core.Query }

func (q thorupState) RunFromSources(ctx context.Context, sources []int32) []int64 {
	if len(sources) > 0 {
		return q.Query.RunFromSourcesContext(ctx, sources)
	}
	d := q.Dist()
	for i := range d {
		d[i] = graph.Inf
	}
	return d
}

// dijkstraState binds a dijkstra.Scratch to the instance's graph.
type dijkstraState struct {
	*dijkstra.Scratch
	g *graph.Graph
}

func (s dijkstraState) RunFromSources(_ context.Context, sources []int32) []int64 {
	return s.SSSPFromSources(s.g, sources)
}

// deltaState binds a deltastep.State to the instance's runtime, graph and
// bucket width, and keeps the phase statistics of its last run.
type deltaState struct {
	*deltastep.State
	in   *Instance
	last deltastep.Stats
}

func (s *deltaState) RunFromSources(ctx context.Context, sources []int32) (d []int64) {
	d, s.last = s.State.RunFromSources(ctx, s.in.RT, s.in.G, sources, s.in.Delta)
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
			NewState: func(in *Instance) State { return thorupState{in.Thorup().Query()} },
		},
		{
			Name:    "thorup-serial",
			NeedsCH: true,
			NewState: func(in *Instance) State {
				h := in.Hierarchy()
				return StateFunc(func(_ context.Context, srcs []int32) []int64 { return core.SerialSSSPFromSources(h, srcs) })
			},
		},
		{
			Name:     "dijkstra",
			NewState: func(in *Instance) State { return dijkstraState{dijkstra.NewScratch(), in.G} },
		},
		{
			Name:     "delta",
			NewState: func(in *Instance) State { return &deltaState{State: deltastep.NewState(), in: in} },
		},
		{
			Name: "mlb",
			NewState: func(in *Instance) State {
				return StateFunc(func(_ context.Context, srcs []int32) []int64 { return mlb.SSSPFromSources(in.G, srcs) })
			},
		},
		{
			Name:            "bfs",
			UnitWeightsOnly: true,
			NewState: func(in *Instance) State {
				return StateFunc(func(ctx context.Context, srcs []int32) []int64 {
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
			Name: "bidirectional",
			NewState: func(in *Instance) PointSearch {
				x, sc := in.STIndex(), new(dijkstra.STScratch)
				return func(s, t int32, budget int) (int64, int, bool) { return sc.Distance(x, s, t, budget) }
			},
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
