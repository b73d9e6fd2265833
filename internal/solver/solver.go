package solver

import (
	"repro/internal/bfs"
	"repro/internal/ch"
	"repro/internal/core"
	"repro/internal/deltastep"
	"repro/internal/dijkstra"
	"repro/internal/graph"
	"repro/internal/mlb"
	"repro/internal/par"
)

// Instance bundles a graph with the runtime and the lazily-built Component
// Hierarchy the CH-based solvers share. Build one Instance per graph and run
// any number of solvers against it; the hierarchy is constructed at most once.
type Instance struct {
	G  *graph.Graph
	RT *par.Runtime
	h  *ch.Hierarchy
}

// NewInstance wraps a graph for the registry's solvers.
func NewInstance(g *graph.Graph, rt *par.Runtime) *Instance {
	return &Instance{G: g, RT: rt}
}

// NewInstanceWithHierarchy wraps a graph together with an already-built
// hierarchy (e.g. loaded from a cache file), skipping the lazy construction.
func NewInstanceWithHierarchy(g *graph.Graph, rt *par.Runtime, h *ch.Hierarchy) *Instance {
	return &Instance{G: g, RT: rt, h: h}
}

// Hierarchy returns the instance's Component Hierarchy, building it on first
// use (Kruskal construction; all constructions yield the same hierarchy).
func (in *Instance) Hierarchy() *ch.Hierarchy {
	if in.h == nil {
		in.h = ch.BuildKruskal(in.G)
	}
	return in.h
}

// Solver is one registered full-distance-vector SSSP implementation.
type Solver struct {
	// Name is the registry key, matching the cmd/sssp -algo spelling.
	Name string
	// NativeMultiSource reports whether Solve handles len(sources) > 1 in a
	// single run (rather than by the registry's per-source min fold).
	NativeMultiSource bool
	// UnitWeightsOnly marks solvers whose output equals shortest-path
	// distances only when every edge weighs 1 (BFS).
	UnitWeightsOnly bool
	// Parallel marks solvers that run goroutines on the instance runtime,
	// i.e. the ones worth exercising under the race detector.
	Parallel bool
	// NeedsCH marks solvers that consume the Component Hierarchy.
	NeedsCH bool
	// Solve returns the distance from the nearest source for every vertex
	// (graph.Inf where unreachable). sources must be non-empty and in range.
	Solve func(in *Instance, sources []int32) []int64
}

// PointToPoint is a solver that answers a single s-t distance query.
type PointToPoint struct {
	Name string
	Dist func(in *Instance, s, t int32) int64
}

// foldSingle answers a multi-source query with a single-source solver: the
// distance to the nearest of several sources is the elementwise minimum of
// the individual single-source labellings.
func foldSingle(run func(src int32) []int64, sources []int32) []int64 {
	out := run(sources[0])
	for _, s := range sources[1:] {
		for v, d := range run(s) {
			if d < out[v] {
				out[v] = d
			}
		}
	}
	return out
}

// All returns the registry of full solvers, in a stable order. The returned
// slice is fresh; callers may append (e.g. fault-injected variants in tests).
func All() []Solver {
	return []Solver{
		{
			Name:              "thorup",
			NativeMultiSource: true,
			Parallel:          true,
			NeedsCH:           true,
			Solve: func(in *Instance, sources []int32) []int64 {
				q := core.NewSolver(in.Hierarchy(), in.RT).Query()
				d := q.RunFromSources(sources)
				out := make([]int64, len(d))
				copy(out, d) // detach from the query's reusable state
				return out
			},
		},
		{
			Name:              "thorup-serial",
			NativeMultiSource: true,
			NeedsCH:           true,
			Solve: func(in *Instance, sources []int32) []int64 {
				return core.SerialSSSPFromSources(in.Hierarchy(), sources)
			},
		},
		{
			Name: "dijkstra",
			Solve: func(in *Instance, sources []int32) []int64 {
				return foldSingle(func(s int32) []int64 { return dijkstra.SSSP(in.G, s) }, sources)
			},
		},
		{
			Name:              "delta",
			NativeMultiSource: true,
			Parallel:          true,
			Solve: func(in *Instance, sources []int32) []int64 {
				d, _ := deltastep.NewState().RunFromSources(in.RT, in.G, sources, deltastep.DefaultDelta(in.G))
				return d
			},
		},
		{
			Name: "mlb",
			Solve: func(in *Instance, sources []int32) []int64 {
				return foldSingle(func(s int32) []int64 { return mlb.SSSP(in.G, s) }, sources)
			},
		},
		{
			Name:            "bfs",
			UnitWeightsOnly: true,
			Parallel:        true,
			Solve: func(in *Instance, sources []int32) []int64 {
				return foldSingle(func(s int32) []int64 {
					return bfs.Distances(bfs.Parallel(in.RT, in.G, s))
				}, sources)
			},
		},
	}
}

// PointToPoints returns the registered point-to-point solvers.
func PointToPoints() []PointToPoint {
	return []PointToPoint{
		{
			Name: "bidirectional",
			Dist: func(in *Instance, s, t int32) int64 {
				return dijkstra.STDistance(in.G, s, t)
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
