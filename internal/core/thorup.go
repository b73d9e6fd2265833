package core

import (
	"context"
	"fmt"

	"repro/internal/ch"
	"repro/internal/graph"
	"repro/internal/par"
)

// Strategy selects how the sim kernel parallelizes toVisit-set loops.
type Strategy int

const (
	// Naive runs every toVisit loop on all processors ("Thorup A").
	Naive Strategy = iota
	// Selective chooses serial / single-processor / multi-processor from the
	// iteration count ("Thorup B").
	Selective
)

func (s Strategy) String() string {
	switch s {
	case Naive:
		return "naive"
	case Selective:
		return "selective"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Solver runs Thorup SSSP queries over a shared Component Hierarchy. The
// runtime picks the kernel once, for every query the solver hands out: a
// par.Exec gets the serving kernel (exec.go), any other runtime — the
// simulated machine — the cost-model kernel (sim.go). Both return the same
// distances.
type Solver struct {
	h          *ch.Hierarchy
	rt         par.Runtime
	strategy   Strategy
	thresholds par.Thresholds
}

// Option configures a Solver.
type Option func(*Solver)

// WithStrategy selects the toVisit strategy (default Selective). Sim-only:
// the exec kernel runs each query on one goroutine and has no such loops.
func WithStrategy(s Strategy) Option {
	return func(sv *Solver) { sv.strategy = s }
}

// WithThresholds overrides the selective-parallelization thresholds.
// Sim-only, like WithStrategy.
func WithThresholds(t par.Thresholds) Option {
	return func(sv *Solver) { sv.thresholds = t }
}

// NewSolver creates a solver over the hierarchy, executing on rt.
func NewSolver(h *ch.Hierarchy, rt par.Runtime, opts ...Option) *Solver {
	s := &Solver{h: h, rt: rt, strategy: Selective, thresholds: par.DefaultThresholds}
	for _, o := range opts {
		o(s)
	}
	return s
}

// simulated reports whether queries take the cost-model kernel.
func (s *Solver) simulated() bool {
	_, exec := s.rt.(*par.Exec)
	return !exec
}

// Query holds the per-query state of one SSSP computation. Queries are cheap
// relative to the graph ("it is more memory efficient to allocate a new
// instance of the CH than to create a copy of the entire graph", paper §5.2)
// and reusable: Run resets all state. A Query is not safe for concurrent
// use; concurrency is across queries, each on its own goroutine.
type Query struct {
	s     *Solver
	trace *Trace    // optional event counters, nil unless EnableTrace
	exec  *State    // a real runtime's state, else nil
	sim   *simState // a simulated runtime's state, else nil
}

// Query allocates per-query state bound to this solver: the state of the
// kernel its runtime takes, and only that.
func (s *Solver) Query() *Query {
	q := &Query{s: s}
	if s.simulated() {
		q.sim = newSimState(s)
	} else {
		q.exec = new(State)
		q.exec.bind(s.h)
	}
	return q
}

// InstanceBytes is the memory footprint of one query instance on this
// solver's runtime; on a simulated one it is the paper's Table 2 "instance"
// column. It is a pure function of the hierarchy's dimensions, so callers
// reporting it need not allocate a Query.
func (s *Solver) InstanceBytes() int64 {
	if s.simulated() {
		return simBytes(s.h)
	}
	return execBytes(s.h)
}

// InstanceBytes is the memory footprint of this query instance, counted from
// the arrays it holds.
func (q *Query) InstanceBytes() int64 {
	if q.sim != nil {
		return q.sim.bytes()
	}
	return q.exec.bytes()
}

// SSSP is a convenience one-shot: build a query, run it, return distances.
func (s *Solver) SSSP(src int32) []int64 {
	return s.Query().Run(src)
}

// EnableTrace turns on event counting for this query and returns the counter
// block (reset on every Run). The exec kernel always counts in plain
// per-query words, which it hands out, so tracing costs it nothing; the sim
// kernel pays a few atomic increments per event.
func (q *Query) EnableTrace() *Trace {
	if q.exec != nil {
		q.trace = &q.exec.tr
	} else {
		q.trace = &Trace{}
		q.sim.trace = q.trace
	}
	return q.trace
}

// Trace returns the counter block installed by EnableTrace, or nil when
// tracing is off.
func (q *Query) Trace() *Trace { return q.trace }

// Reset scrubs the query back to the state of a freshly allocated instance:
// every word of per-query state zeroed, and any enabled trace cleared
// (tracing itself stays on). Run resets everything it reads, so Reset is not
// required between runs; it exists so reused instances (the states a
// serving layer keeps) carry no residue of the previous query across requests, and
// so tests can prove reuse is indistinguishable from a fresh allocation. It
// runs serially and charges nothing to the runtime, making it safe to call
// outside any parallel region.
func (q *Query) Reset() {
	if q.sim != nil {
		q.sim.reset()
	} else {
		q.exec.Reset()
	}
	if q.trace != nil {
		*q.trace = Trace{}
	}
}

// Run computes shortest path distances from src. The returned slice aliases
// the query's internal state and is valid until the next Run.
func (q *Query) Run(src int32) []int64 {
	return q.RunFromSources([]int32{src})
}

// RunFromSources computes, for every vertex, the distance to the nearest of
// the given source vertices (multi-source SSSP / nearest-facility search).
// With one source this is ordinary SSSP; Thorup's invariants are unaffected
// by several distance-zero leaves. The returned slice aliases the query's
// internal state and is valid until the next Run.
func (q *Query) RunFromSources(sources []int32) []int64 {
	return q.RunFromSourcesContext(context.Background(), sources)
}

// RunFromSourcesContext is RunFromSources under ctx. The exec kernel looks at
// ctx every few thousand settled vertices and, once it is done, stops and
// returns nil; the sim kernel runs to completion.
func (q *Query) RunFromSourcesContext(ctx context.Context, sources []int32) []int64 {
	if q.s.h.NumLeaves() == 0 {
		return q.Dist()
	}
	if len(sources) == 0 {
		panic("core: no source vertices")
	}
	if q.sim != nil {
		checkSources(q.s.h, sources)
		return q.sim.run(sources)
	}
	return q.exec.RunFromSources(ctx, q.s.h, sources)
}

// checkSources panics unless every source is one of h's vertex ids.
func checkSources(h *ch.Hierarchy, sources []int32) {
	n := h.NumLeaves()
	for _, src := range sources {
		if src < 0 || int(src) >= n {
			panic(fmt.Sprintf("core: source %d out of range [0,%d)", src, n))
		}
	}
}

// Parents derives shortest-path-tree parent pointers from the distances of
// the last Run: parent[v] is a neighbour u with dist[u] + w(u,v) == dist[v],
// or -1 for sources and unreachable vertices. The scan is race-free (it runs
// after the query) and parallel.
func (q *Query) Parents() []int32 {
	h := q.s.h
	g := h.Graph()
	n := h.NumLeaves()
	dist := q.Dist()
	parent := make([]int32, n)
	q.s.rt.For(n, func(vi int) {
		v := int32(vi)
		parent[v] = -1
		dv := dist[v]
		if dv == graph.Inf || dv == 0 {
			return
		}
		ts, ws := g.Neighbors(v)
		q.s.rt.Charge(int64(len(ts)))
		for i, u := range ts {
			if u != v && dist[u]+int64(ws[i]) == dv {
				parent[v] = u
				return
			}
		}
	})
	return parent
}

// Dist returns the distance slice of the last Run.
func (q *Query) Dist() []int64 {
	if q.sim != nil {
		return q.sim.dist
	}
	return q.exec.dist()
}
