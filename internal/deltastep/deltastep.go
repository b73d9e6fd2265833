package deltastep

import (
	"context"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/par"
)

// Stats reports the phase structure of one run (useful for analysis and for
// the road-network experiment, where the number of phases explodes). A
// relaxation counts when it lowers a distance, as light iff its arc weighs
// less than Delta. The fields mean the same in both modes, but the counts
// differ between them, because the kernels relax in different orders: in
// exec mode a bucket or phase counts only if it relaxed at least one vertex
// (the sim kernel also counts one holding nothing but outdated entries), so
// Buckets there is the number of distinct buckets among the final distances;
// and a vertex relaxes its heavy arcs every time it is taken, not once when
// its bucket closes, so HeavyRelax is higher.
type Stats struct {
	Buckets     int   // non-empty buckets processed
	Phases      int   // sub-phases of those buckets
	LightRelax  int64 // successful light edge relaxations
	HeavyRelax  int64 // successful heavy edge relaxations
	Reinsertion int64 // vertices rescanned within one bucket

	// Exec mode only: how often the bounded bucket ring came to reach entries
	// queued on the overflow list and was refilled from it, and how many
	// overflow entries those refills looked at.
	Refills         int
	OverflowScanned int64
}

// DefaultDelta measures the bucket width from the weights: the power of two
// with about one arc per vertex below it, found in one pass that counts arcs
// per power-of-two weight class. A run then relaxes about one light arc per
// vertex it takes, whatever the distribution: on uniform weights this is
// within a factor of two of the paper's C/d (PaperDelta); on weights skewed
// toward small values (PWD) it is far below it, where C/d calls nearly every
// arc light and the run degenerates into Bellman-Ford in one bucket. A graph
// with fewer arcs than vertices gets one bucket (the power of two above its
// heaviest arc), an arcless one width 1.
func DefaultDelta(g *graph.Graph) int64 {
	var class [33]int64 // class[j]: arcs with bits.Len32(w) == j, i.e. 2^(j-1) <= w < 2^j
	for _, w := range g.Weights() {
		class[bits.Len32(w)]++
	}
	// The smallest 2^j with at least n arcs below it, or the one above C.
	n, j, below := int64(g.NumVertices()), 0, int64(0)
	for top := bits.Len32(g.MaxWeight()); j < top && below < n; {
		j++
		below += class[j]
	}
	// 2^(j-1) has fewer than n below it; take it if that count is the closer
	// of the two to n in ratio, so that a family sitting on a class boundary
	// (UWD at average degree 8: 0.999n against 2n) does not flip on noise.
	if prev := below - class[j]; below >= n && float64(n)*float64(n) < float64(prev)*float64(below) {
		j--
	}
	return 1 << j
}

// PaperDelta returns the paper's bucket width Delta = C/d, where C is the
// maximum edge weight and d the average degree (at least 1); for d >= C this
// degenerates to Dijkstra-like width 1. It sees only the largest weight, so
// the serving stack uses DefaultDelta; the paper's tables (internal/harness)
// are reproduced with this one.
func PaperDelta(g *graph.Graph) int64 {
	if g.NumVertices() == 0 || g.NumEdges() == 0 {
		return 1
	}
	avgDeg := int64(g.NumArcs()) / int64(g.NumVertices())
	if avgDeg < 1 {
		avgDeg = 1
	}
	d := int64(g.MaxWeight()) / avgDeg
	if d < 1 {
		d = 1
	}
	return d
}

// SSSP computes single-source shortest path distances from src with bucket
// width delta (use DefaultDelta for the standard choice).
func SSSP(rt par.Runtime, g *graph.Graph, src int32, delta int64) []int64 {
	d, _ := Run(rt, g, src, delta)
	return d
}

// Run is SSSP returning phase statistics as well. It allocates fresh state;
// callers running many queries should hold a State and call its Run instead.
func Run(rt par.Runtime, g *graph.Graph, src int32, delta int64) ([]int64, Stats) {
	return NewState().Run(rt, g, src, delta)
}

// State is reusable delta-stepping query state: the distance vector, the
// bucket ring with its overflow list, and every per-phase scratch array.
// Reusing a State across queries amortizes all per-query allocations (a pooled
// serving layer's hot path: a warm exec-mode run allocates nothing); buffers
// grow to the largest graph served and are resliced for smaller ones. A State
// is not safe for concurrent use.
type State struct {
	dist []int64

	// Exec-mode kernel (exec.go).
	bins     [][]entry // the cyclic bucket ring, at most ringBins long
	frontier []entry   // the entries of the bucket phase being relaxed
	overflow []entry   // entries queued for buckets beyond the ring
	least    int64     // a lower bound on those buckets

	sim *simState // sim-mode kernel scratch (sim.go)
}

// NewState returns an empty State; buffers are grown on first use.
func NewState() *State { return &State{} }

// Bytes is what the exec kernel's buffers hold, counted at their capacity:
// the distances, the bins of the bucket ring, the frontier and the overflow
// list. (The simulated machine's scratch is not counted; Reset drops it.)
func (st *State) Bytes() int64 {
	const entryBytes, sliceBytes = 8, 24
	b := 8*int64(cap(st.dist)) + entryBytes*int64(cap(st.frontier)+cap(st.overflow)) + sliceBytes*int64(cap(st.bins))
	for _, bin := range st.bins[:cap(st.bins)] {
		b += entryBytes * int64(cap(bin))
	}
	return b
}

// Reset scrubs the state so nothing leaks to the next user across a pool
// boundary. Not required between runs — a run reinitialises everything it
// reads.
func (st *State) Reset() {
	clear(st.dist)
	clear(st.frontier[:cap(st.frontier)])
	clear(st.overflow[:cap(st.overflow)])
	for _, b := range st.bins[:cap(st.bins)] {
		clear(b[:cap(b)])
	}
	st.sim = nil
}

// Run computes single-source shortest path distances from src with bucket
// width delta, reusing the state's buffers. The returned slice aliases the
// state and is valid until the next run.
func (st *State) Run(rt par.Runtime, g *graph.Graph, src int32, delta int64) ([]int64, Stats) {
	return st.RunFromSources(context.Background(), rt, g, []int32{src}, delta)
}

// RunFromSources computes, for every vertex, the distance to the nearest of
// srcs in one run: every source is seeded at distance 0 in bucket 0.
// Duplicate sources are harmless; an empty set leaves every vertex at
// graph.Inf. Sources must be in range. The returned slice aliases the state
// and is valid until the next run.
//
// A par.Exec takes the exec kernel (exec.go), any other runtime the
// cost-model kernel (sim.go); both return the same distances. The exec kernel
// looks at ctx before every bucket phase and, once it is done, stops and
// returns a nil vector; the sim kernel runs to completion.
func (st *State) RunFromSources(ctx context.Context, rt par.Runtime, g *graph.Graph, srcs []int32, delta int64) ([]int64, Stats) {
	if delta < 1 {
		panic("deltastep: delta must be >= 1")
	}
	n := g.NumVertices()
	if cap(st.dist) < n {
		st.dist = make([]int64, n)
	}
	st.dist = st.dist[:n]
	for i := range st.dist {
		st.dist[i] = graph.Inf
	}
	if n == 0 {
		return st.dist, Stats{}
	}
	if _, exec := rt.(*par.Exec); exec {
		return st.runExec(ctx.Done(), g, srcs, delta)
	}
	return st.runSim(rt, g, srcs, delta)
}
