package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// Inf is the distance value used for unreachable vertices. It is small enough
// that Inf + maxWeight cannot overflow int64.
const Inf int64 = math.MaxInt64 / 4

// MaxWeight is the largest edge weight the builder accepts. Distances are
// accumulated in int64; n * MaxWeight must stay far below Inf.
const MaxWeight uint32 = 1 << 30

// Edge is one undirected edge of the input edge list.
type Edge struct {
	U, V int32  // endpoints
	W    uint32 // positive weight
}

// Graph is an undirected weighted graph in CSR form. The zero value is the
// empty graph. Graph values are immutable after construction and therefore
// safe for concurrent readers, which is what allows many simultaneous SSSP
// computations to share one graph (and one component hierarchy).
type Graph struct {
	n       int32
	m       int64   // number of undirected edges (arcs/2)
	offsets []int64 // len n+1; adjacency of v is [offsets[v], offsets[v+1])
	targets []int32 // len 2m
	weights []uint32
	maxW    uint32
	minW    uint32

	fpOnce sync.Once // memoizes Fingerprint (the arrays are immutable)
	fp     Fingerprint
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return int(g.n) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int64 { return g.m }

// NumArcs returns the number of directed arcs (2 * NumEdges, plus self-loop
// arcs which are stored once).
func (g *Graph) NumArcs() int64 { return int64(len(g.targets)) }

// MaxWeight returns the largest edge weight, or 0 for an edgeless graph.
func (g *Graph) MaxWeight() uint32 { return g.maxW }

// MinWeight returns the smallest edge weight, or 0 for an edgeless graph.
func (g *Graph) MinWeight() uint32 { return g.minW }

// Degree returns the number of arcs out of v.
func (g *Graph) Degree(v int32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the adjacency slices (targets and weights) of v. The
// returned slices alias the graph's internal storage and must not be
// modified.
func (g *Graph) Neighbors(v int32) ([]int32, []uint32) {
	lo, hi := g.offsets[v], g.offsets[v+1]
	return g.targets[lo:hi], g.weights[lo:hi]
}

// AdjOffsets returns the CSR offset array (length NumVertices+1). The slice
// aliases internal storage and must not be modified.
func (g *Graph) AdjOffsets() []int64 { return g.offsets }

// Targets returns the flat CSR target array. Read-only.
func (g *Graph) Targets() []int32 { return g.targets }

// Weights returns the flat CSR weight array. Read-only.
func (g *Graph) Weights() []uint32 { return g.weights }

// Edges returns the undirected edge list (each edge once, U <= V).
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.m)
	for v := int32(0); v < g.n; v++ {
		ts, ws := g.Neighbors(v)
		for i, u := range ts {
			if u >= v { // emit each undirected edge once; self-loops stored once
				edges = append(edges, Edge{U: v, V: u, W: ws[i]})
			}
		}
	}
	return edges
}

// String implements fmt.Stringer with a short structural summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d w=[%d,%d]}", g.n, g.m, g.minW, g.maxW)
}

// Validate checks internal consistency of the CSR arrays. It is used by the
// test suite and by the DIMACS reader on untrusted input. The zero value is
// the empty graph and validates: nil arrays are the CSR form of zero vertices.
func (g *Graph) Validate() error {
	if g.n == 0 && len(g.offsets) == 0 {
		// The zero value stores no offsets array at all; constructed empty
		// graphs store the canonical [0] instead. Both are the empty graph.
		if len(g.targets) != 0 || len(g.weights) != 0 {
			return fmt.Errorf("graph: zero-vertex graph with %d targets and %d weights", len(g.targets), len(g.weights))
		}
		return nil
	}
	if int32(len(g.offsets)) != g.n+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(g.offsets), g.n+1)
	}
	if len(g.targets) != len(g.weights) {
		return fmt.Errorf("graph: %d targets but %d weights", len(g.targets), len(g.weights))
	}
	if g.offsets[0] != 0 {
		return errors.New("graph: offsets[0] != 0")
	}
	for v := int32(0); v < g.n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
	}
	if g.offsets[g.n] != int64(len(g.targets)) {
		return fmt.Errorf("graph: offsets end %d, want %d", g.offsets[g.n], len(g.targets))
	}
	for i, t := range g.targets {
		if t < 0 || t >= g.n {
			return fmt.Errorf("graph: arc %d targets out-of-range vertex %d", i, t)
		}
		if g.weights[i] == 0 {
			return fmt.Errorf("graph: arc %d has zero weight", i)
		}
	}
	// Undirectedness: multiset of (u,v,w) arcs must be symmetric.
	counts := make(map[[3]int64]int64)
	for v := int32(0); v < g.n; v++ {
		ts, ws := g.Neighbors(v)
		for i, u := range ts {
			if u == v {
				continue // self-loops are stored once
			}
			counts[[3]int64{int64(v), int64(u), int64(ws[i])}]++
			counts[[3]int64{int64(u), int64(v), int64(ws[i])}]--
		}
	}
	for k, c := range counts {
		if c != 0 {
			return fmt.Errorf("graph: asymmetric arc (%d,%d,w=%d)", k[0], k[1], k[2])
		}
	}
	return nil
}

// Builder accumulates an edge list and produces a CSR Graph. The DIMACS
// random generator "may produce parallel edges as well as self-loops"
// (paper §4.2); the builder preserves both unless DropParallelEdges/
// DropSelfLoops are set, matching the instances the paper studies.
type Builder struct {
	n            int32
	edges        []Edge
	dropLoops    bool
	dropParallel bool
}

// NewBuilder returns a builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("graph: invalid vertex count %d", n))
	}
	return &Builder{n: int32(n)}
}

// DropSelfLoops makes Build discard self-loops (they never affect shortest
// paths but do occupy storage).
func (b *Builder) DropSelfLoops() *Builder { b.dropLoops = true; return b }

// DropParallelEdges makes Build keep only the lightest copy of each parallel
// edge.
func (b *Builder) DropParallelEdges() *Builder { b.dropParallel = true; return b }

// AddEdge records one undirected edge. It returns an error for out-of-range
// endpoints or a non-positive/oversized weight.
func (b *Builder) AddEdge(u, v int32, w uint32) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if w == 0 {
		return fmt.Errorf("graph: edge (%d,%d) has zero weight; Thorup requires positive integer weights (contract zero-weight edges first)", u, v)
	}
	if w > MaxWeight {
		return fmt.Errorf("graph: edge (%d,%d) weight %d exceeds MaxWeight %d", u, v, w, MaxWeight)
	}
	b.edges = append(b.edges, Edge{U: u, V: v, W: w})
	return nil
}

// MustAddEdge is AddEdge that panics on error; used by tests and generators
// whose inputs are valid by construction.
func (b *Builder) MustAddEdge(u, v int32, w uint32) {
	if err := b.AddEdge(u, v, w); err != nil {
		panic(err)
	}
}

// NumPendingEdges reports how many edges have been added so far.
func (b *Builder) NumPendingEdges() int { return len(b.edges) }

// Build produces the CSR graph. The builder may be reused afterwards.
func (b *Builder) Build() *Graph {
	edges := b.edges
	if b.dropLoops || b.dropParallel {
		edges = filterEdges(edges, b.dropLoops, b.dropParallel)
	}
	return FromEdges(int(b.n), edges)
}

func filterEdges(edges []Edge, dropLoops, dropParallel bool) []Edge {
	out := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if dropLoops && e.U == e.V {
			continue
		}
		out = append(out, e)
	}
	if !dropParallel {
		return out
	}
	// Keep the lightest copy of each parallel edge.
	norm := func(e Edge) Edge {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		return e
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := norm(out[i]), norm(out[j])
		if a.U != b.U {
			return a.U < b.U
		}
		if a.V != b.V {
			return a.V < b.V
		}
		return a.W < b.W
	})
	dedup := out[:0]
	for i, e := range out {
		if i > 0 {
			p := norm(out[i-1])
			q := norm(e)
			if p.U == q.U && p.V == q.V {
				continue
			}
		}
		dedup = append(dedup, e)
	}
	return dedup
}

// FromEdges builds a CSR graph directly from an undirected edge list. Each
// edge {U,V,W} produces arcs in both adjacency lists (one arc for a
// self-loop), in list order. Weights must be positive; FromEdges panics
// otherwise, since the Builder and DIMACS reader validate weights at the
// boundary. It is FromBlocks on one block.
func FromEdges(n int, edges []Edge) *Graph {
	return FromBlocks(n, [][]Edge{edges}, nil, 1)
}

// InducedSubgraph returns the subgraph induced by the given vertices together
// with the mapping from new vertex indices to old ones. This mirrors the MTGL
// subgraph-extraction primitive the paper leverages.
func (g *Graph) InducedSubgraph(vertices []int32) (*Graph, []int32) {
	old2new := make(map[int32]int32, len(vertices))
	new2old := make([]int32, len(vertices))
	for i, v := range vertices {
		old2new[v] = int32(i)
		new2old[i] = v
	}
	var edges []Edge
	for i, v := range vertices {
		ts, ws := g.Neighbors(v)
		for k, u := range ts {
			nu, ok := old2new[u]
			if !ok {
				continue
			}
			// Emit each undirected edge once: by (new endpoint) order.
			if u == v {
				// Self-loop: CSR stores it once, emit once.
				edges = append(edges, Edge{U: int32(i), V: int32(i), W: ws[k]})
			} else if nu > int32(i) {
				edges = append(edges, Edge{U: int32(i), V: nu, W: ws[k]})
			}
		}
	}
	return FromEdges(len(vertices), edges), new2old
}

// Contract collapses vertices into super-vertices according to label: every
// vertex v belongs to super-vertex label[v] (labels must be dense in
// [0, numLabels)). Edges inside a super-vertex disappear; edges between
// super-vertices are kept (with multiplicity, like Algorithm 1's G”
// construction in the paper). Self-loops created by contraction are dropped.
func (g *Graph) Contract(label []int32, numLabels int) *Graph {
	edges := make([]Edge, 0, g.m)
	for v := int32(0); v < g.n; v++ {
		ts, ws := g.Neighbors(v)
		lv := label[v]
		for i, u := range ts {
			if u < v {
				continue // each undirected edge once
			}
			lu := label[u]
			if lu == lv {
				continue
			}
			edges = append(edges, Edge{U: lv, V: lu, W: ws[i]})
		}
	}
	return FromEdges(numLabels, edges)
}

// ContractZeroEdges implements the preprocessing the paper notes is required
// when the input contains zero-weight edges (§2.1): vertices connected by
// zero-weight edges are merged into one vertex. It takes a raw edge list
// (which, unlike Builder input, may contain zero weights) and returns the
// contracted graph plus the mapping from original vertex to merged vertex.
func ContractZeroEdges(n int, edges []Edge) (*Graph, []int32) {
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		if e.W == 0 {
			ru, rv := find(e.U), find(e.V)
			if ru != rv {
				parent[ru] = rv
			}
		}
	}
	// Dense renumbering of roots.
	label := make([]int32, n)
	next := int32(0)
	for v := 0; v < n; v++ {
		r := find(int32(v))
		if int32(v) == r {
			label[v] = next
			next++
		}
	}
	for v := 0; v < n; v++ {
		label[v] = label[find(int32(v))]
	}
	out := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if e.W == 0 {
			continue
		}
		lu, lv := label[e.U], label[e.V]
		if lu == lv {
			// A positive-weight edge whose endpoints are joined by zero-weight
			// paths can never be on a shortest path; drop it.
			continue
		}
		out = append(out, Edge{U: lu, V: lv, W: e.W})
	}
	return FromEdges(int(next), out), label
}

// DegreeStats summarises the degree distribution.
type DegreeStats struct {
	Min, Max int
	Mean     float64
}

// Degrees computes degree statistics over all vertices.
func (g *Graph) Degrees() DegreeStats {
	if g.n == 0 {
		return DegreeStats{}
	}
	st := DegreeStats{Min: math.MaxInt}
	total := 0
	for v := int32(0); v < g.n; v++ {
		d := g.Degree(v)
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
		total += d
	}
	st.Mean = float64(total) / float64(g.n)
	return st
}

// MemoryBytes estimates the resident size of the CSR arrays, used for the
// Table 2 "instance memory" column.
func (g *Graph) MemoryBytes() int64 {
	return int64(len(g.offsets))*8 + int64(len(g.targets)+len(g.weights))*4
}
