package dijkstra

import (
	"repro/internal/graph"
)

// Scratch is reusable Dijkstra state — the distance vector and the lazy heap
// — for callers that run many queries and want to amortize the per-query
// allocations to zero (e.g. a pooled serving layer). A Scratch sizes itself
// to whatever graph it is handed, so one instance can serve differently
// sized graphs; it is not safe for concurrent use.
type Scratch struct {
	dist []int64
	heap lazyHeap
}

// NewScratch returns an empty Scratch; buffers are grown on first use.
func NewScratch() *Scratch { return &Scratch{} }

// SSSP is SSSPFromSources from the one source src.
func (sc *Scratch) SSSP(g *graph.Graph, src int32) []int64 {
	return sc.SSSPFromSources(g, []int32{src})
}

// SSSPFromSources computes, for every vertex, the distance to the nearest of
// sources in one run: every source enters the heap at distance 0. Duplicate
// sources are harmless; an empty set leaves every vertex at graph.Inf.
// Sources must be in range. The returned slice aliases the scratch state and
// is valid until the next call.
func (sc *Scratch) SSSPFromSources(g *graph.Graph, sources []int32) []int64 {
	n := g.NumVertices()
	if cap(sc.dist) < n {
		sc.dist = make([]int64, n)
	}
	dist := sc.dist[:n]
	sc.dist = dist
	for i := range dist {
		dist[i] = graph.Inf
	}
	if n == 0 {
		return dist
	}
	h := sc.heap[:0]
	for _, src := range sources {
		if dist[src] != 0 {
			dist[src] = 0
			h = append(h, entry{v: src}) // equal keys: any order is a heap
		}
	}
	for len(h) > 0 {
		top := h.pop()
		if top.d > dist[top.v] {
			continue // stale entry
		}
		ts, ws := g.Neighbors(top.v)
		for i, u := range ts {
			nd := top.d + int64(ws[i])
			if nd < dist[u] {
				dist[u] = nd
				h.push(entry{v: u, d: nd})
			}
		}
	}
	sc.heap = h // empty now, but keeps the grown backing array
	return dist
}

// Bytes is what the scratch keeps between runs: the distances and the heap's
// backing array, counted at their capacity.
func (sc *Scratch) Bytes() int64 { return 8*int64(cap(sc.dist)) + 16*int64(cap(sc.heap)) }

// Reset scrubs the scratch so no distances leak to the next user across a
// pool boundary. Not required between calls — a run reinitialises everything
// it reads.
func (sc *Scratch) Reset() {
	clear(sc.dist)
	sc.heap = sc.heap[:0]
}
