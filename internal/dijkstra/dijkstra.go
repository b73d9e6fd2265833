package dijkstra

import (
	"repro/internal/graph"
)

// SSSP computes single-source shortest path distances from src with a lazy
// binary heap. Unreachable vertices get graph.Inf.
func SSSP(g *graph.Graph, src int32) []int64 {
	return SSSPFromSources(g, []int32{src})
}

// SSSPFromSources computes, for every vertex, the distance to the nearest of
// sources in one run on a fresh Scratch (see Scratch.SSSPFromSources).
func SSSPFromSources(g *graph.Graph, sources []int32) []int64 {
	return NewScratch().SSSPFromSources(g, sources)
}

// SSSPWithParents additionally returns the shortest-path tree: parent[v] is
// the predecessor of v on a shortest path from src (-1 for src and for
// unreachable vertices).
func SSSPWithParents(g *graph.Graph, src int32) ([]int64, []int32) {
	n := g.NumVertices()
	dist := make([]int64, n)
	parent := make([]int32, n)
	for i := range dist {
		dist[i] = graph.Inf
		parent[i] = -1
	}
	if n == 0 {
		return dist, parent
	}
	dist[src] = 0
	h := lazyHeap{{v: src, d: 0}}
	for len(h) > 0 {
		top := h.pop()
		if top.d > dist[top.v] {
			continue
		}
		ts, ws := g.Neighbors(top.v)
		for i, u := range ts {
			nd := top.d + int64(ws[i])
			if nd < dist[u] {
				dist[u] = nd
				parent[u] = top.v
				h.push(entry{v: u, d: nd})
			}
		}
	}
	return dist, parent
}

type entry struct {
	v int32
	d int64
}

// lazyHeap is a plain binary min-heap of (vertex, distance) entries ordered
// by distance. Inlined rather than using container/heap to avoid interface
// overhead on the hot path.
type lazyHeap []entry

func (h *lazyHeap) push(e entry) {
	*h = append(*h, e)
	i := len(*h) - 1
	s := *h
	for i > 0 {
		p := (i - 1) / 2
		if s[p].d <= s[i].d {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *lazyHeap) pop() entry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(s) && s[l].d < s[min].d {
			min = l
		}
		if r < len(s) && s[r].d < s[min].d {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}
