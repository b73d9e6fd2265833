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

// SSSPIndexed computes the same distances with an indexed 4-ary heap and true
// decrease-key (one heap entry per vertex).
func SSSPIndexed(g *graph.Graph, src int32) []int64 {
	n := g.NumVertices()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = graph.Inf
	}
	if n == 0 {
		return dist
	}
	h := newIndexedHeap(n)
	dist[src] = 0
	h.insertOrDecrease(src, 0)
	for h.size > 0 {
		v, d := h.popMin()
		ts, ws := g.Neighbors(v)
		for i, u := range ts {
			nd := d + int64(ws[i])
			if nd < dist[u] {
				dist[u] = nd
				h.insertOrDecrease(u, nd)
			}
		}
	}
	return dist
}

// indexedHeap is a 4-ary min-heap keyed by distance with a position index per
// vertex, supporting decrease-key.
type indexedHeap struct {
	verts []int32 // heap array of vertex ids
	keys  []int64 // parallel keys
	pos   []int32 // vertex -> heap index, -1 if absent
	size  int
}

func newIndexedHeap(n int) *indexedHeap {
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	return &indexedHeap{
		verts: make([]int32, 0, 64),
		keys:  make([]int64, 0, 64),
		pos:   pos,
	}
}

func (h *indexedHeap) insertOrDecrease(v int32, key int64) {
	if p := h.pos[v]; p >= 0 {
		if key < h.keys[p] {
			h.keys[p] = key
			h.siftUp(int(p))
		}
		return
	}
	h.verts = append(h.verts[:h.size], v)
	h.keys = append(h.keys[:h.size], key)
	h.pos[v] = int32(h.size)
	h.size++
	h.siftUp(h.size - 1)
}

func (h *indexedHeap) popMin() (int32, int64) {
	v, k := h.verts[0], h.keys[0]
	h.pos[v] = -1
	h.size--
	if h.size > 0 {
		h.verts[0] = h.verts[h.size]
		h.keys[0] = h.keys[h.size]
		h.pos[h.verts[0]] = 0
		h.siftDown(0)
	}
	return v, k
}

func (h *indexedHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 4
		if h.keys[p] <= h.keys[i] {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *indexedHeap) siftDown(i int) {
	for {
		first := 4*i + 1
		if first >= h.size {
			return
		}
		min := i
		last := first + 4
		if last > h.size {
			last = h.size
		}
		for c := first; c < last; c++ {
			if h.keys[c] < h.keys[min] {
				min = c
			}
		}
		if min == i {
			return
		}
		h.swap(i, min)
		i = min
	}
}

func (h *indexedHeap) swap(i, j int) {
	h.verts[i], h.verts[j] = h.verts[j], h.verts[i]
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
	h.pos[h.verts[i]] = int32(i)
	h.pos[h.verts[j]] = int32(j)
}
