package mlb

import (
	"repro/internal/graph"
)

// SSSP computes single-source shortest path distances from src using
// multi-level buckets with the caliber heuristic.
func SSSP(g *graph.Graph, src int32) []int64 {
	return run(g, []int32{src}, true)
}

// SSSPNoCaliber is SSSP without the caliber heuristic (pure multi-level
// buckets).
func SSSPNoCaliber(g *graph.Graph, src int32) []int64 {
	return run(g, []int32{src}, false)
}

// SSSPFromSources is SSSP from the nearest of sources (in range) in one run:
// each starts on the exact list at distance 0. Duplicates are harmless; an
// empty set leaves every vertex at graph.Inf.
func SSSPFromSources(g *graph.Graph, sources []int32) []int64 {
	return run(g, sources, true)
}

func run(g *graph.Graph, sources []int32, useCaliber bool) []int64 {
	n := g.NumVertices()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = graph.Inf
	}
	if n == 0 {
		return dist
	}

	var caliber []uint32
	if useCaliber {
		caliber = make([]uint32, n)
		for v := int32(0); v < int32(n); v++ {
			_, ws := g.Neighbors(v)
			min := uint32(1<<31 - 1)
			for _, w := range ws {
				if w < min {
					min = w
				}
			}
			caliber[v] = min
		}
	}

	h := newRadixHeap(n)
	settled := make([]bool, n)

	// exact holds vertices proven settled but not yet scanned.
	exact := make([]int32, 0, 64)
	for _, src := range sources {
		dist[src] = 0
		exact = append(exact, src)
	}

	scan := func(v int32) {
		if settled[v] {
			return
		}
		settled[v] = true
		dv := dist[v]
		ts, ws := g.Neighbors(v)
		for i, u := range ts {
			if settled[u] {
				continue
			}
			nd := dv + int64(ws[i])
			if nd >= dist[u] {
				continue
			}
			dist[u] = nd
			if useCaliber && nd <= h.mu+int64(caliber[u]) {
				// Caliber rule: no unsettled vertex can have distance below
				// mu, and every path into u pays at least caliber(u) more,
				// so nd is already exact.
				h.removeIfPresent(u)
				exact = append(exact, u)
				continue
			}
			h.insertOrDecrease(u, nd)
		}
	}

	for {
		for len(exact) > 0 {
			v := exact[len(exact)-1]
			exact = exact[:len(exact)-1]
			scan(v)
		}
		v, ok := h.popMin()
		if !ok {
			return dist
		}
		scan(v)
	}
}

// maxBuckets covers keys up to n*C <= 2^51 comfortably: bucket widths grow as
// 1, 1, 2, 4, ..., so 54 buckets span more than 2^52.
const maxBuckets = 54

// radixHeap is a monotone priority queue over vertex ids keyed by tentative
// distance — the Ahuja–Mehlhorn–Orlin–Tarjan formulation of multi-level
// buckets. Bucket i holds keys in (bound[i-1], bound[i]]; the bounds are
// absolute and only tighten when the lowest non-empty bucket is redistributed
// around its minimum, which keeps every placement permanently valid. One
// entry per vertex; positions are tracked for removal/decrease.
type radixHeap struct {
	buckets [maxBuckets][]int32
	bound   [maxBuckets]int64 // bound[i] = largest key admitted to bucket i
	bucket  []int8            // vertex -> bucket id, -1 if absent
	pos     []int32           // vertex -> index within its bucket
	key     []int64           // vertex -> current key
	mu      int64             // largest extracted key (lower bound on live keys)
	size    int
}

func newRadixHeap(n int) *radixHeap {
	h := &radixHeap{
		bucket: make([]int8, n),
		pos:    make([]int32, n),
		key:    make([]int64, n),
	}
	for i := range h.bucket {
		h.bucket[i] = -1
	}
	h.bound[0] = 0
	for i := 1; i < maxBuckets; i++ {
		h.bound[i] = saturatingAdd(h.bound[i-1], int64(1)<<uint(i-1))
	}
	h.bound[maxBuckets-1] = graph.Inf // top bucket is open-ended
	return h
}

func saturatingAdd(a, b int64) int64 {
	if a > graph.Inf-b {
		return graph.Inf
	}
	return a + b
}

func (h *radixHeap) bucketFor(key int64) int8 {
	// Binary search over the 54 monotone bounds.
	lo, hi := 0, maxBuckets-1
	for lo < hi {
		mid := (lo + hi) / 2
		if key <= h.bound[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return int8(lo)
}

func (h *radixHeap) place(v int32, b int8) {
	h.bucket[v] = b
	h.pos[v] = int32(len(h.buckets[b]))
	h.buckets[b] = append(h.buckets[b], v)
}

func (h *radixHeap) removeIfPresent(v int32) {
	b := h.bucket[v]
	if b < 0 {
		return
	}
	lst := h.buckets[b]
	i := h.pos[v]
	last := int32(len(lst)) - 1
	if i != last {
		moved := lst[last]
		lst[i] = moved
		h.pos[moved] = i
	}
	h.buckets[b] = lst[:last]
	h.bucket[v] = -1
	h.size--
}

// insertOrDecrease sets v's key (which must be >= mu and, if v is present,
// <= its current key) and places it in the right bucket.
func (h *radixHeap) insertOrDecrease(v int32, key int64) {
	if h.bucket[v] >= 0 {
		if key >= h.key[v] {
			return
		}
		h.removeIfPresent(v)
	}
	h.key[v] = key
	h.place(v, h.bucketFor(key))
	h.size++
}

// popMin extracts a vertex with the minimum key and advances mu to it.
func (h *radixHeap) popMin() (int32, bool) {
	if h.size == 0 {
		return -1, false
	}
	if len(h.buckets[0]) == 0 {
		// Find the lowest non-empty bucket, tighten the bounds of everything
		// below it around that bucket's minimum key, and redistribute its
		// entries. The geometric widths guarantee buckets 0..j-1 can absorb
		// bucket j's whole range.
		j := 1
		for len(h.buckets[j]) == 0 {
			j++
		}
		min := h.key[h.buckets[j][0]]
		for _, v := range h.buckets[j][1:] {
			if h.key[v] < min {
				min = h.key[v]
			}
		}
		h.bound[0] = min
		for i := 1; i < j; i++ {
			b := saturatingAdd(h.bound[i-1], int64(1)<<uint(i-1))
			if b > h.bound[j] {
				b = h.bound[j]
			}
			h.bound[i] = b
		}
		moved := h.buckets[j]
		h.buckets[j] = nil
		for _, v := range moved {
			h.place(v, h.bucketFor(h.key[v]))
		}
	}
	// Pop from bucket 0 (all keys there equal bound[0], the current minimum).
	lst := h.buckets[0]
	v := lst[len(lst)-1]
	h.buckets[0] = lst[:len(lst)-1]
	h.bucket[v] = -1
	h.size--
	h.mu = h.key[v]
	return v, true
}
