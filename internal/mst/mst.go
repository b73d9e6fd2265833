package mst

import (
	"sort"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
)

// Kruskal returns a minimum spanning forest of g as a list of edges, using a
// serial sort plus union-find. For a connected graph the forest has
// n-1 edges. Ties are broken by edge-list order, so the result is
// deterministic.
func Kruskal(g *graph.Graph) []graph.Edge {
	edges := g.Edges()
	idx := make([]int, len(edges))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return edges[idx[a]].W < edges[idx[b]].W })

	parent := make([]int32, g.NumVertices())
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	var forest []graph.Edge
	for _, i := range idx {
		e := edges[i]
		ru, rv := find(e.U), find(e.V)
		if ru == rv {
			continue
		}
		parent[ru] = rv
		forest = append(forest, e)
	}
	return forest
}

// packed candidate: weight in the high 32 bits, edge index in the low 32,
// so an atomic CAS-min picks the lightest edge with deterministic
// index-based tie-breaking (which guarantees the chosen edge set is acyclic).
func pack(w uint32, idx int) int64 {
	return int64(uint64(w)<<32 | uint64(uint32(idx)))
}

const noCandidate int64 = int64(^uint64(0) >> 1) // MaxInt64

// Boruvka returns a minimum spanning forest of g computed with parallel
// Borůvka rounds on the given runtime: each round every component selects its
// minimum outgoing edge concurrently (atomic CAS-min of packed candidates),
// the chosen edges merge components, and labels are flattened by pointer
// jumping. The result is the same forest weight as Kruskal.
func Boruvka(rt par.Runtime, g *graph.Graph) []graph.Edge {
	n := g.NumVertices()
	edges := g.Edges()
	label := make([]int32, n)
	for i := range label {
		label[i] = int32(i)
	}
	best := make([]int64, n)
	var forest []graph.Edge

	for {
		// Reset candidates for live component roots.
		rt.For(n, func(i int) {
			rt.Charge(1)
			atomic.StoreInt64(&best[i], noCandidate)
		})
		// Each edge offers itself to both endpoint components.
		rt.For(len(edges), func(i int) {
			e := edges[i]
			rt.Charge(4)
			lu := atomic.LoadInt32(&label[e.U])
			lv := atomic.LoadInt32(&label[e.V])
			if lu == lv {
				return
			}
			cand := pack(e.W, i)
			par.CASMin(&best[lu], cand)
			par.CASMin(&best[lv], cand)
		})
		// Adopt the chosen edges (serial: at most one per component, and the
		// union-find merge is inherently sequential bookkeeping; its cost is
		// charged to the model).
		merged := false
		for c := 0; c < n; c++ {
			cand := best[c]
			if cand == noCandidate || int32(c) != label[c] {
				continue
			}
			e := edges[int(uint32(uint64(cand)))]
			rt.Charge(4)
			ru, rv := root(label, e.U), root(label, e.V)
			if ru == rv {
				continue // the other endpoint's component already adopted it
			}
			if ru > rv {
				ru, rv = rv, ru
			}
			label[rv] = ru
			forest = append(forest, e)
			merged = true
		}
		if !merged {
			break
		}
		// Flatten labels for the next round.
		flatten(rt, label)
	}
	return forest
}

func root(label []int32, v int32) int32 {
	for label[v] != v {
		v = label[v]
	}
	return v
}

func flatten(rt par.Runtime, label []int32) {
	for {
		var changed int32
		rt.For(len(label), func(vi int) {
			rt.Charge(2)
			v := int32(vi)
			p := atomic.LoadInt32(&label[v])
			pp := atomic.LoadInt32(&label[p])
			if p != pp {
				atomic.StoreInt32(&label[v], pp)
				atomic.StoreInt32(&changed, 1)
			}
		})
		if atomic.LoadInt32(&changed) == 0 {
			return
		}
	}
}

// TotalWeight sums the weights of a forest.
func TotalWeight(forest []graph.Edge) int64 {
	var total int64
	for _, e := range forest {
		total += int64(e.W)
	}
	return total
}
