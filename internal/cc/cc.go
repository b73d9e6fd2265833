package cc

import (
	"math"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
)

// All is an exclusive weight bound that admits every edge (weights are
// bounded by graph.MaxWeight < All).
const All uint32 = math.MaxUint32

// SerialBFS labels components by breadth-first sweeps considering only edges
// with weight < below. It returns the dense labelling and component count.
func SerialBFS(g *graph.Graph, below uint32) ([]int32, int) {
	n := g.NumVertices()
	label := make([]int32, n)
	for i := range label {
		label[i] = -1
	}
	count := int32(0)
	queue := make([]int32, 0, 64)
	for s := 0; s < n; s++ {
		if label[s] >= 0 {
			continue
		}
		label[s] = count
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			ts, ws := g.Neighbors(v)
			for i, u := range ts {
				if ws[i] < below && label[u] < 0 {
					label[u] = count
					queue = append(queue, u)
				}
			}
		}
		count++
	}
	return label, int(count)
}

// UnionFind labels components with a serial union-find (union by smaller
// root id, path halving) considering only edges with weight < below.
func UnionFind(g *graph.Graph, below uint32) ([]int32, int) {
	n := g.NumVertices()
	parent := make([]int32, n)
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
	for v := int32(0); v < int32(n); v++ {
		ts, ws := g.Neighbors(v)
		for i, u := range ts {
			if ws[i] >= below {
				continue
			}
			ru, rv := find(u), find(v)
			if ru == rv {
				continue
			}
			// Union by smaller id keeps the min-id root invariant.
			if ru < rv {
				parent[rv] = ru
			} else {
				parent[ru] = rv
			}
		}
	}
	label := make([]int32, n)
	for v := 0; v < n; v++ {
		label[v] = find(int32(v))
	}
	return densify(label)
}

// ShiloachVishkin labels components with the classic parallel algorithm:
// alternate hooking of roots onto smaller-labelled neighbours with pointer
// jumping, running on the given runtime. Only edges with weight < below
// participate.
func ShiloachVishkin(rt par.Runtime, g *graph.Graph, below uint32) ([]int32, int) {
	n := g.NumVertices()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	if n == 0 {
		return parent, 0
	}
	edges := lightEdges(rt, g, below)
	for {
		var changed int32
		// Hook phase: for every light edge, hook the root of the larger
		// endpoint label onto the smaller. The loop is flat over edges (as in
		// MTGL) so contracted hub vertices cannot serialize it. All hooks
		// funnel through roots — the hot spot the bully algorithm avoids.
		rt.ForAuto(par.DefaultThresholds, len(edges), func(i int) {
			e := edges[i]
			rt.Charge(4)
			pu := atomic.LoadInt32(&parent[e.U])
			pv := atomic.LoadInt32(&parent[e.V])
			if pu == pv {
				return
			}
			lo, hi := pu, pv
			if lo > hi {
				lo, hi = hi, lo
			}
			// Hook only if hi is currently a root.
			if atomic.LoadInt32(&parent[hi]) == hi &&
				atomic.CompareAndSwapInt32(&parent[hi], hi, lo) {
				atomic.StoreInt32(&changed, 1)
			}
		})
		// Shortcut phase: full pointer jumping to flatten the forest.
		pointerJump(rt, parent)
		if atomic.LoadInt32(&changed) == 0 {
			break
		}
	}
	return densifyAtomic(rt, parent)
}

// lightEdges extracts the undirected edges below the weight bound as a flat
// array — the edge-centric layout the parallel kernels iterate over.
func lightEdges(rt par.Runtime, g *graph.Graph, below uint32) []graph.Edge {
	all := g.Edges()
	rt.ChargeLoop(par.DefaultThresholds.Mode(int(g.NumArcs())), int(g.NumArcs()), 1)
	out := all[:0]
	for _, e := range all {
		if e.W < below && e.U != e.V {
			out = append(out, e)
		}
	}
	return out
}

// Bully labels components with an aggressive-grafting kernel in the spirit of
// the MTGL bully algorithm: every arc tries to lower both the parent and the
// grandparent of each endpoint toward the other side's grandparent, so
// updates diffuse through the tree instead of converging on root words.
// Only edges with weight < below participate.
func Bully(rt par.Runtime, g *graph.Graph, below uint32) ([]int32, int) {
	n := g.NumVertices()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	if n == 0 {
		return parent, 0
	}
	gp := func(v int32) int32 { // grandparent
		return atomic.LoadInt32(&parent[atomic.LoadInt32(&parent[v])])
	}
	edges := lightEdges(rt, g, below)
	for {
		var changed int32
		rt.ForAuto(par.DefaultThresholds, len(edges), func(i int) {
			e := edges[i]
			u, v := e.U, e.V
			rt.Charge(6)
			gu, gv := gp(u), gp(v)
			// The smaller grandparent bullies the larger side: both the
			// larger grandparent and the vertex itself are pulled down.
			if gu < gv {
				if casMin32(&parent[gv], gu) {
					atomic.StoreInt32(&changed, 1)
				}
				casMin32(&parent[v], gu)
			} else if gv < gu {
				if casMin32(&parent[gu], gv) {
					atomic.StoreInt32(&changed, 1)
				}
				casMin32(&parent[u], gv)
			}
		})
		// Shortcutting: one jump per vertex per round (the diffusion step).
		rt.ForAuto(par.DefaultThresholds, n, func(vi int) {
			v := int32(vi)
			rt.Charge(2)
			if casMin32(&parent[v], gp(v)) {
				atomic.StoreInt32(&changed, 1)
			}
		})
		if atomic.LoadInt32(&changed) == 0 {
			break
		}
	}
	// The forest is flat on exit (no vertex changed in the last round, so
	// parent[v] == parent[parent[v]] for all v).
	return densifyAtomic(rt, parent)
}

// casMin32 lowers *addr to v if smaller; reports whether it stored.
func casMin32(addr *int32, v int32) bool {
	for {
		cur := atomic.LoadInt32(addr)
		if v >= cur {
			return false
		}
		if atomic.CompareAndSwapInt32(addr, cur, v) {
			return true
		}
	}
}

// pointerJump flattens the parent forest completely.
func pointerJump(rt par.Runtime, parent []int32) {
	for {
		var changed int32
		rt.ForAuto(par.DefaultThresholds, len(parent), func(vi int) {
			v := int32(vi)
			rt.Charge(2)
			p := atomic.LoadInt32(&parent[v])
			pp := atomic.LoadInt32(&parent[p])
			if p != pp {
				atomic.StoreInt32(&parent[v], pp)
				atomic.StoreInt32(&changed, 1)
			}
		})
		if atomic.LoadInt32(&changed) == 0 {
			return
		}
	}
}

// densify renumbers root labels to dense [0, count) in min-vertex order.
// parent must map every vertex to its component's minimum vertex id.
func densify(parent []int32) ([]int32, int) {
	n := len(parent)
	label := make([]int32, n)
	count := int32(0)
	for v := 0; v < n; v++ {
		if parent[v] == int32(v) {
			label[v] = count
			count++
		}
	}
	for v := 0; v < n; v++ {
		label[v] = label[parent[v]]
	}
	return label, int(count)
}

// densifyAtomic is densify with its two linear renumbering passes accounted
// as parallel sweeps on the modelled machine.
func densifyAtomic(rt par.Runtime, parent []int32) ([]int32, int) {
	mode := par.DefaultThresholds.Mode(len(parent))
	rt.ChargeLoop(mode, len(parent), 1)
	rt.ChargeLoop(mode, len(parent), 1)
	return densify(parent)
}

// LargestComponent returns the induced subgraph of g's largest connected
// component together with the mapping from new vertex ids to original ones —
// the standard preprocessing for analytics over real-world datasets whose
// giant component carries the structure.
func LargestComponent(g *graph.Graph) (*graph.Graph, []int32) {
	label, count := SerialBFS(g, All)
	if count <= 1 {
		ids := make([]int32, g.NumVertices())
		for i := range ids {
			ids[i] = int32(i)
		}
		return g, ids
	}
	sizes := make([]int64, count)
	for _, l := range label {
		sizes[l]++
	}
	best := int32(0)
	for c := int32(1); c < int32(count); c++ {
		if sizes[c] > sizes[best] {
			best = c
		}
	}
	var members []int32
	for v, l := range label {
		if l == best {
			members = append(members, int32(v))
		}
	}
	return g.InducedSubgraph(members)
}
