package mlb

import (
	"repro/internal/graph"
	"repro/internal/pq"
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

	var q pq.Radix
	settled := make([]bool, n)
	var mu int64 // the key of the last valid pop: no unsettled vertex is nearer

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
			if useCaliber && nd <= mu+int64(caliber[u]) {
				// Caliber rule: no unsettled vertex can have distance below
				// mu, and every path into u pays at least caliber(u) more,
				// so nd is already exact. A copy of u still queued is skipped
				// when it pops: u is settled by then.
				exact = append(exact, u)
				continue
			}
			q.Push(pq.Item{V: u, D: nd})
		}
	}

	for {
		for len(exact) > 0 {
			v := exact[len(exact)-1]
			exact = exact[:len(exact)-1]
			scan(v)
		}
		if q.Top() == graph.Inf {
			return dist
		}
		if it := q.Pop(); !settled[it.V] && it.D <= dist[it.V] { // else outgrown
			mu = it.D
			scan(it.V)
		}
	}
}
