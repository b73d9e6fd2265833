package dijkstra

import (
	"math"

	"repro/internal/graph"
)

// STDistance is the shortest s-t distance (graph.Inf if t is unreachable from
// s) by bidirectional Dijkstra on a fresh STScratch with no budget.
func STDistance(g *graph.Graph, s, t int32) int64 {
	d, _, _ := new(STScratch).Distance(g, s, t, math.MaxInt)
	return d
}

// STScratch is reusable bidirectional-search state: both distance arrays stay
// at graph.Inf between runs and a run puts back only what it touched, so a warm
// query allocates nothing and costs what it searched, not n. The zero value is
// ready and sizes itself to the graph it is handed. Not safe for concurrent use.
type STScratch struct{ fwd, bwd stSide }

// stSide is one direction's search.
type stSide struct {
	dist    []int64 // graph.Inf everywhere between runs
	heap    lazyHeap
	touched []int32 // the vertices whose dist this run lowered
}

// Distance computes the shortest s-t distance: two searches grow from s and t
// and stop once the sum of their frontier minima reaches the best meeting
// distance found so far (the classical Nicholson/Pohl stopping rule, exact
// under any alternation) — the point-to-point setting of the road-network
// work the paper's §2 and §6 discuss. Each step expands the side that has
// touched fewer vertices: alternating on the smaller frontier key instead
// degenerates to a one-sided search whenever every arc at one end is heavy.
//
// The search gives up, with ok false, rather than settle more than budget
// vertices over both sides (the caller has a cheaper plan for a pair this far
// apart; math.MaxInt never gives up); settled is the number it did settle.
// With ok true, dist is exact, graph.Inf if t is unreachable from s.
func (sc *STScratch) Distance(g *graph.Graph, s, t int32, budget int) (dist int64, settled int, ok bool) {
	if s == t {
		return 0, 0, true
	}
	fwd, bwd := &sc.fwd, &sc.bwd
	fwd.start(g.NumVertices(), s)
	bwd.start(g.NumVertices(), t)
	defer fwd.finish()
	defer bwd.finish()
	dist = graph.Inf
	// An empty heap reads as Inf: a side that exhausts its component ends it.
	for fwd.top()+bwd.top() < dist {
		side, other := fwd, bwd
		if len(bwd.touched) < len(fwd.touched) {
			side, other = bwd, fwd
		}
		top := side.heap.pop()
		if top.d > side.dist[top.v] {
			continue // stale entry
		}
		if settled == budget {
			return dist, settled, false
		}
		settled++
		ts, ws := g.Neighbors(top.v)
		for i, u := range ts {
			nd := top.d + int64(ws[i])
			if nd < side.dist[u] {
				if side.dist[u] == graph.Inf {
					side.touched = append(side.touched, u)
				}
				side.dist[u] = nd
				side.heap.push(entry{v: u, d: nd})
			}
			// Any discovery on the other side makes (s..top.v)+(u..t) a
			// candidate s-t path.
			if cand := nd + other.dist[u]; cand < dist {
				dist = cand
			}
		}
	}
	return dist, settled, true
}

func (sd *stSide) start(n int, src int32) {
	if len(sd.dist) < n {
		sd.dist = make([]int64, n)
		for i := range sd.dist {
			sd.dist[i] = graph.Inf
		}
	}
	sd.dist[src] = 0
	sd.touched = append(sd.touched, src)
	sd.heap = append(sd.heap, entry{v: src})
}

// finish restores the between-runs state.
func (sd *stSide) finish() {
	for _, v := range sd.touched {
		sd.dist[v] = graph.Inf
	}
	sd.touched, sd.heap = sd.touched[:0], sd.heap[:0]
}

func (sd *stSide) top() int64 {
	if len(sd.heap) == 0 {
		return graph.Inf
	}
	return sd.heap[0].d
}
