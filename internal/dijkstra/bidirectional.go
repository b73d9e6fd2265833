package dijkstra

import (
	"math"

	"repro/internal/graph"
	"repro/internal/pq"
)

// STDistance is the shortest s-t distance (graph.Inf if t is unreachable from
// s) by bidirectional Dijkstra on a throwaway index and a fresh STScratch with
// no budget.
func STDistance(g *graph.Graph, s, t int32) int64 {
	d, _, _ := new(STScratch).Distance(NewSTIndex(g, nil), s, t, math.MaxInt)
	return d
}

// STScratch is reusable bidirectional-search state: the distances stay at
// graph.Inf between runs and a run puts back only what it touched, so a warm
// query allocates nothing and costs what it searched, not n. The zero value is
// ready and sizes itself to the index it is handed. Not safe for concurrent
// use.
type STScratch struct {
	d       [][2]int64 // d[v][k]: side k's distance to v (0 from s, 1 from t)
	q       [2]pq.Radix
	touched []int32 // the vertices whose d this run lowered on either side
}

// Distance computes the shortest s-t distance over x: two searches grow from
// s and t and stop once the sum of their frontier minima reaches the best
// meeting distance μ found so far (the classical Nicholson/Pohl stopping rule,
// exact under any alternation) — the point-to-point setting of the
// road-network work the paper's §2 and §6 discuss. Each step expands the side
// that has reached fewer vertices: alternating on the smaller frontier key
// instead degenerates to a one-sided search whenever every arc at one end is
// heavy. A label that cannot beat μ even if the other side's next key were
// its distance to the far end is neither stored nor queued, and a row is read
// only up to its first such arc (DESIGN.md §5, decision 16, has why both are
// exact).
//
// The search gives up, with ok false, rather than settle more than budget
// vertices over both sides (the caller has a cheaper plan for a pair this far
// apart; math.MaxInt never gives up); settled is the number it did settle.
// With ok true, dist is exact, graph.Inf if t is unreachable from s.
func (sc *STScratch) Distance(x *STIndex, s, t int32, budget int) (dist int64, settled int, ok bool) {
	if s == t {
		return 0, 0, true
	}
	if n := x.NumVertices(); len(sc.d) < n {
		sc.d = make([][2]int64, n)
		for i := range sc.d {
			sc.d[i] = [2]int64{graph.Inf, graph.Inf}
		}
	}
	defer sc.reset()
	d, off, arcs := sc.d, x.offsets, x.arcs
	d[s][0], d[t][1] = 0, 0
	sc.touched = append(sc.touched, s, t)
	sc.q[0].Push(pq.Item{V: s})
	sc.q[1].Push(pq.Item{V: t})
	reached := [2]int{1, 1}
	dist = graph.Inf
	// An empty queue's top reads as Inf: a side that exhausts its component
	// ends the search. Only the side that moved has a new top.
	top := [2]int64{sc.q[0].Top(), sc.q[1].Top()}
	for top[0]+top[1] < dist {
		k := 0
		if reached[1] < reached[0] {
			k = 1
		}
		if e := sc.q[k].Pop(); e.D <= d[e.V][k] { // else a stale entry
			if settled == budget {
				return dist, settled, false
			}
			settled++
			o := 1 - k
			// An arc of weight ≥ lim gives a label that cannot beat μ: nd +
			// top[o] ≥ μ. The row is sorted by weight, so so does every arc
			// after it.
			lim := dist - top[o] - e.D
			for _, a := range arcs[off[e.V]:off[e.V+1]] {
				w := int64(a >> 32)
				if w >= lim {
					break
				}
				u, nd := int32(uint32(a)), e.D+w
				du := &d[u]
				if nd >= du[k] {
					continue
				}
				// Whichever side lowers u last sees the other's label, so
				// counting candidates on improving relaxations alone finds
				// every meeting.
				if m := nd + du[o]; m < dist {
					dist = m
					if lim = dist - top[o] - e.D; w >= lim {
						break // hopeless now, and so is the rest of the row
					}
				}
				if du[k] == graph.Inf {
					reached[k]++
					if du[o] == graph.Inf {
						sc.touched = append(sc.touched, u)
					}
				}
				du[k] = nd
				sc.q[k].Push(pq.Item{V: u, D: nd})
			}
		}
		top[k] = sc.q[k].Top()
	}
	return dist, settled, true
}

// Bytes is what the scratch keeps between runs: both sides' distances, the
// touched list and the two queues, counted at their capacity.
func (sc *STScratch) Bytes() int64 {
	return 16*int64(cap(sc.d)) + 4*int64(cap(sc.touched)) + sc.q[0].Bytes() + sc.q[1].Bytes()
}

// reset restores the between-runs state.
func (sc *STScratch) reset() {
	for _, v := range sc.touched {
		sc.d[v] = [2]int64{graph.Inf, graph.Inf}
	}
	sc.touched = sc.touched[:0]
	sc.q[0].Reset()
	sc.q[1].Reset()
}
