package dijkstra

import (
	"math"
	"math/bits"

	"repro/internal/graph"
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
	q       [2]radixQueue
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
	sc.q[0].push(entry{v: s})
	sc.q[1].push(entry{v: t})
	reached := [2]int{1, 1}
	dist = graph.Inf
	// An empty queue's top reads as Inf: a side that exhausts its component
	// ends the search. Only the side that moved has a new top.
	top := [2]int64{sc.q[0].top(), sc.q[1].top()}
	for top[0]+top[1] < dist {
		k := 0
		if reached[1] < reached[0] {
			k = 1
		}
		if e := sc.q[k].pop(); e.d <= d[e.v][k] { // else a stale entry
			if settled == budget {
				return dist, settled, false
			}
			settled++
			o := 1 - k
			// An arc of weight ≥ lim gives a label that cannot beat μ: nd +
			// top[o] ≥ μ. The row is sorted by weight, so so does every arc
			// after it.
			lim := dist - top[o] - e.d
			for _, a := range arcs[off[e.v]:off[e.v+1]] {
				w := int64(a >> 32)
				if w >= lim {
					break
				}
				u, nd := int32(uint32(a)), e.d+w
				du := &d[u]
				if nd >= du[k] {
					continue
				}
				// Whichever side lowers u last sees the other's label, so
				// counting candidates on improving relaxations alone finds
				// every meeting.
				if m := nd + du[o]; m < dist {
					dist = m
					if lim = dist - top[o] - e.d; w >= lim {
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
				sc.q[k].push(entry{v: u, d: nd})
			}
		}
		top[k] = sc.q[k].top()
	}
	return dist, settled, true
}

// reset restores the between-runs state.
func (sc *STScratch) reset() {
	for _, v := range sc.touched {
		sc.d[v] = [2]int64{graph.Inf, graph.Inf}
	}
	sc.touched = sc.touched[:0]
	sc.q[0].reset()
	sc.q[1].reset()
}

// radixQueue is a monotone integer priority queue, the radix heap of Ahuja,
// Mehlhorn, Orlin & Tarjan (1990): an entry sits in bucket bits.Len64(d ^
// last), where last is the least key when bucket 0 was last refilled, so a
// push is O(1) and a refill redistributes only the least non-empty bucket,
// each entry moving to a lower one. Every key pushed must be ≥ last, as a
// Dijkstra relaxation's is of the key it popped.
type radixQueue struct {
	last    int64
	buckets [65][]entry
}

func (q *radixQueue) push(e entry) {
	b := bits.Len64(uint64(e.d ^ q.last))
	q.buckets[b] = append(q.buckets[b], e)
}

// top is the least key queued, graph.Inf if none; it leaves that key's
// entries in bucket 0.
func (q *radixQueue) top() int64 {
	if len(q.buckets[0]) == 0 {
		i := 1
		for i < len(q.buckets) && len(q.buckets[i]) == 0 {
			i++
		}
		if i == len(q.buckets) {
			return graph.Inf
		}
		b := q.buckets[i]
		q.last = b[0].d
		for _, e := range b[1:] {
			q.last = min(q.last, e.d)
		}
		for _, e := range b {
			j := bits.Len64(uint64(e.d ^ q.last))
			q.buckets[j] = append(q.buckets[j], e)
		}
		q.buckets[i] = b[:0]
	}
	return q.last
}

// pop removes an entry with the least key; top must have found one since the
// last pop.
func (q *radixQueue) pop() entry {
	b := q.buckets[0]
	e := b[len(b)-1]
	q.buckets[0] = b[:len(b)-1]
	return e
}

func (q *radixQueue) reset() {
	for i := range q.buckets {
		q.buckets[i] = q.buckets[i][:0]
	}
	q.last = 0
}
