package core

import (
	"sync/atomic"

	"repro/internal/ch"
	"repro/internal/graph"
	"repro/internal/par"
)

// simState is the per-query state of the cost-model kernel, the one a
// simulated runtime takes. It is the paper's parallel formulation (§3.2,
// §3.3) routed loop by loop through par.Runtime and charged: atomic CAS-min
// on d and minD, virtual buckets found by scanning all children, toVisit
// loops under the solver's Strategy and Thresholds. Every simulated-cycle
// table under results/csv is reproduced on it, so its loop structure and its
// charges are frozen; a real runtime never allocates one (exec.go).
type simState struct {
	s         *Solver
	dist      []int64 // per vertex, atomic
	minD      []int64 // per CH node, atomic
	unsettled []int32 // per CH node: unsettled vertices in subtree, atomic
	scratch   []int32 // per child link: toVisit build space, one region per node
	trace     *Trace  // the owning Query's counter block, nil when tracing is off
}

func newSimState(s *Solver) *simState {
	nodes := s.h.NumNodes()
	return &simState{
		s:         s,
		dist:      make([]int64, s.h.NumLeaves()),
		minD:      make([]int64, nodes),
		unsettled: make([]int32, nodes),
		scratch:   make([]int32, s.h.NumChildLinks()),
	}
}

// simBytes is the footprint of a simState's arrays over h — the paper's
// Table 2 "instance" column.
func simBytes(h *ch.Hierarchy) int64 {
	nodes := int64(h.NumNodes())
	return int64(h.NumLeaves())*8 + nodes*8 + nodes*4 + int64(h.NumChildLinks())*4
}

// bytes is the same footprint counted from the arrays held.
func (q *simState) bytes() int64 {
	return int64(len(q.dist))*8 + int64(len(q.minD))*8 +
		int64(len(q.unsettled))*4 + int64(len(q.scratch))*4
}

func (q *simState) reset() {
	clear(q.dist)
	clear(q.minD)
	clear(q.unsettled)
	clear(q.scratch)
}

// run is the traversal from validated sources on a non-empty hierarchy.
func (q *simState) run(sources []int32) []int64 {
	h := q.s.h
	rt := q.s.rt

	// Reset.
	rt.For(h.NumLeaves(), func(i int) { q.dist[i] = graph.Inf })
	rt.For(h.NumNodes(), func(i int) {
		q.minD[i] = graph.Inf
		q.unsettled[i] = h.VertexCount(int32(i))
	})
	if q.trace != nil {
		*q.trace = Trace{}
	}

	for _, src := range sources {
		q.dist[src] = 0
		for x := src; x >= 0; x = h.Parent(x) {
			q.minD[x] = 0
		}
	}
	rt.Charge(int64(h.MaxLevel()) * int64(len(sources)))

	q.visit(h.Root(), graph.Inf)
	return q.dist
}

// visit processes component c while its minimum unsettled tentative distance
// stays below bound (the exclusive end of the parent's current bucket). On
// return, either the component is fully settled or minD(c) >= bound and the
// stored minD is up to date.
func (q *simState) visit(c int32, bound int64) {
	h := q.s.h
	if h.IsLeaf(c) {
		q.visitLeaf(c)
		return
	}
	shift := h.Shift(c)
	children := h.Children(c)
	for {
		if atomic.LoadInt32(&q.unsettled[c]) == 0 {
			return
		}
		m := atomic.LoadInt64(&q.minD[c])
		if m >= bound {
			return
		}
		j := m >> shift
		childBound := (j + 1) << shift

		// Build the toVisit set: all children (virtually) in bucket j — the
		// paper's Figure 3 loop, run with the configured strategy.
		toVisit := q.gather(c, children, j, shift)
		if q.trace != nil {
			q.trace.addGather(len(children), len(toVisit))
		}
		if len(toVisit) == 0 {
			// Bucket j exhausted: advance by recomputing minD from the
			// children. If nothing is left below bound the caller takes over.
			if q.trace != nil {
				q.trace.addAdvance()
			}
			q.refreshMinD(c, children)
			continue
		}
		// Visit everything in the lowest bucket, in parallel (safe by
		// Thorup's Lemma: crossing edges weigh >= 2^shift, one full bucket).
		// Child visits are spawned as lightweight threads (MTA futures), not
		// team-forked loops: the set is often tiny but the bodies are whole
		// subtree traversals.
		q.s.rt.ForMode(par.Futures, len(toVisit), func(i int) {
			q.visit(toVisit[i], childBound)
		})
	}
}

// visitLeaf settles the vertex of leaf c and relaxes its edges.
func (q *simState) visitLeaf(c int32) {
	// Only one visitor can win the settle; concurrent duplicates back off.
	if !atomic.CompareAndSwapInt32(&q.unsettled[c], 1, 0) {
		return
	}
	if q.trace != nil {
		q.trace.addSettled()
	}
	h := q.s.h
	rt := q.s.rt
	g := h.Graph()
	v := c // leaf id == vertex id
	dv := atomic.LoadInt64(&q.dist[v])
	atomic.StoreInt64(&q.minD[c], graph.Inf)

	// Account for the settled vertex up the tree.
	for x := h.Parent(c); x >= 0; x = h.Parent(x) {
		atomic.AddInt32(&q.unsettled[x], -1)
	}

	ts, ws := g.Neighbors(v)
	rt.Charge(int64(len(ts)) * 3)
	for i, u := range ts {
		if u == v {
			continue
		}
		if atomic.LoadInt32(&q.unsettled[u]) == 0 {
			continue // already settled; its distance cannot improve
		}
		nd := dv + int64(ws[i])
		if par.CASMin(&q.dist[u], nd) {
			q.propagate(u, nd)
		}
	}
}

// propagate pushes a lowered leaf distance up the minD chain, stopping at the
// first ancestor that is already at least as low (whoever lowered that
// ancestor is responsible for the rest of the chain).
func (q *simState) propagate(leaf int32, nd int64) {
	h := q.s.h
	hops := int64(0)
	for x := leaf; x >= 0; x = h.Parent(x) {
		if !par.CASMin(&q.minD[x], nd) {
			break // plain read: CASMin only writes when improving
		}
		// A successful minD update on a component is the synchronized write
		// the paper protects with a lock ("our implementation must lock the
		// value of minD during an update", §3.2); contention is modelled per
		// CH-node word. A leaf's minD is just its own d(v) — no shared lock.
		if !h.IsLeaf(x) {
			q.s.rt.ChargeContended(uint64(x))
		}
		hops++
	}
	q.s.rt.Charge(hops + 1)
	if q.trace != nil {
		q.trace.addRelax(hops)
	}
}

// gather collects the children currently in bucket j (minD >> shift == j and
// not fully settled) using the solver's strategy — the selective
// parallelization of the paper's §3.3. The toVisit set is built in node c's
// region of the query's flat scratch buffer instead of a fresh allocation:
// the region is private to c (ChildOffset ranges are disjoint) and c's
// gathers never overlap in time (a node is visited by one goroutine, and its
// bucket loop is sequential), so the returned slice stays valid until c's
// next gather — after its consumers have finished.
func (q *simState) gather(c int32, children []int32, j int64, shift uint) []int32 {
	out := q.scratch[q.s.h.ChildOffset(c):][:len(children)]
	var cursor int64
	q.forStrategy(len(children), func(i int) {
		k := children[i]
		q.s.rt.Charge(2)
		if atomic.LoadInt32(&q.unsettled[k]) == 0 {
			return
		}
		if atomic.LoadInt64(&q.minD[k])>>shift == j {
			out[atomic.AddInt64(&cursor, 1)-1] = k
		}
	})
	return out[:cursor]
}

// forStrategy runs a toVisit-shaped loop under the configured strategy.
func (q *simState) forStrategy(n int, body func(i int)) {
	switch q.s.strategy {
	case Naive:
		q.s.rt.ForMode(par.MultiPar, n, body)
	default:
		q.s.rt.ForAuto(q.s.thresholds, n, body)
	}
}

// refreshMinD recomputes minD(c) from the children, raising it at a quiescent
// point. A rescan after the raise closes the race with concurrent CAS-min
// decreases (decreases always update the child before the parent, so either
// the rescan sees the lower child value or the decreaser's own parent update
// lands after the raise).
func (q *simState) refreshMinD(c int32, children []int32) {
	rt := q.s.rt
	scan := func() int64 {
		min := graph.Inf
		// The scan is itself a toVisit-shaped loop over the children.
		var amin int64 = graph.Inf
		q.forStrategy(len(children), func(i int) {
			k := children[i]
			rt.Charge(2)
			if atomic.LoadInt32(&q.unsettled[k]) == 0 {
				return
			}
			par.CASMin(&amin, atomic.LoadInt64(&q.minD[k]))
		})
		if amin < min {
			min = amin
		}
		return min
	}
	for {
		cur := atomic.LoadInt64(&q.minD[c])
		newv := scan()
		if newv <= cur {
			return // already low enough; nothing to raise
		}
		if atomic.CompareAndSwapInt64(&q.minD[c], cur, newv) {
			if again := scan(); again < newv {
				par.CASMin(&q.minD[c], again)
			}
			return
		}
	}
}
