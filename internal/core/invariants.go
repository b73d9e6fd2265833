package core

import (
	"fmt"

	"repro/internal/ch"
	"repro/internal/graph"
)

// CheckInvariants verifies the query's internal state against the Component
// Hierarchy after a completed Run/RunFromSources. It is an invariant hook for
// differential harnesses (internal/stress): a traversal bug that happens to
// produce plausible distances still tends to leave the bookkeeping arrays
// inconsistent, and this check catches it without a reference solver. Each
// kernel keeps different books, so each has its own list.
//
// Exec kernel (exec.go), post-run:
//
//  1. Distances are in [0, Inf].
//  2. Every active list is empty and every internal node's minD is Inf. A
//     child that is live with a finite minD sits in its parent's list, and a
//     list that is not empty keeps its owner's minD finite and the owner in
//     its own parent's list, up to the root, whose visit does not end until
//     its minD is Inf; so anything reached and left behind shows here.
//  3. Child-count liveness drained exactly once: a node's live count equals
//     the number of its children that are not fully settled — leaves still at
//     Inf, internal nodes with a live count of their own.
//  4. Components settle all-or-nothing: a real (non-virtual-root) CH node is
//     internally connected, so its live count is 0 or all of its children.
//
// Sim kernel (sim.go), post-run:
//
//  1. Distances are in [0, Inf] and every leaf's settled flag matches its
//     distance: unsettled == 0 iff the vertex was reached (dist < Inf).
//  2. Every leaf's minD is parked at Inf — settling stores Inf, and a leaf
//     that was never reached was never lowered.
//  3. For every internal node, unsettled equals the number of unreachable
//     leaves in its subtree (the counters drained exactly once per settle).
//  4. Components settle all-or-nothing, as above in vertices: unsettled is 0
//     or the full vertex count. A node that was never touched (fully
//     unreachable) must still have minD == Inf.
//
// There minD of settled internal nodes is deliberately unconstrained: the
// visit loop exits on unsettled == 0 without a final refresh, so a stale
// finite value is normal.
func (q *Query) CheckInvariants() error {
	if q.s.h.NumLeaves() == 0 {
		return nil
	}
	if q.sim != nil {
		return q.sim.checkInvariants()
	}
	return q.exec.checkInvariants(q.s.h)
}

func (st *State) checkInvariants(h *ch.Hierarchy) error {
	for v, d := range st.dist() {
		if d < 0 || d > graph.Inf {
			return fmt.Errorf("core: invariant: dist[%d] = %d out of [0, Inf]", v, d)
		}
	}
	for i, nd := range st.node {
		x := st.n + int32(i)
		if nd.cnt != 0 {
			return fmt.Errorf("core: invariant: node %d still lists %d reached children", x, nd.cnt)
		}
		if st.minD[x] != graph.Inf {
			return fmt.Errorf("core: invariant: node %d minD %d not raised to Inf", x, st.minD[x])
		}
		children := h.Children(x)
		var live int32
		for _, k := range children {
			if (k < st.n && st.minD[k] == graph.Inf) || (k >= st.n && st.node[k-st.n].live > 0) {
				live++
			}
		}
		if nd.live != live {
			return fmt.Errorf("core: invariant: node %d live count %d, but %d unsettled children", x, nd.live, live)
		}
		virtual := h.HasVirtualRoot() && x == h.Root()
		if !virtual && live != 0 && int(live) != len(children) {
			return fmt.Errorf("core: invariant: component %d settled partially (%d of %d children live)",
				x, live, len(children))
		}
	}
	return nil
}

func (q *simState) checkInvariants() error {
	h := q.s.h
	n := h.NumLeaves()
	nodes := h.NumNodes()
	infUnder := make([]int32, nodes)
	for v := 0; v < n; v++ {
		d := q.dist[v]
		if d < 0 || d > graph.Inf {
			return fmt.Errorf("core: invariant: dist[%d] = %d out of [0, Inf]", v, d)
		}
		settled := q.unsettled[v] == 0
		if settled == (d == graph.Inf) {
			return fmt.Errorf("core: invariant: leaf %d has dist %d but unsettled %d", v, d, q.unsettled[v])
		}
		if q.minD[v] != graph.Inf {
			return fmt.Errorf("core: invariant: leaf %d minD %d not parked at Inf", v, q.minD[v])
		}
		if d == graph.Inf {
			for x := int32(v); x >= 0; x = h.Parent(x) {
				infUnder[x]++
			}
		}
	}
	for x := int32(0); x < int32(nodes); x++ {
		if h.IsLeaf(x) {
			continue
		}
		us := q.unsettled[x]
		if us != infUnder[x] {
			return fmt.Errorf("core: invariant: node %d unsettled %d, but %d unreachable leaves beneath it",
				x, us, infUnder[x])
		}
		virtual := h.HasVirtualRoot() && x == h.Root()
		if !virtual && us != 0 && us != h.VertexCount(x) {
			return fmt.Errorf("core: invariant: component %d settled partially (%d of %d unsettled)",
				x, us, h.VertexCount(x))
		}
		if us == h.VertexCount(x) && q.minD[x] != graph.Inf {
			return fmt.Errorf("core: invariant: untouched node %d has minD %d", x, q.minD[x])
		}
	}
	return nil
}
