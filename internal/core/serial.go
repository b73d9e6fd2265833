package core

import (
	"repro/internal/ch"
	"repro/internal/graph"
)

// This file is the paper-faithful serial pair, not a serving kernel: Thorup's
// traversal with the paper's virtual buckets (§3.2: a bucket's members are
// found by scanning all children) and, beside it, with the physical bucket
// lists the paper rejects. results/csv/table1.csv times the first against
// the DIMACS reference solver and ablation-buckets.csv times the two against
// each other, which is why both keep per-vertex unsettled counts, two words
// per leaf and a fresh allocation per call; tests use them as references
// written independently of the kernels in sim.go and exec.go. What ssspd
// serves is exec.go.

// SerialSSSP is a straightforward single-threaded implementation of Thorup's
// algorithm over the Component Hierarchy, written independently of the
// parallel solver: no atomics, recursion plus the virtual-bucket child scan.
// It is the configuration measured in the paper's Table 1 (sequential Thorup
// vs the DIMACS reference solver) and a differential-testing partner for the
// two kernels.
func SerialSSSP(h *ch.Hierarchy, src int32) []int64 {
	return SerialSSSPFromSources(h, []int32{src})
}

// SerialSSSPFromSources is the multi-source variant of SerialSSSP: it returns
// each vertex's distance to the nearest source.
func SerialSSSPFromSources(h *ch.Hierarchy, sources []int32) []int64 {
	n := h.NumLeaves()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = graph.Inf
	}
	if n == 0 {
		return dist
	}
	st := &serialState{
		h:         h,
		g:         h.Graph(),
		dist:      dist,
		minD:      make([]int64, h.NumNodes()),
		unsettled: make([]int32, h.NumNodes()),
	}
	for i := range st.minD {
		st.minD[i] = graph.Inf
		st.unsettled[i] = h.VertexCount(int32(i))
	}
	for _, src := range sources {
		dist[src] = 0
		for x := src; x >= 0; x = h.Parent(x) {
			st.minD[x] = 0
		}
	}
	st.visit(h.Root(), graph.Inf)
	return dist
}

type serialState struct {
	h         *ch.Hierarchy
	g         *graph.Graph
	dist      []int64
	minD      []int64
	unsettled []int32
	toVisit   [][]int32 // scratch per recursion depth
}

func (st *serialState) visit(c int32, bound int64) {
	h := st.h
	if h.IsLeaf(c) {
		st.settle(c)
		return
	}
	shift := h.Shift(c)
	children := h.Children(c)
	depth := len(st.toVisit)
	st.toVisit = append(st.toVisit, nil)
	for st.unsettled[c] > 0 {
		m := st.minD[c]
		if m >= bound {
			break
		}
		j := m >> shift
		childBound := (j + 1) << shift
		tv := st.toVisit[depth][:0]
		for _, k := range children {
			if st.unsettled[k] > 0 && st.minD[k]>>shift == j {
				tv = append(tv, k)
			}
		}
		st.toVisit[depth] = tv
		if len(tv) == 0 {
			// Advance the bucket: recompute minD from the children.
			min := graph.Inf
			for _, k := range children {
				if st.unsettled[k] > 0 && st.minD[k] < min {
					min = st.minD[k]
				}
			}
			st.minD[c] = min
			continue
		}
		for _, k := range tv {
			st.visit(k, childBound)
		}
	}
	st.toVisit = st.toVisit[:depth]
}

func (st *serialState) settle(c int32) {
	if st.unsettled[c] == 0 {
		return
	}
	h := st.h
	v := c
	dv := st.dist[v]
	st.minD[c] = graph.Inf
	for x := c; x >= 0; x = h.Parent(x) {
		st.unsettled[x]--
	}
	ts, ws := st.g.Neighbors(v)
	for i, u := range ts {
		if u == v || st.unsettled[u] == 0 {
			continue
		}
		nd := dv + int64(ws[i])
		if nd < st.dist[u] {
			st.dist[u] = nd
			for x := u; x >= 0; x = h.Parent(x) {
				if nd >= st.minD[x] {
					break
				}
				st.minD[x] = nd
			}
		}
	}
}

// SerialSSSPPhysical is SerialSSSP with physical bucket lists instead of
// virtual buckets: every node keeps real per-bucket child lists, updated on
// every minD change. This is the data structure the paper rejects for the
// parallel machine ("buckets are bad data structures for a parallel machine
// because they do not support simultaneous insertions", §3.2); it exists
// here as the ablation partner quantifying the virtual-bucket choice.
func SerialSSSPPhysical(h *ch.Hierarchy, src int32) []int64 {
	n := h.NumLeaves()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = graph.Inf
	}
	if n == 0 {
		return dist
	}
	st := &physState{
		h:         h,
		g:         h.Graph(),
		dist:      dist,
		minD:      make([]int64, h.NumNodes()),
		unsettled: make([]int32, h.NumNodes()),
		buckets:   make([]map[int64][]int32, h.NumNodes()),
	}
	for i := range st.minD {
		st.minD[i] = graph.Inf
		st.unsettled[i] = h.VertexCount(int32(i))
	}
	dist[src] = 0
	for x := src; x >= 0; x = h.Parent(x) {
		st.minD[x] = 0
		if p := h.Parent(x); p >= 0 {
			st.push(p, x)
		}
	}
	st.visit(h.Root(), graph.Inf)
	return dist
}

type physState struct {
	h         *ch.Hierarchy
	g         *graph.Graph
	dist      []int64
	minD      []int64
	unsettled []int32
	// buckets[p] maps bucket index -> children of p queued there. Entries
	// are lazy: a child is live in bucket j iff minD>>shift == j; stale
	// entries are skipped on scan.
	buckets []map[int64][]int32
}

// push enqueues child k into its parent's bucket for k's current minD.
func (st *physState) push(p, k int32) {
	if st.minD[k] >= graph.Inf {
		return
	}
	j := st.minD[k] >> st.h.Shift(p)
	if st.buckets[p] == nil {
		st.buckets[p] = make(map[int64][]int32)
	}
	st.buckets[p][j] = append(st.buckets[p][j], k)
}

// lowerMinD lowers minD[x] to nd, rebucketing x in its parent, and continues
// upward while the value improves.
func (st *physState) lowerMinD(leaf int32, nd int64) {
	h := st.h
	for x := leaf; x >= 0; x = h.Parent(x) {
		if nd >= st.minD[x] {
			break
		}
		st.minD[x] = nd
		if p := h.Parent(x); p >= 0 {
			st.push(p, x)
		}
	}
}

func (st *physState) visit(c int32, bound int64) {
	h := st.h
	if h.IsLeaf(c) {
		st.settle(c)
		return
	}
	shift := h.Shift(c)
	for st.unsettled[c] > 0 {
		m := st.minD[c]
		if m >= bound {
			return
		}
		j := m >> shift
		childBound := (j + 1) << shift
		lst := st.buckets[c][j]
		if len(lst) == 0 {
			delete(st.buckets[c], j)
			// Advance to the next occupied bucket.
			min := graph.Inf
			for _, k := range h.Children(c) {
				if st.unsettled[k] > 0 && st.minD[k] < min {
					min = st.minD[k]
				}
			}
			st.minD[c] = min
			continue
		}
		// Pop one queued child; skip stale entries.
		k := lst[len(lst)-1]
		st.buckets[c][j] = lst[:len(lst)-1]
		if st.unsettled[k] == 0 || st.minD[k]>>shift != j {
			continue
		}
		st.visit(k, childBound)
		// Re-bucket the child at its new minD.
		if st.unsettled[k] > 0 && st.minD[k] < graph.Inf {
			st.push(c, k)
		}
	}
}

func (st *physState) settle(c int32) {
	if st.unsettled[c] == 0 {
		return
	}
	h := st.h
	v := c
	dv := st.dist[v]
	st.minD[c] = graph.Inf
	for x := c; x >= 0; x = h.Parent(x) {
		st.unsettled[x]--
	}
	ts, ws := st.g.Neighbors(v)
	for i, u := range ts {
		if u == v || st.unsettled[u] == 0 {
			continue
		}
		nd := dv + int64(ws[i])
		if nd < st.dist[u] {
			st.dist[u] = nd
			st.lowerMinD(u, nd)
		}
	}
}
