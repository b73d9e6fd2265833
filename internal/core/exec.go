package core

import (
	"context"
	"slices"

	"repro/internal/ch"
	"repro/internal/graph"
)

// execNode is the per-query state of one internal CH node.
type execNode struct {
	// next collects, while the node is being visited, the least minD among
	// its live children that are not in the bucket being emptied: the value
	// its own minD takes when that bucket is done. Outside a visit it holds
	// nothing anyone reads.
	next int64
	live int32 // children not yet fully settled, reached or not
	cnt  int32 // length of the node's active list
}

const execNodeBytes = 16 // size of an execNode

// State is the per-query state of the kernel a real runtime takes: one
// goroutine, plain loads and stores on flat arrays, no closures, no runtime
// calls, nothing allocated once it exists. It differs from the paper's
// formulation (sim.go) in three places, each the cache-machine side of a
// trade the paper made for 5,120 hardware streams:
//
//   - A leaf has one word. minD[:n] are the vertices' distances; there is no
//     separate d array and no per-leaf settled flag (a relaxation cannot
//     lower a settled vertex, whose distance is already exact).
//   - Liveness is counted in children. live is decremented where a child is
//     found settled — in its parent's scan — so settling a vertex walks no
//     further up the tree than the recursion unwinds.
//   - Buckets are found from lists, not scans. Node x keeps its reached,
//     unsettled children in act[childStart[x-n]:][:cnt], appended to the
//     first time a child's minD becomes finite and swap-compacted as children
//     settle. One pass over that list empties the current bucket and yields
//     the next bucket's start, where §3.2's virtual buckets scan every child
//     once to find the bucket's members and again to advance.
//
// A State binds the hierarchy each run names into the arrays it keeps, and
// Reset drops it. The zero value is ready. Not safe for concurrent use.
type State struct {
	h          *ch.Hierarchy // the bound hierarchy, nil after reset
	n          int32         // leaves; node x >= n is internal, with state node[x-n]
	parent     []int32       // per CH node
	childStart []int32       // per internal node, into act

	// The graph's CSR.
	offs []int64
	tgts []int32
	wts  []uint32

	minD []int64    // per CH node; minD[:n] are the distances
	node []execNode // per internal node
	act  []int32    // per child link: the active lists

	tr Trace // this run's counters, plain words

	ctx     context.Context // the run's, looked at every checkEvery settles
	stopped bool            // ctx had ended: the traversal unwinds
}

// checkEvery is how many settles a run makes between looks at its context.
const checkEvery = 4096

// bind points the state at h and its graph and sizes the per-query arrays to
// h, in the storage they have when it is large enough.
func (st *State) bind(h *ch.Hierarchy) {
	if st.h == h {
		return
	}
	raw, g := h.Raw(), h.Graph()
	st.h, st.n, st.parent, st.childStart = h, int32(h.NumLeaves()), raw.Parent, raw.ChildStart
	st.offs, st.tgts, st.wts = g.AdjOffsets(), g.Targets(), g.Weights()
	st.minD = slices.Grow(st.minD[:0], h.NumNodes())[:h.NumNodes()]
	st.node = slices.Grow(st.node[:0], h.NumInternal())[:h.NumInternal()]
	st.act = slices.Grow(st.act[:0], h.NumChildLinks())[:h.NumChildLinks()]
}

// execBytes is the footprint of a State's per-query arrays over h.
func execBytes(h *ch.Hierarchy) int64 {
	return int64(h.NumNodes())*8 + int64(h.NumInternal())*execNodeBytes + int64(h.NumChildLinks())*4
}

// bytes is the same footprint counted from the arrays held.
func (st *State) bytes() int64 {
	return int64(len(st.minD))*8 + int64(len(st.node))*execNodeBytes + int64(len(st.act))*4
}

// Bytes is what the state keeps between runs: its per-query arrays counted at
// their capacity. The hierarchy and graph a run binds are not its own.
func (st *State) Bytes() int64 {
	return int64(cap(st.minD))*8 + int64(cap(st.node))*execNodeBytes + int64(cap(st.act))*4
}

func (st *State) dist() []int64 { return st.minD[:st.n:st.n] }

// Reset zeroes the arrays (spare capacity too) and the trace, and drops the
// hierarchy, its graph and the last run's context. Not required between runs.
func (st *State) Reset() {
	clear(st.minD[:cap(st.minD)])
	clear(st.node[:cap(st.node)])
	clear(st.act[:cap(st.act)])
	st.tr = Trace{}
	st.h, st.parent, st.childStart, st.offs, st.tgts, st.wts, st.ctx = nil, nil, nil, nil, nil, nil, nil
}

// RunFromSources is Query.RunFromSourcesContext on h, but no sources reach
// nothing. The result aliases the state until the next run or Reset.
func (st *State) RunFromSources(ctx context.Context, h *ch.Hierarchy, sources []int32) []int64 {
	if st.bind(h); h.NumLeaves() == 0 {
		return st.dist()
	}
	checkSources(h, sources)
	return st.run(ctx, sources)
}

// Trace is the counters of the last run.
func (st *State) Trace() *Trace { return &st.tr }

// run is the traversal from validated sources (none reach nothing) on a
// non-empty hierarchy, or nil once it finds ctx ended.
func (st *State) run(ctx context.Context, sources []int32) []int64 {
	for i := range st.minD {
		st.minD[i] = graph.Inf
	}
	for i := range st.node {
		st.node[i] = execNode{live: st.childStart[i+1] - st.childStart[i]}
	}
	st.tr = Trace{}
	st.ctx, st.stopped = ctx, false
	for _, src := range sources {
		// Every word on the path is Inf or, above where an earlier source's
		// path joined it, already 0.
		for x := src; x >= 0 && st.minD[x] != 0; x = st.parent[x] {
			st.minD[x] = 0
			if p := st.parent[x]; p >= 0 {
				st.push(p, x)
			}
		}
	}
	if root := st.h.Root(); root < st.n {
		st.settle(root) // a single vertex
	} else {
		st.visit(root, graph.Inf)
	}
	if st.stopped {
		return nil
	}
	return st.dist()
}

// push appends child k, whose minD has just become finite, to p's active
// list.
func (st *State) push(p, k int32) {
	i := p - st.n
	nd := &st.node[i]
	st.act[st.childStart[i]+nd.cnt] = k
	nd.cnt++
}

// visit empties buckets of internal node c, lowest first, while c's minimum
// unsettled tentative distance stays below bound (the exclusive end of the
// parent's current bucket). On return either c is fully settled (live == 0)
// or minD[c] >= bound and is exact.
//
// While c is being visited minD[c] stays at the value that opened the
// current bucket, a lower bound on every distance assigned beneath c in the
// meantime. So a relaxation's walk up the tree (lower) always ends at or
// below the lowest common ancestor of the settled vertex and the relaxed
// one, and what it leaves there in next is exactly the news that ancestor's
// scan cannot see for itself: a child already scanned, or not yet listed,
// has come nearer.
func (st *State) visit(c int32, bound int64) {
	ci := c - st.n
	nd := &st.node[ci]
	off := st.childStart[ci]
	shift := st.h.Shift(c)
	for nd.live > 0 && !st.stopped {
		m := st.minD[c]
		if m >= bound {
			return
		}
		// Children in [m, end) are in the lowest occupied bucket and safe to
		// visit in any order: an edge between two children of c weighs at
		// least 1<<shift, so nothing they relax in a sibling lands below end,
		// and one pass leaves the bucket empty.
		end := (m>>shift + 1) << shift
		nd.next = graph.Inf
		var scanned, taken int64
		for i := int32(0); i < nd.cnt && !st.stopped; scanned++ {
			k := st.act[off+i]
			mk := st.minD[k]
			if mk < end {
				taken++
				settled := true
				if k < st.n {
					st.settle(k)
				} else {
					st.visit(k, end)
					settled = st.node[k-st.n].live == 0
					mk = st.minD[k]
				}
				if settled { // k's slot goes to the last entry, examined next
					nd.cnt--
					st.act[off+i] = st.act[off+nd.cnt]
					nd.live--
					continue
				}
			}
			if mk < nd.next {
				nd.next = mk
			}
			i++
		}
		st.tr.Gathers++
		st.tr.GatherScanned += scanned
		st.tr.GatherTaken += taken
		if taken > st.tr.MaxTovisit {
			st.tr.MaxTovisit = taken
		}
		if nd.live > 0 {
			st.tr.BucketAdvances++
		}
		st.minD[c] = nd.next
	}
}

// settle relaxes the edges of vertex v, whose distance is final.
func (st *State) settle(v int32) {
	st.tr.Settled++
	if st.tr.Settled%checkEvery == 0 && st.ctx.Err() != nil {
		st.stopped = true
		return
	}
	minD, tgts, wts := st.minD, st.tgts, st.wts
	dv := minD[v]
	for e, end := st.offs[v], st.offs[v+1]; e < end; e++ {
		u := tgts[e]
		if d := dv + int64(wts[e]); d < minD[u] {
			st.lower(u, d)
		}
	}
}

// lower sets the distance of vertex u to d, which is below it, and carries d
// up the tree while it lowers minD, listing each node whose minD was Inf in
// its parent. The walk ends at the first ancestor already as low: a node
// with a nearer vertex beneath it, or the node being visited that holds both
// ends of the edge (see visit), where d goes into next. That ancestor is
// never above the root, which is being visited for the whole run.
func (st *State) lower(u int32, d int64) {
	x := u
	minD, parent := st.minD, st.parent
	hops := int64(0)
	for d < minD[x] {
		p := parent[x]
		if minD[x] == graph.Inf {
			st.push(p, x)
		}
		minD[x] = d
		x = p
		hops++
	}
	if nd := &st.node[x-st.n]; d < nd.next {
		nd.next = d
	}
	st.tr.PropagationHops += hops
	st.tr.Relaxations++
}
