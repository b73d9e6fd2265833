package ch

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/par"
)

// Hierarchy is the Component Hierarchy of a graph. Nodes are identified by
// dense int32 ids; ids [0, n) are the leaves (leaf id == vertex id), internal
// nodes follow. The structure is immutable after construction and safe to
// share between any number of concurrent SSSP computations — the property
// that motivates the paper's Figure 5.
type Hierarchy struct {
	g *graph.Graph

	level  []int32 // formation level; 0 for leaves
	parent []int32 // parent node id; -1 for the root

	// Children of node x are children[childStart[x-n]:childStart[x-n+1]]
	// (leaves have no children and are not represented in childStart).
	childStart []int32
	children   []int32

	vertexCount []int32 // number of leaves under each node
	root        int32
	maxLevel    int32
	virtualRoot bool // root is an artificial super-root over a disconnected graph
}

// Graph returns the underlying graph.
func (h *Hierarchy) Graph() *graph.Graph { return h.g }

// NumNodes returns the total number of CH nodes (leaves + internal). This is
// the paper's Table 2 "total components" statistic.
func (h *Hierarchy) NumNodes() int { return len(h.level) }

// NumLeaves returns the number of leaves (= vertices).
func (h *Hierarchy) NumLeaves() int { return h.g.NumVertices() }

// NumInternal returns the number of internal nodes.
func (h *Hierarchy) NumInternal() int { return len(h.level) - h.g.NumVertices() }

// Root returns the root node id.
func (h *Hierarchy) Root() int32 { return h.root }

// MaxLevel returns the root's level.
func (h *Hierarchy) MaxLevel() int32 { return h.maxLevel }

// Level returns the formation level of node x.
func (h *Hierarchy) Level(x int32) int32 { return h.level[x] }

// Parent returns the parent of node x, or -1 for the root.
func (h *Hierarchy) Parent(x int32) int32 { return h.parent[x] }

// IsLeaf reports whether x is a leaf node (a vertex).
func (h *Hierarchy) IsLeaf(x int32) bool { return int(x) < h.g.NumVertices() }

// Children returns the children of node x (empty for leaves). The slice
// aliases internal storage and must not be modified.
func (h *Hierarchy) Children(x int32) []int32 {
	n := int32(h.g.NumVertices())
	if x < n {
		return nil
	}
	i := x - n
	return h.children[h.childStart[i]:h.childStart[i+1]]
}

// VertexCount returns the number of vertices (leaves) under node x.
func (h *Hierarchy) VertexCount(x int32) int32 { return h.vertexCount[x] }

// NumChildLinks returns the total number of parent→child links, i.e. the
// combined length of every node's Children slice.
func (h *Hierarchy) NumChildLinks() int { return len(h.children) }

// ChildOffset returns the start of node x's children within the flattened
// child array, so [ChildOffset(x), ChildOffset(x)+len(Children(x))) is a
// range unique to x: ranges of distinct nodes never overlap. Callers use it
// to address per-node regions of flat scratch buffers sized NumChildLinks.
// x must be an internal node.
func (h *Hierarchy) ChildOffset(x int32) int32 {
	return h.childStart[x-int32(h.g.NumVertices())]
}

// Shift returns the bucket granularity exponent of node x: children of x are
// bucketed by minD >> Shift(x), i.e. into buckets of width 2^(level-1).
func (h *Hierarchy) Shift(x int32) uint {
	l := h.level[x]
	if l <= 0 {
		return 0
	}
	return uint(l - 1)
}

// String summarises the hierarchy.
func (h *Hierarchy) String() string {
	return fmt.Sprintf("ch{nodes=%d internal=%d maxLevel=%d}", h.NumNodes(), h.NumInternal(), h.maxLevel)
}

// levelOf returns the smallest i with w < 2^i, i.e. floor(log2 w)+1: the CH
// level at which an edge of weight w can first participate in a component.
func levelOf(w uint32) int32 {
	return int32(bits.Len32(w)) // w >= 1, so Len32(w) = floor(log2 w)+1
}

// HasVirtualRoot reports whether the root is an artificial super-root joining
// the components of a disconnected graph (such a root is not itself a
// component, which matters to invariant checkers: its children need not be
// settled all-or-nothing by a traversal).
func (h *Hierarchy) HasVirtualRoot() bool { return h.virtualRoot }

// numLevels returns the number of construction phases for a graph: the level
// of its heaviest edge.
func numLevels(g *graph.Graph) int32 {
	if g.MaxWeight() == 0 {
		return 0
	}
	return levelOf(g.MaxWeight())
}

// builder accumulates internal nodes during construction.
type builder struct {
	g           *graph.Graph
	level       []int32
	parent      []int32
	childLists  [][]int32
	vertexCount []int32
}

func newBuilder(g *graph.Graph) *builder {
	n := g.NumVertices()
	b := &builder{
		g:           g,
		level:       make([]int32, n, 2*n+1),
		parent:      make([]int32, n, 2*n+1),
		vertexCount: make([]int32, n, 2*n+1),
	}
	for v := 0; v < n; v++ {
		b.parent[v] = -1
		b.vertexCount[v] = 1
	}
	return b
}

// addNode appends an internal node with the given children and returns its id.
func (b *builder) addNode(level int32, children []int32) int32 {
	id := int32(len(b.level))
	b.level = append(b.level, level)
	b.parent = append(b.parent, -1)
	var vc int32
	for _, c := range children {
		b.parent[c] = id
		vc += b.vertexCount[c]
	}
	b.vertexCount = append(b.vertexCount, vc)
	b.childLists = append(b.childLists, children)
	return id
}

// finish flattens the child lists and installs the root. tops are the node
// ids with no parent after all levels are processed.
func (b *builder) finish(tops []int32, topLevel int32) *Hierarchy {
	root := int32(-1)
	virtual := false
	switch len(tops) {
	case 0:
		// Graph with no vertices.
	case 1:
		root = tops[0]
	default:
		// Disconnected graph: a virtual root one level above everything
		// keeps the traversal uniform; unreachable components are simply
		// never visited.
		root = b.addNode(topLevel+1, tops)
		virtual = true
	}
	// Keep of the arrays sized for 2n+1 nodes what is used, as Bytes counts.
	h := &Hierarchy{
		g:           b.g,
		level:       slices.Clone(b.level),
		parent:      slices.Clone(b.parent),
		vertexCount: slices.Clone(b.vertexCount),
		root:        root,
		virtualRoot: virtual,
	}
	if root >= 0 {
		h.maxLevel = b.level[root]
	}
	h.childStart = make([]int32, len(b.childLists)+1)
	total := 0
	for i, cl := range b.childLists {
		total += len(cl)
		h.childStart[i+1] = int32(total)
	}
	h.children = make([]int32, 0, total)
	for _, cl := range b.childLists {
		h.children = append(h.children, cl...)
	}
	return h
}

// CCKernel is a parallel connected-components kernel as used by BuildNaive;
// cc.Bully and cc.ShiloachVishkin have this shape once curried with a
// runtime.
type CCKernel func(rt par.Runtime, g *graph.Graph, below uint32) ([]int32, int)

// BuildNaive constructs the hierarchy with the paper's Algorithm 1: for each
// level i = 1..log C, find the connected components of the contracted graph
// using only edges of weight < 2^i (with the given parallel CC kernel),
// create a CH node for every component that merges two or more previous
// components, and contract. The runtime is used for the CC kernel and the
// contraction bookkeeping, so sim-mode accounting covers the whole
// construction (Tables 3 and 5).
func BuildNaive(rt par.Runtime, g *graph.Graph, kernel CCKernel) *Hierarchy {
	b := newBuilder(g)
	n := g.NumVertices()
	if n == 0 {
		return b.finish(nil, 0)
	}
	cur := g
	curNodes := make([]int32, n) // CH node of each contracted vertex
	for v := 0; v < n; v++ {
		curNodes[v] = int32(v)
	}
	levels := numLevels(g)
	for i := int32(1); i <= levels; i++ {
		label, count := kernel(rt, cur, uint32(1)<<uint(i))
		if count == cur.NumVertices() {
			continue // nothing merged at this level
		}
		// Count members per component to distinguish merges from singletons.
		size := make([]int32, count)
		rt.ChargeLoop(par.DefaultThresholds.Mode(cur.NumVertices()), cur.NumVertices(), 1)
		for v := 0; v < cur.NumVertices(); v++ {
			size[label[v]]++
		}
		newNodes := make([]int32, count)
		for c := range newNodes {
			newNodes[c] = -1
		}
		members := make([][]int32, count)
		for v := 0; v < cur.NumVertices(); v++ {
			c := label[v]
			if size[c] == 1 {
				newNodes[c] = curNodes[v] // unchanged component: keep its node
			} else {
				members[c] = append(members[c], curNodes[v])
			}
		}
		rt.ChargeLoop(par.DefaultThresholds.Mode(cur.NumVertices()), cur.NumVertices(), 1)
		for c := 0; c < count; c++ {
			if newNodes[c] < 0 {
				newNodes[c] = b.addNode(i, members[c])
			}
		}
		// Contract: this is the paper's G'' construction (multiplicity of
		// remaining edges preserved, intra-component edges dropped).
		rt.ChargeLoop(par.DefaultThresholds.Mode(int(cur.NumEdges())), int(cur.NumEdges()), 2)
		cur = cur.Contract(label, count)
		curNodes = newNodes
	}
	tops := make([]int32, cur.NumVertices())
	copy(tops, curNodes)
	return b.finish(tops, levels)
}

// BuildKruskal constructs the hierarchy serially with a union-find sweep over
// the edges grouped by weight level. It produces the same hierarchy as
// BuildNaive at a fraction of the serial cost.
func BuildKruskal(g *graph.Graph) *Hierarchy {
	return buildFromEdges(g, g.Edges())
}

// BuildMST constructs the hierarchy the way Thorup's analysis suggests: the
// components of the graph restricted to edges < 2^i equal the components of
// its minimum spanning forest restricted to the same edges, so the sweep only
// needs the forest's n-1 edges. The forest is computed with parallel Borůvka
// on the given runtime.
func BuildMST(rt par.Runtime, g *graph.Graph) *Hierarchy {
	forest := mst.Boruvka(rt, g)
	rt.Charge(int64(len(forest)))
	return buildFromEdges(g, forest)
}

// buildFromEdges runs the level sweep over the given edge set (either all
// edges or a spanning forest; both yield the same component structure).
func buildFromEdges(g *graph.Graph, edges []graph.Edge) *Hierarchy {
	b := newBuilder(g)
	n := g.NumVertices()
	if n == 0 {
		return b.finish(nil, 0)
	}
	// Bucket edges by level (counting sort; levels are at most 31).
	levels := numLevels(g)
	byLevel := make([][]graph.Edge, levels+1)
	for _, e := range edges {
		if e.U == e.V {
			continue // self-loops never merge anything
		}
		l := levelOf(e.W)
		byLevel[l] = append(byLevel[l], e)
	}

	parent := make([]int32, n) // union-find over vertices
	nodeOf := make([]int32, n) // CH node of each union-find root
	for v := 0; v < n; v++ {
		parent[v] = int32(v)
		nodeOf[v] = int32(v)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	var oldRoots []int32
	for l := int32(1); l <= levels; l++ {
		oldRoots = oldRoots[:0]
		for _, e := range byLevel[l] {
			ru, rv := find(e.U), find(e.V)
			if ru == rv {
				continue
			}
			oldRoots = append(oldRoots, ru, rv)
			parent[ru] = rv
		}
		if len(oldRoots) == 0 {
			continue
		}
		// Group the merged pre-level nodes by their final root. Roots are
		// processed in first-touch order so node numbering is deterministic
		// (important for serialisation and reproducible experiments).
		groups := make(map[int32][]int32)
		var order []int32
		for _, r := range oldRoots {
			fr := find(r)
			if _, seen := groups[fr]; !seen {
				order = append(order, fr)
			}
			groups[fr] = append(groups[fr], nodeOf[r])
		}
		for _, fr := range order {
			nodeOf[fr] = b.addNode(l, dedupe(groups[fr]))
		}
	}
	// Collect top-level nodes (one per final component).
	var tops []int32
	for v := 0; v < n; v++ {
		if find(int32(v)) == int32(v) {
			tops = append(tops, nodeOf[v])
		}
	}
	return b.finish(tops, levels)
}

// dedupe removes duplicates from a slice of node ids, preserving first
// occurrence order. It returns fresh storage (addNode retains the result).
func dedupe(xs []int32) []int32 {
	if len(xs) <= 32 {
		res := make([]int32, 0, len(xs))
		for _, x := range xs {
			dup := false
			for _, y := range res {
				if x == y {
					dup = true
					break
				}
			}
			if !dup {
				res = append(res, x)
			}
		}
		return res
	}
	seen := make(map[int32]struct{}, len(xs))
	res := make([]int32, 0, len(xs))
	for _, x := range xs {
		if _, ok := seen[x]; ok {
			continue
		}
		seen[x] = struct{}{}
		res = append(res, x)
	}
	return res
}
