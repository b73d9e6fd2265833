package ch

import (
	"fmt"

	"repro/internal/cc"
)

// Validate checks the structural invariants of the hierarchy against its
// graph. It is O(n log C + m log C) and intended for tests and for gating
// untrusted persisted hierarchies, not for hot paths.
//
// Checked invariants:
//
//  1. Leaves are exactly nodes [0, n) at level 0 with no children; internal
//     node levels are positive and strictly greater than their children's.
//  2. Child ids are smaller than their parents' (topological id order), the
//     parent/child links are mutually consistent, and every non-root node
//     has exactly one parent.
//  3. VertexCount sums correctly up the tree.
//  4. Partition property: for every level i, grouping leaves by their lowest
//     ancestor of level >= i yields exactly the connected components of the
//     graph restricted to edges of weight < 2^i.
//  5. Separation property: every edge's endpoints have an LCA with
//     2^(level-1) <= weight bound, i.e. w >= 2^(LCA.level - 1) whenever the
//     endpoints differ, and the endpoints are connected below the LCA's
//     level bound (w < 2^level implies LCA.level <= levelOf(w)).
func (h *Hierarchy) Validate() error {
	if err := h.ValidateStructure(); err != nil {
		return err
	}
	n := h.g.NumVertices()
	if n == 0 {
		return nil
	}

	// Partition property at every level with a real hierarchy boundary.
	for i := int32(1); i <= h.maxLevel+1; i++ {
		got := h.PartitionAtLevel(i)
		want, wantCount := cc.SerialBFS(h.g, boundAt(i))
		if !samePartition(got, want, wantCount) {
			return fmt.Errorf("ch: partition at level %d disagrees with connected components", i)
		}
	}

	// Separation property over all edges.
	for v := int32(0); v < int32(n); v++ {
		ts, ws := h.g.Neighbors(v)
		for k, u := range ts {
			if u == v {
				continue
			}
			if err := h.CheckEdge(v, u, ws[k]); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckEdge verifies the separation property for one edge: the endpoints'
// LCA must sit at a level consistent with the edge weight. It is exported as
// an invariant hook for external harnesses (internal/stress) that spot-check
// edges without paying for a full Validate.
func (h *Hierarchy) CheckEdge(v, u int32, w uint32) error {
	l := h.lcaOrNeg(v, u)
	if l < 0 {
		return fmt.Errorf("ch: edge (%d,%d) connects vertices the hierarchy keeps in separate components", v, u)
	}
	lvl := h.level[l]
	if lvl > levelOf(w) {
		return fmt.Errorf("ch: edge (%d,%d,w=%d) endpoints only joined at level %d", v, u, w, lvl)
	}
	if lvl >= 1 && int64(w) < int64(1)<<uint(lvl-1) {
		return fmt.Errorf("ch: separation violated: edge (%d,%d,w=%d) crosses children of level-%d node", v, u, w, lvl)
	}
	return nil
}

// ValidateStructure checks the O(nodes) invariants only (tree shape, levels,
// vertex counts) without the connected-components cross-check; FromRaw uses
// it together with edge sampling for fast loads.
func (h *Hierarchy) ValidateStructure() error {
	n := h.g.NumVertices()
	if n == 0 {
		if h.NumNodes() != 0 || h.root != -1 {
			return fmt.Errorf("ch: empty graph with %d nodes, root %d", h.NumNodes(), h.root)
		}
		return nil
	}
	if h.root < 0 || int(h.root) >= h.NumNodes() {
		return fmt.Errorf("ch: invalid root %d", h.root)
	}
	if h.parent[h.root] != -1 {
		return fmt.Errorf("ch: root %d has parent %d", h.root, h.parent[h.root])
	}
	childCount := make([]int32, h.NumNodes())
	for x := int32(0); x < int32(h.NumNodes()); x++ {
		lvl := h.level[x]
		if h.IsLeaf(x) {
			if lvl != 0 {
				return fmt.Errorf("ch: leaf %d at level %d", x, lvl)
			}
			if len(h.Children(x)) != 0 {
				return fmt.Errorf("ch: leaf %d has children", x)
			}
		} else {
			if lvl < 1 {
				return fmt.Errorf("ch: internal node %d at level %d", x, lvl)
			}
			kids := h.Children(x)
			if len(kids) < 2 {
				return fmt.Errorf("ch: internal node %d has %d children (hierarchy not compressed)", x, len(kids))
			}
			var vc int32
			for _, c := range kids {
				if c >= x {
					return fmt.Errorf("ch: child %d not smaller than parent %d", c, x)
				}
				if h.level[c] >= lvl {
					return fmt.Errorf("ch: child %d level %d >= parent %d level %d", c, h.level[c], x, lvl)
				}
				if h.parent[c] != x {
					return fmt.Errorf("ch: child %d of %d has parent %d", c, x, h.parent[c])
				}
				childCount[c]++
				vc += h.vertexCount[c]
			}
			if vc != h.vertexCount[x] {
				return fmt.Errorf("ch: node %d vertexCount %d, children sum %d", x, h.vertexCount[x], vc)
			}
		}
		if x != h.root {
			p := h.parent[x]
			if p < 0 || int(p) >= h.NumNodes() {
				return fmt.Errorf("ch: node %d has invalid parent %d", x, p)
			}
		}
	}
	for x := int32(0); x < int32(h.NumNodes()); x++ {
		if x == h.root {
			continue
		}
		if childCount[x] != 1 {
			return fmt.Errorf("ch: node %d appears in %d child lists", x, childCount[x])
		}
	}
	if h.vertexCount[h.root] != int32(n) {
		return fmt.Errorf("ch: root covers %d of %d vertices", h.vertexCount[h.root], n)
	}
	return nil
}

// boundAt returns the exclusive weight bound for level i, saturating instead
// of overflowing for the virtual-root level.
func boundAt(i int32) uint32 {
	if i >= 31 {
		return cc.All
	}
	return uint32(1) << uint(i)
}

// PartitionAtLevel returns, for each vertex, the id of its highest real
// ancestor with level <= i (the virtual root of a disconnected graph does not
// count — it is not a component). With level compression, a node formed at
// level l is the component of its vertices for every threshold in
// [l, level(parent)), so this ancestor is exactly the connected component of
// the vertex in the graph restricted to edges of weight < 2^i; for i at or
// above the top level it is the vertex's connected component in the graph.
func (h *Hierarchy) PartitionAtLevel(i int32) []int32 {
	n := h.g.NumVertices()
	out := make([]int32, n)
	for v := 0; v < n; v++ {
		x := int32(v)
		for {
			p := h.parent[x]
			if p < 0 || (h.virtualRoot && p == h.root) || h.level[p] > i {
				break // x is the component at this threshold
			}
			x = p
		}
		out[v] = x
	}
	return out
}

// LCA returns the lowest common ancestor node of leaves u and v. It panics
// if the leaves share no ancestor (disconnected graph without virtual root).
func (h *Hierarchy) LCA(u, v int32) int32 {
	l := h.lcaOrNeg(u, v)
	if l < 0 {
		panic("ch: LCA of disconnected leaves")
	}
	return l
}

// lcaOrNeg is LCA returning -1 instead of panicking when the nodes share no
// ancestor (possible when a hierarchy is paired with the wrong graph).
func (h *Hierarchy) lcaOrNeg(u, v int32) int32 {
	// Walk the deeper-by-id side up; ids are topologically ordered
	// (children < parents), so repeatedly lifting the smaller id converges.
	for u != v {
		if u < v {
			u = h.parent[u]
		} else {
			v = h.parent[v]
		}
		if u < 0 || v < 0 {
			return -1
		}
	}
	return u
}

func samePartition(a, b []int32, bCount int) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := make(map[int32]int32, bCount)
	rev := make(map[int32]int32, bCount)
	for i := range a {
		if x, ok := fwd[a[i]]; ok {
			if x != b[i] {
				return false
			}
		} else {
			fwd[a[i]] = b[i]
		}
		if x, ok := rev[b[i]]; ok {
			if x != a[i] {
				return false
			}
		} else {
			rev[b[i]] = a[i]
		}
	}
	return true
}
