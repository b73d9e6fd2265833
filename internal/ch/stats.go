package ch

import "fmt"

// Stats summarises a hierarchy's structure: the paper's Table 2 reports the
// total number of CH components, the average number of children per
// component, and the memory footprint.
type Stats struct {
	// Components is the total number of CH nodes (leaves + internal).
	Components int
	// Internal is the number of internal (non-leaf) nodes.
	Internal int
	// AvgChildren is the mean number of children over internal nodes.
	AvgChildren float64
	// MaxChildren is the largest child count of any node — the irregularity
	// the paper's selective parallelization targets ("some nodes have
	// several thousand children and others only two", §3.3).
	MaxChildren int
	// Height is the number of levels on the longest root-leaf path.
	Height int
	// CHBytes is the memory footprint of the hierarchy arrays.
	CHBytes int64
}

// ComputeStats derives the Table 2 statistics of the hierarchy.
func (h *Hierarchy) ComputeStats() Stats {
	st := Stats{
		Components: h.NumNodes(),
		Internal:   h.NumInternal(),
	}
	if st.Internal > 0 {
		st.AvgChildren = float64(len(h.children)) / float64(st.Internal)
	}
	n := int32(h.g.NumVertices())
	for x := n; x < int32(h.NumNodes()); x++ {
		if c := len(h.Children(x)); c > st.MaxChildren {
			st.MaxChildren = c
		}
	}
	// Height by upward walks is O(n*h); compute by a downward pass instead.
	depth := make([]int32, h.NumNodes())
	maxDepth := int32(0)
	if h.root >= 0 {
		// Process nodes in decreasing id order: children always have smaller
		// ids than their parents (builders append parents after children).
		for x := int32(h.NumNodes()) - 1; x >= 0; x-- {
			if x == h.root {
				depth[x] = 1
			}
			for _, c := range h.Children(x) {
				depth[c] = depth[x] + 1
				if depth[c] > maxDepth {
					maxDepth = depth[c]
				}
			}
		}
		if maxDepth == 0 {
			maxDepth = 1 // single-node hierarchy
		}
	}
	st.Height = int(maxDepth)
	st.CHBytes = h.Bytes()
	return st
}

// Bytes is the memory footprint of the hierarchy arrays, from their lengths
// alone (Stats.CHBytes without the walks).
func (h *Hierarchy) Bytes() int64 {
	return 4 * int64(len(h.level)+len(h.parent)+len(h.childStart)+len(h.children)+len(h.vertexCount))
}

func (s Stats) String() string {
	return fmt.Sprintf("components=%d avgChildren=%.1f maxChildren=%d height=%d chBytes=%d",
		s.Components, s.AvgChildren, s.MaxChildren, s.Height, s.CHBytes)
}
