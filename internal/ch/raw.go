package ch

import (
	"fmt"

	"repro/internal/graph"
)

// Raw exposes the hierarchy's flat arrays and scalars for serialization
// layers (the snapshot format stores them verbatim, which is what allows an
// mmap'd snapshot to alias them without a decode pass). The slices alias the
// hierarchy's internal storage and must not be modified.
type Raw struct {
	// Level, Parent, VertexCount have one entry per CH node (leaves first).
	Level, Parent, VertexCount []int32
	// ChildStart has NumInternal+1 entries; Children holds the concatenated
	// child lists of internal nodes.
	ChildStart, Children []int32
	Root, MaxLevel       int32
	VirtualRoot          bool
}

// Raw returns the hierarchy's storage in Raw form.
func (h *Hierarchy) Raw() Raw {
	return Raw{
		Level: h.level, Parent: h.parent, VertexCount: h.vertexCount,
		ChildStart: h.childStart, Children: h.children,
		Root: h.root, MaxLevel: h.maxLevel, VirtualRoot: h.virtualRoot,
	}
}

// FromRaw reconstructs a hierarchy over g directly from its flat arrays. The
// slices are adopted, not copied — the mmap snapshot path hands in slices
// aliasing the file mapping, so the returned hierarchy is only valid while
// that mapping is.
//
// Shape checks (array lengths against each other and g, root bounds, child
// array bookends) always run in O(1). With deep set, the full load-time
// validation also runs: childStart monotonicity, ValidateStructure (tree
// shape, levels, vertex counts — O(nodes)), and a deterministic sample of
// edge separation properties, which is what refuses arrays paired with the
// wrong graph; run Validate for the full O(m log C) cross-check. Callers may
// pass deep=false only for arrays whose bytes a checksum proves identical to
// a previously deep-validated load, mirroring graph.FromCSRTrusted's contract.
func FromRaw(g *graph.Graph, r Raw, deep bool) (*Hierarchy, error) {
	n := g.NumVertices()
	nodes := len(r.Level)
	if len(r.Parent) != nodes || len(r.VertexCount) != nodes {
		return nil, fmt.Errorf("ch: raw arrays disagree: %d levels, %d parents, %d vertex counts",
			nodes, len(r.Parent), len(r.VertexCount))
	}
	if nodes < n || (n > 0 && nodes > 2*n+1) || (n == 0 && nodes != 0) {
		return nil, fmt.Errorf("ch: implausible node count %d for %d vertices", nodes, n)
	}
	if len(r.ChildStart) != nodes-n+1 {
		return nil, fmt.Errorf("ch: childStart length %d, want %d", len(r.ChildStart), nodes-n+1)
	}
	if r.ChildStart[0] != 0 {
		return nil, fmt.Errorf("ch: childStart[0] = %d, want 0", r.ChildStart[0])
	}
	if int(r.ChildStart[len(r.ChildStart)-1]) != len(r.Children) {
		return nil, fmt.Errorf("ch: childStart end %d, want %d", r.ChildStart[len(r.ChildStart)-1], len(r.Children))
	}
	if nodes == 0 {
		if r.Root != -1 {
			return nil, fmt.Errorf("ch: empty hierarchy with root %d", r.Root)
		}
	} else if r.Root < 0 || int(r.Root) >= nodes {
		return nil, fmt.Errorf("ch: root %d out of range [0,%d)", r.Root, nodes)
	} else if r.Level[r.Root] != r.MaxLevel {
		return nil, fmt.Errorf("ch: root level %d but maxLevel %d", r.Level[r.Root], r.MaxLevel)
	}
	h := &Hierarchy{
		g:           g,
		level:       r.Level,
		parent:      r.Parent,
		vertexCount: r.VertexCount,
		childStart:  r.ChildStart,
		children:    r.Children,
		root:        r.Root,
		maxLevel:    r.MaxLevel,
		virtualRoot: r.VirtualRoot,
	}
	if deep {
		last := int32(0)
		for _, cs := range h.childStart {
			if cs < last {
				return nil, fmt.Errorf("ch: childStart not monotone")
			}
			last = cs
		}
		if err := h.ValidateStructure(); err != nil {
			return nil, fmt.Errorf("ch: raw hierarchy does not match graph: %w", err)
		}
		if err := h.sampleEdgeCheck(1024); err != nil {
			return nil, fmt.Errorf("ch: raw hierarchy does not match graph: %w", err)
		}
	}
	return h, nil
}

// sampleEdgeCheck verifies the separation property on up to limit edges,
// spread deterministically across the vertex range.
func (h *Hierarchy) sampleEdgeCheck(limit int) error {
	n := h.g.NumVertices()
	if n == 0 {
		return nil
	}
	step := n/limit + 1
	checked := 0
	for v := 0; v < n && checked < limit; v += step {
		ts, ws := h.g.Neighbors(int32(v))
		for k, u := range ts {
			if u == int32(v) {
				continue
			}
			if err := h.CheckEdge(int32(v), u, ws[k]); err != nil {
				return err
			}
			checked++
			if checked >= limit {
				break
			}
		}
	}
	return nil
}
