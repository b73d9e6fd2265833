package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Overlay applies a pre-validated mutation batch to g copy-on-write and
// returns the mutated graph. The receiver is never modified. The three lists
// carry normalized mutations:
//
//   - set: every stored copy of edge (U,V) — all parallel arcs, both
//     directions — gets weight W. The edge must exist.
//   - ins: one new edge each (parallel copies and self-loops allowed, the
//     same latitude Builder.AddEdge gives generator input).
//   - del: every stored copy of edge (U,V) is removed. The edge must exist.
//
// The returned aliased flag reports the copy-on-write shape: a weight-only
// batch (ins and del empty) shares g's offsets and targets arrays wholesale
// and allocates only a patched weights array, so a caller that will unmap
// the storage g lives in copies them first (OwnTopology). Structural batches
// rebuild all three arrays, bulk-copying the contiguous adjacency runs of
// unmutated vertices, and alias nothing.
//
// Overlay re-checks endpoints, weights, and edge existence and reports
// violations as errors rather than corrupting the CSR; callers that already
// validated (internal/mutate does) can treat an error here as a bug.
func (g *Graph) Overlay(set, ins, del []Edge) (*Graph, bool, error) {
	for _, e := range set {
		if err := g.checkMutationEdge(e, true); err != nil {
			return nil, false, err
		}
	}
	for _, e := range ins {
		if err := g.checkMutationEdge(e, true); err != nil {
			return nil, false, err
		}
	}
	for _, e := range del {
		if err := g.checkMutationEdge(e, false); err != nil {
			return nil, false, err
		}
	}
	if len(ins) == 0 && len(del) == 0 {
		g2, err := g.overlayWeights(set)
		return g2, err == nil, err
	}
	g2, err := g.overlayStructural(set, ins, del)
	return g2, false, err
}

func (g *Graph) checkMutationEdge(e Edge, needWeight bool) error {
	if e.U < 0 || e.U >= g.n || e.V < 0 || e.V >= g.n {
		return fmt.Errorf("graph: overlay edge (%d,%d) out of range [0,%d)", e.U, e.V, g.n)
	}
	if needWeight {
		if e.W == 0 {
			return fmt.Errorf("graph: overlay edge (%d,%d) has zero weight", e.U, e.V)
		}
		if e.W > MaxWeight {
			return fmt.Errorf("graph: overlay edge (%d,%d) weight %d exceeds MaxWeight %d", e.U, e.V, e.W, MaxWeight)
		}
	}
	return nil
}

// patchArcs sets every arc u→v in targets/weights to weight w. It returns how
// many arcs it touched, and whether any overwritten weight sat on one of the
// given bounds (in which case that bound may no longer be achieved and needs a
// rescan).
func (g *Graph) patchArcs(weights []uint32, u, v int32, w, minW, maxW uint32) (int, bool) {
	patched, onBound := 0, false
	lo, hi := g.offsets[u], g.offsets[u+1]
	for i := lo; i < hi; i++ {
		if g.targets[i] == v {
			if weights[i] == minW || weights[i] == maxW {
				onBound = true
			}
			weights[i] = w
			patched++
		}
	}
	return patched, onBound
}

// OwnTopology returns g with its offsets and targets copied to the heap and
// its weights shared: a weight-only Overlay that holds nothing of the
// storage its parent's topology lives in.
func (g *Graph) OwnTopology() *Graph {
	return &Graph{n: g.n, m: g.m, offsets: slices.Clone(g.offsets), targets: slices.Clone(g.targets),
		weights: g.weights, maxW: g.maxW, minW: g.minW}
}

// overlayWeights is the zero-copy path: offsets and targets are shared with
// the parent, only the weights array is fresh.
func (g *Graph) overlayWeights(set []Edge) (*Graph, error) {
	weights := make([]uint32, len(g.weights))
	copy(weights, g.weights)
	boundHit := false
	for _, e := range set {
		n, hit := g.patchArcs(weights, e.U, e.V, e.W, g.minW, g.maxW)
		if e.U != e.V {
			n2, hit2 := g.patchArcs(weights, e.V, e.U, e.W, g.minW, g.maxW)
			n, hit = n+n2, hit || hit2
		}
		if n == 0 {
			return nil, fmt.Errorf("graph: overlay set_weight on missing edge (%d,%d)", e.U, e.V)
		}
		boundHit = boundHit || hit
	}
	g2 := &Graph{
		n:       g.n,
		m:       g.m,
		offsets: g.offsets,
		targets: g.targets,
		weights: weights,
	}
	g2.setWeightBounds(g, boundHit, set, nil)
	return g2, nil
}

// overlayStructural rebuilds the CSR arrays with deletions dropped and
// insertions appended to their endpoints' adjacency runs. Only the adjacency
// runs of mutated endpoints are walked arc-by-arc; the stretches of untouched
// vertices between them — almost the whole graph for a small delta — move as
// single bulk copies, which is what keeps a small structural overlay at
// memcpy speed instead of per-vertex bookkeeping over all n runs.
func (g *Graph) overlayStructural(set, ins, del []Edge) (*Graph, error) {
	n := int(g.n)
	// Group the structural ops by endpoint. Everything else is untouched.
	delAt := make(map[int32][]int32, 2*len(del))
	insAt := make(map[int32][]Edge, 2*len(ins))
	m2 := g.m
	boundHit := false
	for _, e := range del {
		dup := false
		for _, v := range delAt[e.U] {
			if v == e.V {
				dup = true
				break
			}
		}
		if dup {
			// The first delete already drops every copy; a second op on the
			// same pair deletes a missing edge.
			return nil, fmt.Errorf("graph: overlay delete of missing edge (%d,%d)", e.U, e.V)
		}
		matched := int64(0)
		lo, hi := g.offsets[e.U], g.offsets[e.U+1]
		for i := lo; i < hi; i++ {
			if g.targets[i] == e.V {
				matched++
				if g.weights[i] == g.minW || g.weights[i] == g.maxW {
					boundHit = true
				}
			}
		}
		if matched == 0 {
			return nil, fmt.Errorf("graph: overlay delete of missing edge (%d,%d)", e.U, e.V)
		}
		delAt[e.U] = append(delAt[e.U], e.V)
		if e.U != e.V {
			delAt[e.V] = append(delAt[e.V], e.U)
		}
		m2 -= matched
	}
	for _, e := range ins {
		insAt[e.U] = append(insAt[e.U], Edge{U: e.U, V: e.V, W: e.W})
		if e.U != e.V {
			insAt[e.V] = append(insAt[e.V], Edge{U: e.V, V: e.U, W: e.W})
		}
		m2++
	}
	verts := make([]int32, 0, len(delAt)+len(insAt))
	for v := range delAt {
		verts = append(verts, v)
	}
	for v := range insAt {
		if _, ok := delAt[v]; !ok {
			verts = append(verts, v)
		}
	}
	sort.Slice(verts, func(i, j int) bool { return verts[i] < verts[j] })

	// Degree change per touched vertex: inserted arcs minus dropped arcs.
	degDelta := make(map[int32]int64, len(verts))
	for _, v := range verts {
		d := int64(len(insAt[v]))
		lo, hi := g.offsets[v], g.offsets[v+1]
		for i := lo; i < hi; i++ {
			for _, t := range delAt[v] {
				if g.targets[i] == t {
					d--
					break
				}
			}
		}
		degDelta[v] = d
	}

	offsets := make([]int64, n+1)
	ti := 0
	shift := int64(0)
	for v := 0; v < n; v++ {
		offsets[v] = g.offsets[v] + shift
		if ti < len(verts) && verts[ti] == int32(v) {
			shift += degDelta[verts[ti]]
			ti++
		}
	}
	offsets[n] = g.offsets[n] + shift

	targets := make([]int32, offsets[n])
	weights := make([]uint32, offsets[n])
	src, dst := int64(0), int64(0)
	for _, v := range verts {
		runStart := g.offsets[v]
		copy(targets[dst:], g.targets[src:runStart])
		copy(weights[dst:], g.weights[src:runStart])
		dst += runStart - src
		hi := g.offsets[v+1]
		dset := delAt[v]
		for i := runStart; i < hi; i++ {
			t := g.targets[i]
			dropped := false
			for _, d := range dset {
				if d == t {
					dropped = true
					break
				}
			}
			if dropped {
				continue
			}
			targets[dst] = t
			weights[dst] = g.weights[i]
			dst++
		}
		for _, e := range insAt[v] {
			targets[dst] = e.V
			weights[dst] = e.W
			dst++
		}
		if dst != offsets[v+1] {
			return nil, fmt.Errorf("graph: overlay arc accounting off at vertex %d: %d != %d", v, dst, offsets[v+1])
		}
		src = hi
	}
	copy(targets[dst:], g.targets[src:])
	copy(weights[dst:], g.weights[src:])

	g2 := &Graph{n: g.n, m: m2, offsets: offsets, targets: targets, weights: weights}
	// Weight patches land on the rebuilt arrays; a set on a deleted pair was
	// rejected by validation, but stay defensive.
	for _, e := range set {
		k, hit := g2.patchArcs(g2.weights, e.U, e.V, e.W, g.minW, g.maxW)
		if e.U != e.V {
			k2, hit2 := g2.patchArcs(g2.weights, e.V, e.U, e.W, g.minW, g.maxW)
			k, hit = k+k2, hit || hit2
		}
		if k == 0 {
			return nil, fmt.Errorf("graph: overlay set_weight on missing edge (%d,%d)", e.U, e.V)
		}
		boundHit = boundHit || hit
	}
	g2.setWeightBounds(g, boundHit, set, ins)
	return g2, nil
}

// setWeightBounds refreshes min/max weight after an overlay. When no removed
// or overwritten arc weight sat on one of the parent's bounds, the parent's
// extrema are still achieved by surviving arcs, so folding in the new arc
// weights gives the exact bounds without touching the weight array. Otherwise
// the old extremum may be gone and only a rescan is correct.
func (g2 *Graph) setWeightBounds(parent *Graph, boundHit bool, set, ins []Edge) {
	if boundHit {
		g2.recomputeWeightBounds()
		return
	}
	lo, hi := parent.minW, parent.maxW
	if parent.m == 0 {
		lo, hi = math.MaxUint32, 0
	}
	for _, e := range set {
		if e.W < lo {
			lo = e.W
		}
		if e.W > hi {
			hi = e.W
		}
	}
	for _, e := range ins {
		if e.W < lo {
			lo = e.W
		}
		if e.W > hi {
			hi = e.W
		}
	}
	if len(g2.weights) == 0 {
		g2.minW, g2.maxW = 0, 0
		return
	}
	g2.minW, g2.maxW = lo, hi
}

// recomputeWeightBounds rescans the weight array for min/max — the fallback
// when a mutation removed or overwrote an arc sitting on a bound, so the old
// extremum may no longer be achieved anywhere.
func (g *Graph) recomputeWeightBounds() {
	g.minW, g.maxW = 0, 0
	if len(g.weights) == 0 {
		return
	}
	g.minW = math.MaxUint32
	for _, w := range g.weights {
		if w > g.maxW {
			g.maxW = w
		}
		if w < g.minW {
			g.minW = w
		}
	}
}
