package stress

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/solver"
)

// A transform is one metamorphic transformation of an instance: a derived
// graph plus source set whose exact distance vector is predictable from the
// base instance's distances. Running every solver on the derived instance
// and comparing against want turns each transformation into an oracle that
// needs no reference solver.
type transform struct {
	name    string
	g       *graph.Graph
	sources []int32
	want    []int64
}

// checkMetamorphic builds the transformations of (g, sources) and asserts
// every applicable solver reproduces the predicted distances. base is the
// already-cross-checked distance vector from sources[0].
func checkMetamorphic(cfg Config, rt par.Runtime, name string, g *graph.Graph, sources []int32, base []int64) *Failure {
	for _, tr := range metamorphs(g, sources[0], base) {
		in := solver.NewInstance(tr.g, rt)
		for _, s := range cfg.Solvers {
			if !s.Applicable(tr.g) {
				continue
			}
			got := s.Solve(in, tr.sources)
			if v := firstDiff(got, tr.want); v >= 0 {
				return &Failure{
					Check: fmt.Sprintf("metamorphic-%s(%s)", tr.name, s.Name),
					Inst:  name,
					Detail: fmt.Sprintf("transformed d[%d] = %d, predicted %d (sources %v)",
						v, got[v], tr.want[v], tr.sources),
					G: g, Sources: sources, // the witness is the base instance
				}
			}
		}
	}
	// Source merging: the multi-source labelling must equal the elementwise
	// minimum of the single-source labellings. Native multi-source solvers
	// (Thorup, delta-stepping) take the merged query in one run; folding
	// solvers re-derive it, so both sides of the property get exercised.
	if len(sources) > 1 {
		in := solver.NewInstance(g, rt)
		want := elementwiseMinSingles(in, cfg.Solvers, sources)
		if want != nil {
			for _, s := range cfg.Solvers {
				if !s.Applicable(g) {
					continue
				}
				got := s.Solve(in, sources)
				if v := firstDiff(got, want); v >= 0 {
					return &Failure{
						Check: fmt.Sprintf("metamorphic-source-merge(%s)", s.Name),
						Inst:  name,
						Detail: fmt.Sprintf("multi-source d[%d] = %d, min of singles %d (sources %v)",
							v, got[v], want[v], sources),
						G: g, Sources: sources,
					}
				}
			}
		}
	}
	return nil
}

// elementwiseMinSingles computes the merged-source oracle from the first
// applicable solver's single-source runs.
func elementwiseMinSingles(in *solver.Instance, pool []solver.Solver, sources []int32) []int64 {
	for _, s := range pool {
		if !s.Applicable(in.G) {
			continue
		}
		out := s.Solve(in, sources[:1])
		for _, src := range sources[1:] {
			for v, d := range s.Solve(in, []int32{src}) {
				if d < out[v] {
					out[v] = d
				}
			}
		}
		return out
	}
	return nil
}

// metamorphs derives the transformation set for a single-source instance.
func metamorphs(g *graph.Graph, src int32, base []int64) []transform {
	var out []transform
	if tr, ok := scaleWeights(g, src, base, 3); ok {
		out = append(out, tr)
	}
	out = append(out, relabel(g, src, base))
	if tr, ok := splitEdges(g, src, base); ok {
		out = append(out, tr)
	}
	return out
}

// scaleWeights multiplies every edge weight by k; every finite distance must
// scale by exactly k. Skipped when scaling would overflow the weight cap.
func scaleWeights(g *graph.Graph, src int32, base []int64, k uint32) (transform, bool) {
	if g.MaxWeight() > graph.MaxWeight/k {
		return transform{}, false
	}
	edges := g.Edges()
	for i := range edges {
		edges[i].W *= k
	}
	want := make([]int64, len(base))
	for v, d := range base {
		if d == graph.Inf {
			want[v] = graph.Inf
		} else {
			want[v] = d * int64(k)
		}
	}
	return transform{
		name:    "scale",
		g:       graph.FromEdges(g.NumVertices(), edges),
		sources: []int32{src},
		want:    want,
	}, true
}

// relabel applies a random vertex permutation pi; the distance of pi(v) from
// pi(src) must equal the distance of v from src. This catches any solver
// state that leaks across vertex ids (off-by-one indexing, stale scratch).
func relabel(g *graph.Graph, src int32, base []int64) transform {
	n := g.NumVertices()
	pi := rng.New(uint64(n)*0x9e3779b9 + uint64(src)).Perm(n)
	edges := g.Edges()
	for i := range edges {
		edges[i].U = int32(pi[edges[i].U])
		edges[i].V = int32(pi[edges[i].V])
	}
	want := make([]int64, n)
	for v, d := range base {
		want[pi[v]] = d
	}
	return transform{
		name:    "relabel",
		g:       graph.FromEdges(n, edges),
		sources: []int32{int32(pi[src])},
		want:    want,
	}
}

// splitEdges replaces up to eight edges (u,v,w) with w >= 2 by a fresh
// midpoint x and edges (u,x,w1), (x,v,w2) with w1+w2 = w. Distances between
// original vertices are preserved exactly (the replacement path has the same
// total weight and the midpoint offers no shortcut); each midpoint's
// distance is min(d(u)+w1, d(v)+w2). This stresses the solvers' handling of
// degree-2 chain vertices and CH level boundaries (w1, w2 usually sit at
// lower levels than w).
func splitEdges(g *graph.Graph, src int32, base []int64) (transform, bool) {
	edges := g.Edges()
	var splittable []int
	for i, e := range edges {
		if e.W >= 2 {
			splittable = append(splittable, i)
		}
	}
	if len(splittable) == 0 {
		return transform{}, false
	}
	const maxSplits = 8
	step := 1
	if len(splittable) > maxSplits {
		step = len(splittable) / maxSplits
	}
	n := g.NumVertices()
	want := make([]int64, n, n+maxSplits)
	copy(want, base)
	var rebuilt []graph.Edge
	picked := make(map[int]bool)
	for i := 0; i < len(splittable) && len(picked) < maxSplits; i += step {
		picked[splittable[i]] = true
	}
	next := int32(n)
	for i, e := range edges {
		if !picked[i] {
			rebuilt = append(rebuilt, e)
			continue
		}
		w1 := e.W / 2
		w2 := e.W - w1
		x := next
		next++
		rebuilt = append(rebuilt, graph.Edge{U: e.U, V: x, W: w1}, graph.Edge{U: x, V: e.V, W: w2})
		dx := graph.Inf
		if base[e.U] != graph.Inf {
			dx = base[e.U] + int64(w1)
		}
		if base[e.V] != graph.Inf && base[e.V]+int64(w2) < dx {
			dx = base[e.V] + int64(w2)
		}
		want = append(want, dx)
	}
	return transform{
		name:    "edge-split",
		g:       graph.FromEdges(int(next), rebuilt),
		sources: []int32{src},
		want:    want,
	}, true
}
