package stress

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Spec describes one generated stress instance. Specs are plain values so a
// failure can always be re-derived from its textual form plus the seed.
type Spec struct {
	Family string // rand | rmat | grid | geom | smallworld | star | disconnected | heavy
	N      int
	C      uint32 // maximum edge weight; 1 means unit weights (BFS joins the pool)
	PWD    bool
	Seed   uint64
}

// Name renders the spec in the paper-adjacent naming convention.
func (sp Spec) Name() string {
	dist := "UWD"
	if sp.PWD {
		dist = "PWD"
	}
	return fmt.Sprintf("%s-%s-n%d-C%d-seed%d", sp.Family, dist, sp.N, sp.C, sp.Seed)
}

func (sp Spec) dist() gen.WeightDist {
	if sp.PWD {
		return gen.PWD
	}
	return gen.UWD
}

// Generate builds the spec's graph.
func (sp Spec) Generate() *graph.Graph {
	n := sp.N
	switch sp.Family {
	case "rand":
		return gen.Random(n, 4*n, sp.C, sp.dist(), sp.Seed)
	case "rmat":
		return gen.RMATGraph(n, 4*n, sp.C, sp.dist(), sp.Seed)
	case "grid":
		side := 1
		for (side+1)*(side+1) <= n {
			side++
		}
		return gen.GridGraph(side, side, sp.C, sp.dist(), sp.Seed)
	case "geom":
		return gen.Geometric(n, 0.15, sp.C, sp.Seed)
	case "smallworld":
		return gen.SmallWorld(n, 3, 0.1, sp.C, sp.dist(), sp.Seed)
	case "star":
		return gen.Star(n, sp.C)
	case "disconnected":
		// Two independent Random blocks with no crossing edges: exercises
		// Inf labels, the CH virtual root, and all-or-nothing settling.
		k := n / 2
		if k < 2 {
			k = 2
		}
		if n-k < 2 {
			n = k + 2
		}
		return twoBlocks(gen.Random(k, 4*k, sp.C, sp.dist(), sp.Seed), gen.Random(n-k, 4*(n-k), sp.C, sp.dist(), sp.Seed+1), 0)
	case "heavy":
		// Two grids of side at least 6 whose every arc weighs within C of
		// graph.MaxWeight: every vertex has one five arcs away, past 2^32, so
		// every served vector needs more than 32 bits a distance, and an
		// inserted bridge from one grid into the other widens a resume.
		side := 6
		for (side+1)*(side+1) <= n/2 {
			side++
		}
		return twoBlocks(gen.GridGraph(side, side, sp.C, sp.dist(), sp.Seed), gen.GridGraph(side, side, sp.C, sp.dist(), sp.Seed+1), graph.MaxWeight-sp.C)
	default:
		panic("stress: unknown family " + sp.Family)
	}
}

// Sweep returns the deterministic instance list for one round: every family
// in internal/gen crossed with small/large C and both weight distributions,
// sized below maxN. The same (seed, maxN) always yields the same sweep.
func Sweep(seed uint64, maxN int) []Spec {
	if maxN < 16 {
		maxN = 16
	}
	r := rng.New(seed)
	size := func() int { return maxN/2 + r.Intn(maxN/2) + 4 }
	sub := func() uint64 { return r.Uint64() }
	return []Spec{
		{Family: "rand", N: size(), C: 4, Seed: sub()},                       // small C
		{Family: "rand", N: size(), C: 1 << 12, PWD: true, Seed: sub()},      // large C, poly-log
		{Family: "rand", N: size(), C: 1, Seed: sub()},                       // unit weights: BFS joins
		{Family: "rmat", N: size(), C: 1 << 8, Seed: sub()},                  // scale-free
		{Family: "rmat", N: size(), C: 1 << 10, PWD: true, Seed: sub()},      // scale-free, poly-log
		{Family: "grid", N: size(), C: 16, Seed: sub()},                      // road-like
		{Family: "grid", N: size(), C: 1, Seed: sub()},                       // unit grid: BFS joins
		{Family: "geom", N: size(), C: 64, Seed: sub()},                      // spatial
		{Family: "smallworld", N: size(), C: 1 << 8, PWD: true, Seed: sub()}, // lattice+rewire
		{Family: "star", N: size(), C: 9, Seed: sub()},                       // hub contention
		{Family: "disconnected", N: size(), C: 1 << 6, Seed: sub()},          // Inf handling
		{Family: "rand", N: 2 + r.Intn(6), C: 4, Seed: sub()},                // tiny degenerate
		{Family: "heavy", N: size(), C: 16, Seed: sub()},                     // vectors past 32 bits a distance
		{Family: "disconnected", N: size(), C: 2, Seed: sub()},               // vectors of 8 bits or fewer
	}
}

// twoBlocks is a beside b with no crossing edges, every weight raised by add.
func twoBlocks(a, b *graph.Graph, add uint32) *graph.Graph {
	bld := graph.NewBuilder(a.NumVertices() + b.NumVertices())
	for _, e := range a.Edges() {
		bld.MustAddEdge(e.U, e.V, e.W+add)
	}
	off := int32(a.NumVertices())
	for _, e := range b.Edges() {
		bld.MustAddEdge(e.U+off, e.V+off, e.W+add)
	}
	return bld.Build()
}
