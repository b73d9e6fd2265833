package gen

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/rng"
)

// WeightDist identifies an edge weight distribution.
type WeightDist int

const (
	// UWD draws weights uniformly from [1, C].
	UWD WeightDist = iota
	// PWD draws weights of the form 2^i with i uniform in [1, log2 C]
	// (poly-logarithmic distribution, favouring small weights).
	PWD
)

func (d WeightDist) String() string {
	switch d {
	case UWD:
		return "UWD"
	case PWD:
		return "PWD"
	default:
		return fmt.Sprintf("WeightDist(%d)", int(d))
	}
}

// Class identifies a graph family.
type Class int

const (
	// Rand is the DIMACS random family: a cycle plus random edges.
	Rand Class = iota
	// RMAT is the DIMACS scale-free family.
	RMAT
	// Grid is a 2D grid with unit-ish weights: a stand-in for the road
	// networks of the paper's §6 future-work discussion (high diameter, low
	// degree).
	Grid
)

func (c Class) String() string {
	switch c {
	case Rand:
		return "Rand"
	case RMAT:
		return "RMAT"
	case Grid:
		return "Grid"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Instance describes one paper-style experimental instance.
type Instance struct {
	Class Class
	Dist  WeightDist
	LogN  int // n = 2^LogN vertices
	LogC  int // C = 2^LogC maximum edge weight
	Seed  uint64
}

// Name returns the paper's instance naming, e.g. "RMAT-PWD-2^25-2^25".
func (in Instance) Name() string {
	return fmt.Sprintf("%s-%s-2^%d-2^%d", in.Class, in.Dist, in.LogN, in.LogC)
}

// N returns the vertex count 2^LogN.
func (in Instance) N() int { return 1 << in.LogN }

// C returns the maximum edge weight 2^LogC.
func (in Instance) C() uint32 { return 1 << in.LogC }

// Generate builds the instance's graph with m = 4n undirected edges (the
// paper's experimental design).
func (in Instance) Generate() *graph.Graph {
	n := in.N()
	m := 4 * n
	switch in.Class {
	case Rand:
		return Random(n, m, in.C(), in.Dist, in.Seed)
	case RMAT:
		return RMATGraph(n, m, in.C(), in.Dist, in.Seed)
	case Grid:
		side := 1 << (in.LogN / 2)
		return GridGraph(side, n/side, in.C(), in.Dist, in.Seed)
	default:
		panic("gen: unknown class " + in.Class.String())
	}
}

// sampleWeight draws one weight from the distribution.
func sampleWeight(r *rng.Xoshiro256, c uint32, dist WeightDist) uint32 {
	if c < 1 {
		c = 1
	}
	switch dist {
	case UWD:
		return uint32(r.Uint64n(uint64(c))) + 1
	case PWD:
		logC := bits.Len32(c) - 1 // floor(log2 c); a shift loop wraps at c >= 2^31
		if logC < 1 {
			return 1
		}
		i := int(r.Uint64n(uint64(logC))) + 1 // i uniform in [1, log2 C]
		return uint32(1) << i
	default:
		panic("gen: unknown weight distribution")
	}
}

// Random generates the DIMACS random family: vertices 0..n-1 joined in a
// cycle (guaranteeing connectivity), plus m-n uniformly random edges which
// may include self-loops and parallel edges.
func Random(n, m int, c uint32, dist WeightDist, seed uint64) *graph.Graph {
	if n < 1 {
		panic("gen: Random requires n >= 1")
	}
	if m < n {
		panic(fmt.Sprintf("gen: Random requires m >= n (got m=%d n=%d)", m, n))
	}
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	if n == 1 {
		// Degenerate cycle: skip the self-loop, emit random self-loops below.
	} else {
		for v := 0; v < n; v++ {
			b.MustAddEdge(int32(v), int32((v+1)%n), sampleWeight(r, c, dist))
		}
	}
	extra := m - n
	if n == 1 {
		extra = m
	}
	for i := 0; i < extra; i++ {
		u := int32(r.Intn(n))
		v := int32(r.Intn(n))
		b.MustAddEdge(u, v, sampleWeight(r, c, dist))
	}
	return b.Build()
}

// RMATGraph generates the R-MAT scale-free family with the standard DIMACS
// parameters (a,b,c,d) = (0.45, 0.15, 0.15, 0.25). n is rounded up to a
// power of two internally (the paper's instances are powers of two already).
func RMATGraph(n, m int, c uint32, dist WeightDist, seed uint64) *graph.Graph {
	if n < 2 {
		panic("gen: RMAT requires n >= 2")
	}
	levels := 0
	for (1 << levels) < n {
		levels++
	}
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	const pa, pb, pc = 0.45, 0.15, 0.15
	for i := 0; i < m; i++ {
		var u, v int
		for {
			u, v = 0, 0
			for l := 0; l < levels; l++ {
				f := r.Float64()
				switch {
				case f < pa:
					// top-left: nothing to add
				case f < pa+pb:
					v |= 1 << l
				case f < pa+pb+pc:
					u |= 1 << l
				default:
					u |= 1 << l
					v |= 1 << l
				}
			}
			if u < n && v < n {
				break
			}
		}
		b.MustAddEdge(int32(u), int32(v), sampleWeight(r, c, dist))
	}
	return b.Build()
}

// GridGraph generates a rows×cols 2D grid (4-neighbour), the stand-in for
// road networks: high diameter, maximum degree 4. Weights follow dist.
func GridGraph(rows, cols int, c uint32, dist WeightDist, seed uint64) *graph.Graph {
	if rows < 1 || cols < 1 {
		panic("gen: Grid requires positive dimensions")
	}
	r := rng.New(seed)
	n := rows * cols
	b := graph.NewBuilder(n)
	id := func(i, j int) int32 { return int32(i*cols + j) }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if j+1 < cols {
				b.MustAddEdge(id(i, j), id(i, j+1), sampleWeight(r, c, dist))
			}
			if i+1 < rows {
				b.MustAddEdge(id(i, j), id(i+1, j), sampleWeight(r, c, dist))
			}
		}
	}
	return b.Build()
}

// Path generates a path 0-1-...-n-1 with the given constant weight.
func Path(n int, w uint32) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.MustAddEdge(int32(v), int32(v+1), w)
	}
	return b.Build()
}

// Cycle generates a cycle on n >= 3 vertices with the given constant weight.
func Cycle(n int, w uint32) *graph.Graph {
	if n < 3 {
		panic("gen: Cycle requires n >= 3")
	}
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.MustAddEdge(int32(v), int32((v+1)%n), w)
	}
	return b.Build()
}

// Star generates a star with center 0 and n-1 leaves.
func Star(n int, w uint32) *graph.Graph {
	if n < 1 {
		panic("gen: Star requires n >= 1")
	}
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.MustAddEdge(0, int32(v), w)
	}
	return b.Build()
}

// Complete generates the complete graph K_n with random weights in [1, c].
func Complete(n int, c uint32, seed uint64) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.MustAddEdge(int32(u), int32(v), sampleWeight(r, c, UWD))
		}
	}
	return b.Build()
}
