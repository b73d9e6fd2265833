package bfs

import (
	"context"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
)

// Serial computes BFS levels from src (-1 for unreachable vertices).
func Serial(g *graph.Graph, src int32) []int32 {
	return SerialFromSources(g, []int32{src})
}

// seed returns the level vector with every source at 0 and the rest at -1,
// and the level-0 frontier: a duplicate source enters it once, and an empty
// set (or graph) leaves it empty.
func seed(g *graph.Graph, sources []int32) (level, frontier []int32) {
	level = make([]int32, g.NumVertices())
	for i := range level {
		level[i] = -1
	}
	if len(level) == 0 {
		return level, nil
	}
	for _, src := range sources {
		if level[src] < 0 {
			level[src] = 0
			frontier = append(frontier, src)
		}
	}
	return level, frontier
}

// SerialFromSources computes each vertex's BFS level from the nearest of
// sources (in range; see seed) in one traversal.
func SerialFromSources(g *graph.Graph, sources []int32) []int32 {
	level, frontier := seed(g, sources)
	for depth := int32(1); len(frontier) > 0; depth++ {
		var next []int32
		for _, v := range frontier {
			ts, _ := g.Neighbors(v)
			for _, u := range ts {
				if level[u] < 0 {
					level[u] = depth
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return level
}

// Parallel computes the same levels with level-synchronous parallel frontier
// expansion on the given runtime.
func Parallel(rt par.Runtime, g *graph.Graph, src int32) []int32 {
	return ParallelFromSources(context.Background(), rt, g, []int32{src})
}

// ParallelFromSources is SerialFromSources with level-synchronous parallel
// frontier expansion on the given runtime. It looks at ctx before every level
// and, once it is done, stops and returns nil.
func ParallelFromSources(ctx context.Context, rt par.Runtime, g *graph.Graph, sources []int32) []int32 {
	level, frontier := seed(g, sources)
	var next []int32
	for depth := int32(1); len(frontier) > 0; depth++ {
		if ctx.Err() != nil {
			return nil
		}
		// Size the output by the frontier's total degree, then compact with
		// an atomic cursor.
		total := 0
		for _, v := range frontier {
			total += g.Degree(v)
		}
		rt.ChargeLoop(par.DefaultThresholds.Mode(len(frontier)), len(frontier), 1)
		if cap(next) < total {
			next = make([]int32, total)
		}
		next = next[:total]
		var cursor int64
		rt.ForAuto(par.DefaultThresholds, len(frontier), func(i int) {
			v := frontier[i]
			ts, _ := g.Neighbors(v)
			rt.Charge(int64(len(ts)) * 2)
			for _, u := range ts {
				if atomic.LoadInt32(&level[u]) >= 0 {
					continue
				}
				if atomic.CompareAndSwapInt32(&level[u], -1, depth) {
					next[atomic.AddInt64(&cursor, 1)-1] = u
				}
			}
		})
		frontier = append(frontier[:0], next[:cursor]...)
	}
	return level
}

// Distances converts BFS levels to unit-weight shortest-path distances
// (graph.Inf for unreachable), for direct comparison with the SSSP solvers.
func Distances(level []int32) []int64 {
	out := make([]int64, len(level))
	for i, l := range level {
		if l < 0 {
			out[i] = graph.Inf
		} else {
			out[i] = int64(l)
		}
	}
	return out
}

// Eccentricity returns the maximum finite level (the source's eccentricity),
// or -1 if only the source is reachable.
func Eccentricity(level []int32) int32 {
	max := int32(-1)
	for _, l := range level {
		if l > max {
			max = l
		}
	}
	return max
}
