package core

import "repro/internal/graph"

// DistanceTable computes the many-to-many distance table between sources and
// targets: result[i][j] is the distance from sources[i] to targets[j]. All
// rows are independent shared-CH Thorup queries run concurrently (exec mode)
// — the many-to-many workload of Knopp et al. that the paper's §2 and §6
// identify as the consumer of exactly this batching ability.
func (s *Solver) DistanceTable(sources, targets []int32) [][]int64 {
	full := s.RunMany(sources)
	out := make([][]int64, len(sources))
	for i := range sources {
		row := make([]int64, len(targets))
		for j, t := range targets {
			row[j] = full[i][t]
		}
		out[i] = row
	}
	return out
}

// Eccentricity returns the largest finite distance of the last Run — the
// source's (weighted) eccentricity.
func (q *Query) Eccentricity() int64 {
	var max int64
	for _, d := range q.Dist() {
		if d < graph.Inf && d > max {
			max = d
		}
	}
	return max
}

// Reached returns how many vertices the last Run reached.
func (q *Query) Reached() int {
	n := 0
	for _, d := range q.Dist() {
		if d < graph.Inf {
			n++
		}
	}
	return n
}
