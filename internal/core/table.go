package core

import "repro/internal/graph"

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
