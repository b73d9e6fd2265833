package deltastep

import (
	"math/bits"

	"repro/internal/graph"
)

// entry is a bucket member: v, queued when its distance dropped to a value
// whose low 32 bits are d. It is live while dist[v] still ends in d; a later
// improvement queued a fresh entry and leaves this one to be skipped. Every
// push follows a strict decrease, so a vertex never has two entries for one
// distance and a live entry is relaxed once — bins need no deduplication and
// the kernel no per-vertex marks. Keeping only 32 bits halves the bins (the
// bulk of a pooled state); a relaxation always starts from dist[v] itself, so
// an outdated entry that collides on those bits with the current distance
// costs one redundant relaxation, never a wrong answer.
type entry struct {
	v int32
	d uint32
}

// ringSize is the number of bins that holds every live bucket of a run:
// ceil(maxW/delta)+2, rounded up to a power of two so indexing is a mask.
// Bucket i lives in bins[i&(ringSize-1)]; a relaxation out of bucket i lands
// in [i, i+ceil(maxW/delta)], so two live buckets never share a bin.
func ringSize(maxW uint32, delta int64) int {
	need := (int64(maxW)+delta-1)/delta + 2
	return 1 << bits.Len64(uint64(need-1))
}

// runExec is the kernel real runtimes take: a plain serial bucket loop over
// the raw CSR. A vertex taken from the current bucket has all its arcs
// relaxed in one pass, the first time it is seen at its current distance and
// again only if that distance drops while the bucket is still open; improved
// vertices go straight into their bins. It does not use the runtime's
// workers: a parallel phase was measured and costs more CPU than it saves
// wall time at every size the daemon serves (EXPERIMENTS.md, "Exec-mode
// delta-stepping").
func (st *State) runExec(g *graph.Graph, srcs []int32, delta int64) ([]int64, Stats) {
	size := ringSize(g.MaxWeight(), delta)
	if cap(st.bins) < size {
		grown := make([][]entry, size)
		copy(grown, st.bins[:cap(st.bins)])
		st.bins = grown
	}
	bins := st.bins[:size]
	for i := range bins {
		bins[i] = bins[i][:0]
	}
	st.bins = bins

	dist := st.dist
	offs, tgts, wts := g.AdjOffsets(), g.Targets(), g.Weights()
	mask := int64(size - 1)

	var stats Stats
	var taken, reached int64
	for _, s := range srcs {
		if dist[s] != 0 {
			dist[s] = 0
			reached++
			bins[0] = append(bins[0], entry{s, 0})
		}
	}

	frontier := st.frontier
	cur, counted := int64(0), false
	for {
		// One phase relaxes what the current bucket holds now; what the phase
		// puts back into it is the next phase.
		slot := cur & mask
		frontier = append(frontier[:0], bins[slot]...)
		bins[slot] = bins[slot][:0]
		if len(frontier) == 0 {
			// Advance to the next non-empty bin; one empty lap ends the run.
			step := int64(1)
			for step <= mask && len(bins[(cur+step)&mask]) == 0 {
				step++
			}
			if step > mask {
				break
			}
			cur, counted = cur+step, false
			continue
		}
		before := taken
		for _, en := range frontier {
			v := en.v
			dv := dist[v]
			if uint32(dv) != en.d {
				continue
			}
			taken++
			for e, end := offs[v], offs[v+1]; e < end; e++ {
				u, w := tgts[e], int64(wts[e])
				nd := dv + w
				du := dist[u]
				if nd >= du {
					continue
				}
				dist[u] = nd
				if du == graph.Inf {
					reached++
				}
				if w < delta {
					stats.LightRelax++
				} else {
					stats.HeavyRelax++
				}
				b := (nd / delta) & mask
				bins[b] = append(bins[b], entry{u, uint32(nd)})
			}
		}
		if taken > before {
			stats.Phases++
			if !counted {
				stats.Buckets++
				counted = true
			}
		}
	}
	// A vertex is taken once per distance it held while its bucket was open;
	// every take beyond its first is a re-insertion.
	stats.Reinsertion = taken - reached
	st.frontier = frontier
	return dist, stats
}
