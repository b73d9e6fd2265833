package deltastep

import (
	"math"
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

// ringBins bounds the bucket ring. A run's bins hold the buckets
// [cur, cur+size), bucket i in bins[i&(size-1)], where size is
// ceil(maxW/delta)+2 rounded up to a power of two — every bucket a relaxation
// out of cur can land in, so two live buckets never share a bin — but at most
// ringBins: a width measured from the weights does not bound maxW/delta
// (DefaultDelta says 8 at C = 2^19 on PWD). A relaxation landing beyond the
// ring goes to the overflow list, and before cur moves past the least bucket
// queued there the overflow entries still live are re-bucketed (Dhulipala,
// Blelloch & Shun's few open buckets plus an overflow), so buckets are still
// emptied in increasing order. With delta near C/d the list stays empty.
const ringBins = 1024

func ringSize(maxW uint32, delta int64) int {
	need := (int64(maxW)+delta-1)/delta + 2
	return min(1<<bits.Len64(uint64(need-1)), ringBins)
}

// runExec is the kernel real runtimes take: a plain serial bucket loop over
// the raw CSR. A vertex taken from the current bucket has all its arcs
// relaxed in one pass, the first time it is seen at its current distance and
// again only if that distance drops while the bucket is still open; improved
// vertices go straight into their bins. It does not use the runtime's
// workers: a parallel phase was measured and costs more CPU than it saves
// wall time at every size the daemon serves (EXPERIMENTS.md, "Exec-mode
// delta-stepping"). Once done is closed the next phase does not start, and
// the run returns a nil vector.
func (st *State) runExec(done <-chan struct{}, g *graph.Graph, srcs []int32, delta int64) ([]int64, Stats) {
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
	st.overflow, st.least = st.overflow[:0], math.MaxInt64

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
		select {
		case <-done:
			st.frontier = frontier
			return nil, stats
		default:
		}
		// One phase relaxes what the current bucket holds now; what the phase
		// puts back into it is the next phase.
		slot := cur & mask
		frontier = append(frontier[:0], bins[slot]...)
		bins[slot] = bins[slot][:0]
		if len(frontier) == 0 {
			// Advance to the next non-empty bin, or to the least overflow
			// bucket if that comes first; neither ends the run.
			next := int64(math.MaxInt64)
			for step := int64(1); step <= mask; step++ {
				if len(bins[(cur+step)&mask]) > 0 {
					next = cur + step
					break
				}
			}
			if st.least <= next && len(st.overflow) > 0 {
				stats.Refills++
				stats.OverflowScanned += int64(len(st.overflow))
				next = st.refill(delta, next)
			}
			if next == math.MaxInt64 {
				break
			}
			cur, counted = next, false
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
				if b := nd / delta; b-cur <= mask {
					bins[b&mask] = append(bins[b&mask], entry{u, uint32(nd)})
				} else {
					st.overflow = append(st.overflow, entry{u, uint32(nd)})
					st.least = min(st.least, b)
				}
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

// refill moves the ring on to bucket next or to the least bucket of a live
// overflow entry, whichever is less, and re-buckets the live entries that the
// ring now reaches; dead ones are dropped. It returns where the ring starts.
func (st *State) refill(delta, next int64) int64 {
	live := st.overflow[:0]
	for _, en := range st.overflow {
		if d := st.dist[en.v]; uint32(d) == en.d {
			live = append(live, en)
			next = min(next, d/delta)
		}
	}
	st.overflow, st.least = live[:0], math.MaxInt64
	mask := int64(len(st.bins) - 1)
	for _, en := range live {
		if b := st.dist[en.v] / delta; b-next <= mask {
			st.bins[b&mask] = append(st.bins[b&mask], en)
		} else {
			st.overflow = append(st.overflow, en)
			st.least = min(st.least, b)
		}
	}
	return next
}
