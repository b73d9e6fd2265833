package deltastep

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
)

// simState is the scratch of the sim-mode kernel, allocated on a State's
// first sim-mode run so that serving states never carry it.
type simState struct {
	buckets   [][]int32
	frontier  []int32 // deduplicated current-bucket members
	removed   []int32 // everything removed from the current bucket
	scanned   []int64 // distance when last light-scanned, per vertex
	inRemoved []int64 // bucket index when last appended to removed, per vertex
	touched   []int32 // relax-phase output, filled via atomic cursor
}

// runSim is the kernel the MTA-2 cost model is charged against: light
// sub-phases and one heavy phase per bucket, every loop routed through
// rt.ForAuto / rt.ChargeLoop, improved vertices collected through one
// int_fetch_add cursor and distributed afterwards. results/csv (Table 5,
// Figure 5, ablation-delta, road, portfolio) reproduce its accounting, so
// its loop structure and charges are frozen; only the seeding is a loop.
func (st *State) runSim(rt par.Runtime, g *graph.Graph, srcs []int32, delta int64) ([]int64, Stats) {
	if st.sim == nil {
		st.sim = &simState{}
	}
	sm := st.sim
	n := g.NumVertices()
	if cap(sm.inRemoved) < n {
		sm.scanned = make([]int64, n)
		sm.inRemoved = make([]int64, n)
	}
	for i := range sm.buckets {
		sm.buckets[i] = sm.buckets[i][:0]
	}
	dist := st.dist
	var stats Stats

	buckets := sm.buckets
	if len(buckets) == 0 {
		buckets = make([][]int32, 1, 64)
	}
	addBucket := func(v int32, idx int64) {
		for int64(len(buckets)) <= idx {
			buckets = append(buckets, nil)
		}
		buckets[idx] = append(buckets[idx], v)
	}

	for _, src := range srcs {
		if dist[src] != 0 {
			dist[src] = 0
			addBucket(src, 0)
		}
	}

	frontier := sm.frontier[:0]
	removed := sm.removed[:0]
	scanned := sm.scanned[:n]
	for i := range scanned {
		scanned[i] = -1
	}
	inRemoved := sm.inRemoved[:n]
	for i := range inRemoved {
		inRemoved[i] = -1
	}

	// touched is the shared output array of one relax phase: improved
	// vertices are appended with an atomic cursor (the MTA int_fetch_add
	// reduction idiom) and distributed into buckets afterwards.
	touched := sm.touched
	var cursor int64

	relaxPhase := func(sources []int32, light bool, i int64) {
		// Size the output by the total degree of the sources.
		total := 0
		for _, v := range sources {
			total += g.Degree(v)
		}
		if cap(touched) < total {
			touched = make([]int32, total)
		}
		touched = touched[:total]
		atomic.StoreInt64(&cursor, 0)
		rt.ForAuto(par.DefaultThresholds, len(sources), func(k int) {
			v := sources[k]
			dv := atomic.LoadInt64(&dist[v])
			ts, ws := g.Neighbors(v)
			rt.Charge(int64(len(ts)))
			for e, u := range ts {
				w := int64(ws[e])
				if light != (w < delta) {
					continue
				}
				nd := dv + w
				if par.CASMin(&dist[u], nd) {
					slot := atomic.AddInt64(&cursor, 1) - 1
					touched[slot] = u
				}
			}
		})
		cnt := atomic.LoadInt64(&cursor)
		if light {
			stats.LightRelax += cnt
		} else {
			stats.HeavyRelax += cnt
		}
		// Distribute improved vertices into their (new) buckets. Duplicates
		// are fine: the scan filters lazily by current distance.
		// A relaxation never lands below the bucket being processed (all
		// sources have distance >= i*delta and weights are positive), so
		// idx >= i: light requests may re-enter bucket i, heavy ones always
		// land strictly above it.
		rt.ChargeLoop(par.DefaultThresholds.Mode(int(cnt)), int(cnt), 2)
		for _, u := range touched[:cnt] {
			addBucket(u, dist[u]/delta)
		}
	}

	for i := int64(0); i < int64(len(buckets)); i++ {
		if len(buckets[i]) == 0 {
			continue
		}
		stats.Buckets++
		removed = removed[:0]
		for len(buckets[i]) > 0 {
			// Collect the sub-phase frontier: members whose current distance
			// really lies in this bucket and that were not already scanned
			// at this distance.
			cand := buckets[i]
			buckets[i] = nil
			frontier = frontier[:0]
			rt.ChargeLoop(par.DefaultThresholds.Mode(len(cand)), len(cand), 2)
			for _, v := range cand {
				if dist[v]/delta != i {
					continue // stale entry
				}
				if scanned[v] == dist[v] {
					continue // already light-scanned at this distance
				}
				if scanned[v] >= 0 {
					stats.Reinsertion++
				}
				scanned[v] = dist[v]
				frontier = append(frontier, v)
				if inRemoved[v] != i {
					inRemoved[v] = i
					removed = append(removed, v)
				}
			}
			if len(frontier) == 0 {
				continue
			}
			stats.Phases++
			relaxPhase(frontier, true, i)
		}
		if len(removed) > 0 {
			relaxPhase(removed, false, i)
		}
	}
	// Hand the (possibly grown) buffers back to the state for the next run.
	sm.buckets = buckets
	sm.frontier = frontier
	sm.removed = removed
	sm.touched = touched
	return dist, stats
}
