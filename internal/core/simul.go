package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/par"
)

// RunMany executes one SSSP query per source against the shared Component
// Hierarchy — the paper's Figure 5 workload — and returns the distance
// vectors indexed like sources; no two alias. On a par.Exec
// min(Workers(), len(sources)) goroutines each reuse one Query, taking
// sources from a shared counter: the parallelism is across queries, none
// inside one.
//
// On a simulated runtime the queries run one after another (a simulator is
// single-threaded by design); harness.SimultaneousCost models their
// co-scheduled makespan.
func (s *Solver) RunMany(sources []int32) [][]int64 {
	out := make([][]int64, len(sources))
	if len(sources) == 0 || s.h.NumLeaves() == 0 {
		return out
	}
	checkSources(s.h, sources) // on the caller's goroutine, where a panic can be recovered
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := 1
	if ex, ok := s.rt.(*par.Exec); ok {
		workers = ex.Workers()
	}
	for w := min(workers, len(sources)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := s.Query()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sources) {
					return
				}
				out[i] = append([]int64(nil), q.Run(sources[i])...)
			}
		}()
	}
	wg.Wait()
	return out
}
