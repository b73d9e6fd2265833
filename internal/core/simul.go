package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/ch"
	"repro/internal/mta"
	"repro/internal/par"
)

// RunMany executes one SSSP query per source against the shared Component
// Hierarchy — the paper's Figure 5 workload — and returns the distance
// vectors indexed like sources; no two alias. On a real runtime
// min(rt.Workers(), len(sources)) goroutines each reuse one Query, taking
// sources from a shared counter: the parallelism is across queries, none
// inside one.
//
// A sim-mode runtime has one worker, so its queries run one after another (a
// sim runtime is single-threaded by design); use SimultaneousCost to model
// their co-scheduled makespan.
func (s *Solver) RunMany(sources []int32) [][]int64 {
	out := make([][]int64, len(sources))
	if len(sources) == 0 || s.h.NumLeaves() == 0 {
		return out
	}
	s.checkSources(sources) // on the caller's goroutine, where a panic can be recovered
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(s.rt.Workers(), len(sources)); w > 0; w-- {
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

// SimultaneousCost simulates len(sources) Thorup queries sharing one
// Component Hierarchy, co-scheduled on the given machine: each query's
// (work, span) is measured on its own simulation runtime and the combined
// makespan follows the machine's co-schedule bound. It returns the makespan
// in cycles together with the per-query distances.
//
// This is the model behind the Figure 5 reproduction: k shared-CH Thorup
// queries fill the machine with work from independent traversals, while the
// delta-stepping baseline must run its k queries back to back.
func SimultaneousCost(h *ch.Hierarchy, machine mta.Machine, sources []int32, opts ...Option) (int64, [][]int64) {
	costs := make([]mta.Cost, len(sources))
	out := make([][]int64, len(sources))
	for i, src := range sources {
		rt := par.NewSim(machine)
		s := NewSolver(h, rt, opts...)
		out[i] = s.SSSP(src)
		costs[i] = rt.SimCost()
	}
	return machine.CoSchedule(costs), out
}

// TuneThresholds determines selective-parallelization thresholds for a
// machine by simulating the toVisit computation, as the paper did ("we
// determined the thresholds experimentally by simulating the tovisit
// computation", §3.3): for growing loop lengths it evaluates the modelled
// makespan of the scan loop in each regime and returns the crossover points.
func TuneThresholds(machine mta.Machine) par.Thresholds {
	const iterCost = 3 // base iteration + the two charged references of a scan
	span := func(mode mta.LoopMode, n int) int64 {
		c := machine.ParallelLoop(mode, int64(n)*iterCost, int64(n)*iterCost, iterCost)
		return c.Span
	}
	crossover := func(a, b mta.LoopMode) int {
		// Smallest n (power-of-two probe, then linear refinement) where mode
		// b beats mode a.
		n := 1
		for n < 1<<22 && span(b, n) >= span(a, n) {
			n *= 2
		}
		if n == 1 || n >= 1<<22 {
			return n
		}
		lo := n / 2
		for lo < n && span(b, lo) >= span(a, lo) {
			lo++
		}
		return lo
	}
	th := par.Thresholds{
		Single: crossover(mta.Serial, mta.SinglePar),
		Multi:  crossover(mta.SinglePar, mta.MultiPar),
	}
	if th.Multi < th.Single {
		th.Multi = th.Single
	}
	return th
}
