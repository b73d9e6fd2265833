package mta

import (
	"fmt"

	"repro/internal/par"
)

// Machine holds the cost parameters of a simulated MTA-2 configuration. All
// costs are in clock cycles; one unit of charged work is one cycle (one
// memory reference, since the MTA-2 sustains one reference per processor per
// cycle).
type Machine struct {
	// Procs is the number of processors (the paper's machine had 40).
	Procs int
	// StreamsPerProc is the number of hardware streams each processor can
	// usefully saturate. The MTA-2 had 128 contexts; ~100 are typically
	// usable for work.
	StreamsPerProc int
	// ClockMHz converts cycles to wall-clock seconds for paper-style tables.
	ClockMHz float64
	// ForkMulti is the cost of forking a loop across all processors: the
	// runtime must create thread teams on every processor and divide the
	// iteration space (paper §3.3: "the runtime system must fork threads and
	// divide the work across processors").
	ForkMulti int64
	// ForkSingle is the (much smaller) cost of forking a loop across the
	// streams of a single processor.
	ForkSingle int64
	// ForkFutures is the cost of spawning a batch of lightweight threads
	// (the MTA future mechanism); nearly free next to a team fork.
	ForkFutures int64
	// SingleProcAnomaly emulates the MTA-2 runtime artifact the paper
	// reports in §5.3: on single-processor runs, "loops with a large amount
	// of work only receive a single thread of execution in some cases
	// because the remainder of the threads are occupied visiting other
	// components", which starves team loops and makes the measured 1->2
	// processor step look 3-7x — the source of the paper's super-linear
	// relative speedups. When set (and Procs == 1), team loops get only a
	// fraction of the streams. Off by default; this repository's headline
	// speedups do not use it.
	SingleProcAnomaly bool
}

// MTA2 returns the cost model for a p-processor MTA-2. The fork costs are
// calibrated so that the relative benefit of selective parallelization
// (Table 6) and the scaling knees (Figure 4) match the paper's shapes.
func MTA2(p int) Machine {
	if p < 1 {
		panic(fmt.Sprintf("mta: invalid processor count %d", p))
	}
	return Machine{
		Procs:          p,
		StreamsPerProc: 100,
		ClockMHz:       220,
		// Team forks pay a per-processor setup: cheap on one processor,
		// expensive across the full machine (p=40 gives 500 cycles).
		ForkMulti:   100 + int64(p)*10,
		ForkSingle:  60,
		ForkFutures: 15,
	}
}

// Lanes returns how many iterations can proceed concurrently in the given
// loop mode.
func (m Machine) Lanes(mode par.LoopMode) int64 {
	switch mode {
	case par.Serial:
		return 1
	case par.SinglePar:
		return int64(m.StreamsPerProc)
	case par.MultiPar, par.Futures:
		lanes := int64(m.Procs) * int64(m.StreamsPerProc)
		if m.SingleProcAnomaly && m.Procs == 1 {
			lanes /= 8 // starved team loops (paper §5.3)
			if lanes < 1 {
				lanes = 1
			}
		}
		return lanes
	default:
		panic("mta: unknown loop mode")
	}
}

// ForkCost returns the loop setup cost for the given mode.
func (m Machine) ForkCost(mode par.LoopMode) int64 {
	switch mode {
	case par.Serial:
		return 0
	case par.SinglePar:
		return m.ForkSingle
	case par.MultiPar:
		return m.ForkMulti
	case par.Futures:
		return m.ForkFutures
	default:
		panic("mta: unknown loop mode")
	}
}

// Seconds converts a cycle count to wall-clock seconds on this machine.
func (m Machine) Seconds(cycles int64) float64 {
	return float64(cycles) / (m.ClockMHz * 1e6)
}

// Cost is a (work, span) pair in cycles. Work is the total number of cycles
// consumed across all streams; span is the length of the critical path. On a
// machine with L lanes a computation with cost c completes in roughly
// c.Work/L + c.Span cycles (Brent's bound).
type Cost struct {
	Work int64
	Span int64
}

// Add accumulates serial composition: work and span both add.
func (c *Cost) Add(d Cost) {
	c.Work += d.Work
	c.Span += d.Span
}

// Makespan estimates the completion time of this cost on a machine with the
// given number of lanes via Brent's bound.
func (c Cost) Makespan(lanes int64) int64 {
	if lanes < 1 {
		lanes = 1
	}
	return c.Work/lanes + c.Span
}

// ParallelLoop folds the per-iteration costs of a loop into a single cost
// charged to the enclosing region.
//
// In Serial mode the iterations run one after another, each free to use the
// whole machine internally, so the loop's span is the sum of the iteration
// spans. In a parallel mode the iterations run concurrently: the fork
// overhead is paid on both axes and the span follows the greedy-schedule
// (Brent) bound fork + sumWork/lanes + maxSpan.
func (m Machine) ParallelLoop(mode par.LoopMode, sumWork, sumSpan, maxSpan int64) Cost {
	if mode == par.Serial {
		return Cost{Work: sumWork, Span: sumSpan}
	}
	fork := m.ForkCost(mode)
	lanes := m.Lanes(mode)
	span := fork + sumWork/lanes + maxSpan
	return Cost{Work: fork + sumWork, Span: span}
}

// MTA2Anomalous is MTA2 with the paper's single-processor starvation
// artifact enabled, for reproducing the paper's super-linear relative
// speedup numbers (see SingleProcAnomaly).
func MTA2Anomalous(p int) Machine {
	m := MTA2(p)
	m.SingleProcAnomaly = true
	return m
}

// CoSchedule estimates the makespan of k independent jobs running
// concurrently on the whole machine (Figure 5's simultaneous SSSP runs): the
// machine retires at most Lanes(par.MultiPar) cycles of work per cycle, and no
// job finishes before its own span.
func (m Machine) CoSchedule(jobs []Cost) int64 {
	var totalWork, maxSpan int64
	for _, j := range jobs {
		totalWork += j.Work
		if j.Span > maxSpan {
			maxSpan = j.Span
		}
	}
	t := totalWork / m.Lanes(par.MultiPar)
	if maxSpan > t {
		return maxSpan
	}
	return t
}
