package mta

import "repro/internal/par"

type frame struct {
	work int64
	span int64
}

// Sim is the simulated machine's par.Runtime: it executes every loop serially
// (and therefore deterministically) while it performs work/span accounting
// against a Machine. The simulated elapsed time of the computation is the
// span of the root region, SimCost().Span. A Sim is not safe for concurrent
// use; serial execution is its point.
type Sim struct {
	machine  Machine
	frames   []frame
	hotStack []map[uint64]int64 // per-active-parallel-loop contention tallies
	hotTotal int64              // accumulated serialization cycles from hot spots
}

// NewSim returns a runtime that executes serially and accounts costs against
// the given machine model.
func NewSim(m Machine) *Sim {
	return &Sim{machine: m, frames: make([]frame, 1, 8)}
}

// For runs body(i) for i in [0, n) serially, charged as an all-processor loop.
func (rt *Sim) For(n int, body func(i int)) { rt.ForMode(par.MultiPar, n, body) }

// ForAuto runs the loop charged in the mode th picks from n.
func (rt *Sim) ForAuto(th par.Thresholds, n int, body func(i int)) { rt.ForMode(th.Mode(n), n, body) }

// ForMode runs body(i) for i in [0, n) serially, in order, and charges the
// enclosing region what the machine would pay for the loop in the given mode:
// each iteration costs one unit plus whatever its body charges.
func (rt *Sim) ForMode(mode par.LoopMode, n int, body func(i int)) {
	if n <= 0 {
		return
	}
	parallel := mode != par.Serial
	if parallel {
		rt.hotStack = append(rt.hotStack, make(map[uint64]int64))
	}
	var sumW, sumS, maxS int64
	for i := 0; i < n; i++ {
		rt.frames = append(rt.frames, frame{})
		rt.Charge(1) // base per-iteration cost
		body(i)
		f := rt.frames[len(rt.frames)-1]
		rt.frames = rt.frames[:len(rt.frames)-1]
		sumW += f.work
		sumS += f.span
		if f.span > maxS {
			maxS = f.span
		}
	}
	var contended int64
	if parallel {
		tally := rt.hotStack[len(rt.hotStack)-1]
		rt.hotStack = rt.hotStack[:len(rt.hotStack)-1]
		for _, c := range tally {
			if c > contended {
				contended = c
			}
		}
		rt.hotTotal += contended
	}
	c := rt.machine.ParallelLoop(mode, sumW, sumS, maxS)
	top := &rt.frames[len(rt.frames)-1]
	top.work += c.Work
	top.span += c.Span + contended
}

// Charge adds units of serial cost (work and span) to the current region.
func (rt *Sim) Charge(units int64) {
	f := &rt.frames[len(rt.frames)-1]
	f.work += units
	f.span += units
}

// ChargeLoop charges a loop of n iterations of perIter+1 units each in mode.
func (rt *Sim) ChargeLoop(mode par.LoopMode, n int, perIter int64) {
	if n <= 0 {
		return
	}
	iter := perIter + 1
	c := rt.machine.ParallelLoop(mode, int64(n)*iter, int64(n)*iter, iter)
	top := &rt.frames[len(rt.frames)-1]
	top.work += c.Work
	top.span += c.Span
}

// ChargeContended records one synchronized memory operation on the word
// identified by key (a vertex or node id). On the MTA-2, synchronized
// operations on the same word serialize at the memory bank. The op costs one
// unit like Charge(1), and the enclosing parallel loop additionally pays span
// equal to the longest per-word chain of its contended ops.
//
// The model is sound only where the set of touched words does not depend on
// the interleaving (Sim replays one serial interleaving): Thorup's minD
// propagation qualifies (the leaf-to-root path is fixed by the tree), so the
// paper's §3.2 locking claim can be quantified; read-steered kernels like the
// connected-components hooks do not, and are left unannotated.
func (rt *Sim) ChargeContended(key uint64) {
	rt.Charge(1)
	if len(rt.hotStack) == 0 {
		return // not inside a parallel loop: no concurrent contenders
	}
	rt.hotStack[len(rt.hotStack)-1][key]++
}

// HotSerialization returns the total span (cycles) attributed to hot-spot
// serialization so far — the quantitative form of the paper's contention
// arguments (§3.1 for connected components, §3.2 for minD locking).
func (rt *Sim) HotSerialization() int64 { return rt.hotTotal }

// SimCost returns the accumulated (work, span) of the root region. The
// simulated elapsed time of everything run so far is SimCost().Span.
func (rt *Sim) SimCost() Cost {
	f := rt.frames[0]
	return Cost{Work: f.work, Span: f.span}
}

// ResetCost zeroes the accounting; used between timed phases.
func (rt *Sim) ResetCost() {
	rt.frames = rt.frames[:1]
	rt.frames[0] = frame{}
	rt.hotTotal = 0
}
