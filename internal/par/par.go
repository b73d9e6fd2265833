package par

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/mta"
)

// Thresholds controls selective parallelization (paper §3.3): loops shorter
// than Single run serially, loops shorter than Multi run single-processor
// parallel, and longer loops run on all processors. The paper determined
// these experimentally by simulating the toVisit computation; see
// core.TuneThresholds for the equivalent tuner.
type Thresholds struct {
	Single int // minimum iterations for single-processor parallelism
	Multi  int // minimum iterations for all-processor parallelism
}

// DefaultThresholds are reasonable starting thresholds for the MTA2 cost
// model; the tuner usually lands near these values.
var DefaultThresholds = Thresholds{Single: 64, Multi: 2048}

type frame struct {
	work int64
	span int64
}

// Runtime executes and accounts parallel loops. A Runtime is not safe for
// concurrent use in sim mode (sim execution is serial by design); in exec
// mode all methods are safe for concurrent use.
type Runtime struct {
	machine mta.Machine

	// Sim-mode state.
	sim      bool
	frames   []frame
	hotStack []map[uint64]int64 // per-active-parallel-loop contention tallies
	hotTotal int64              // accumulated serialization cycles from hot spots

	// Exec-mode state.
	workers   int           // total concurrent workers (MultiPar cap)
	singleCap int           // worker cap for SinglePar loops
	tokens    chan struct{} // workers-1 spawn tokens
}

// NewExec returns a runtime that really runs loops on up to workers
// goroutines. workers < 1 panics.
func NewExec(workers int) *Runtime {
	if workers < 1 {
		panic(fmt.Sprintf("par: invalid worker count %d", workers))
	}
	singleCap := 4
	if singleCap > workers {
		singleCap = workers
	}
	rt := &Runtime{
		machine:   mta.MTA2(1),
		workers:   workers,
		singleCap: singleCap,
		tokens:    make(chan struct{}, workers-1),
	}
	for i := 0; i < workers-1; i++ {
		rt.tokens <- struct{}{}
	}
	return rt
}

// NewSim returns a runtime that executes serially and accounts costs against
// the given machine model.
func NewSim(m mta.Machine) *Runtime {
	return &Runtime{machine: m, sim: true, workers: 1, singleCap: 1, frames: make([]frame, 1, 8)}
}

// IsSim reports whether this runtime is in simulation mode.
func (rt *Runtime) IsSim() bool { return rt.sim }

// Machine returns the cost model (meaningful in sim mode).
func (rt *Runtime) Machine() mta.Machine { return rt.machine }

// Workers returns the exec-mode concurrency cap (1 in sim mode).
func (rt *Runtime) Workers() int { return rt.workers }

// ChargeContended records one synchronized memory operation on the word
// identified by key (a vertex or node id). On the MTA-2, synchronized
// operations on the same word serialize at the memory bank. In sim mode the
// op costs one unit like Charge(1), and the enclosing parallel loop
// additionally pays span equal to the longest per-word chain of its
// contended ops. No-op in exec mode.
//
// The model is sound only where the set of touched words does not depend on
// the interleaving (sim mode replays one serial interleaving): Thorup's minD
// propagation qualifies (the leaf-to-root path is fixed by the tree), so the
// paper's §3.2 locking claim can be quantified; read-steered kernels like the
// connected-components hooks do not, and are left unannotated.
func (rt *Runtime) ChargeContended(key uint64) {
	if !rt.sim {
		return
	}
	rt.Charge(1)
	if len(rt.hotStack) == 0 {
		return // not inside a parallel loop: no concurrent contenders
	}
	rt.hotStack[len(rt.hotStack)-1][key]++
}

// HotSerialization returns the total span (cycles) attributed to hot-spot
// serialization so far — the quantitative form of the paper's contention
// arguments (§3.1 for connected components, §3.2 for minD locking).
func (rt *Runtime) HotSerialization() int64 { return rt.hotTotal }

// Charge adds units of serial cost (work and span) to the current region.
// No-op in exec mode.
func (rt *Runtime) Charge(units int64) {
	if !rt.sim {
		return
	}
	f := &rt.frames[len(rt.frames)-1]
	f.work += units
	f.span += units
}

// SimCost returns the accumulated (work, span) of the root region. The
// simulated elapsed time of everything run so far is SimCost().Span.
func (rt *Runtime) SimCost() mta.Cost {
	f := rt.frames[0]
	return mta.Cost{Work: f.work, Span: f.span}
}

// ResetCost zeroes the accounting (sim mode); used between timed phases.
func (rt *Runtime) ResetCost() {
	if rt.sim {
		rt.frames = rt.frames[:1]
		rt.frames[0] = frame{}
		rt.hotTotal = 0
	}
}

// For runs body(i) for i in [0, n) with all-processor parallelism.
func (rt *Runtime) For(n int, body func(i int)) {
	rt.ForMode(mta.MultiPar, n, body)
}

// ForSerial runs body(i) for i in [0, n) serially (still accounted in sim
// mode).
func (rt *Runtime) ForSerial(n int, body func(i int)) {
	rt.ForMode(mta.Serial, n, body)
}

// ForAuto runs the loop with the parallelism regime selected from n by the
// thresholds — the paper's selective parallelization.
func (rt *Runtime) ForAuto(th Thresholds, n int, body func(i int)) {
	rt.ForMode(rt.ModeFor(th, n), n, body)
}

// ModeFor returns the loop mode ForAuto would select for n iterations.
func (rt *Runtime) ModeFor(th Thresholds, n int) mta.LoopMode {
	switch {
	case n >= th.Multi:
		return mta.MultiPar
	case n >= th.Single:
		return mta.SinglePar
	default:
		return mta.Serial
	}
}

// ForMode runs body(i) for i in [0, n) with the requested loop mode.
func (rt *Runtime) ForMode(mode mta.LoopMode, n int, body func(i int)) {
	if n <= 0 {
		return
	}
	if rt.sim {
		rt.simFor(mode, n, body)
		return
	}
	cap := 1
	switch mode {
	case mta.Serial:
		cap = 1
	case mta.SinglePar:
		cap = rt.singleCap
	case mta.MultiPar, mta.Futures:
		cap = rt.workers
	}
	rt.execFor(cap, n, body)
}

// ChargeLoop accounts for a loop that the host code runs as plain serial Go
// but that the modelled machine would execute as a parallel loop (bookkeeping
// sweeps such as counting passes, contraction, bucket distribution). Each of
// the n iterations costs perIter+1 units. No-op in exec mode.
func (rt *Runtime) ChargeLoop(mode mta.LoopMode, n int, perIter int64) {
	if !rt.sim || n <= 0 {
		return
	}
	iter := perIter + 1
	c := rt.machine.ParallelLoop(mode, int64(n)*iter, int64(n)*iter, iter)
	top := &rt.frames[len(rt.frames)-1]
	top.work += c.Work
	top.span += c.Span
}

func (rt *Runtime) simFor(mode mta.LoopMode, n int, body func(i int)) {
	parallel := mode != mta.Serial
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

func (rt *Runtime) execFor(workerCap, n int, body func(i int)) {
	if workerCap > n {
		workerCap = n
	}
	if workerCap <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	grain := n / (workerCap * 8)
	if grain < 1 {
		grain = 1
	}
	var next int64
	run := func() {
		for {
			lo := int(atomic.AddInt64(&next, int64(grain))) - grain
			if lo >= n {
				return
			}
			hi := lo + grain
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				body(i)
			}
		}
	}
	// A panic in a helper goroutine would kill the process; capture the
	// first one and re-raise it on the calling goroutine instead, matching
	// what a plain serial loop would do.
	var panicked atomic.Pointer[panicValue]
	var wg sync.WaitGroup
	// Spawn helpers only while tokens are available; otherwise the caller
	// simply does the work inline. This makes nested parallel loops safe.
	for spawned := 1; spawned < workerCap; spawned++ {
		select {
		case <-rt.tokens:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { rt.tokens <- struct{}{} }()
				defer func() {
					if r := recover(); r != nil {
						panicked.CompareAndSwap(nil, &panicValue{v: r})
						// Drain the remaining range so other workers and the
						// caller finish promptly.
						atomic.StoreInt64(&next, int64(n))
					}
				}()
				run()
			}()
		default:
			spawned = workerCap // no tokens left; stop trying
		}
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, &panicValue{v: r})
				atomic.StoreInt64(&next, int64(n))
			}
		}()
		run()
	}()
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p.v)
	}
}

type panicValue struct{ v any }

// CASMin atomically lowers *addr to v if v is smaller. It reports whether the
// stored value was lowered. This is the relaxation primitive: on the MTA-2 it
// would be a readfe/writeef pair, here it is a CAS loop.
func CASMin(addr *int64, v int64) bool {
	for {
		cur := atomic.LoadInt64(addr)
		if v >= cur {
			return false
		}
		if atomic.CompareAndSwapInt64(addr, cur, v) {
			return true
		}
	}
}
