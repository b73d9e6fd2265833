package par

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// LoopMode is the degree of parallelism requested for a loop. The MTA-2
// programming environment exposed exactly these three choices (paper §3.3,
// §5.4): serial, parallel on a single processor, or parallel on all
// processors.
type LoopMode int

const (
	// Serial runs the loop on the issuing stream.
	Serial LoopMode = iota
	// SinglePar forks the loop across the streams of one processor.
	SinglePar
	// MultiPar forks the loop across all processors.
	MultiPar
	// Futures spawns one lightweight thread per iteration (the MTA "future"
	// mechanism): the whole machine is available and the per-spawn cost is
	// tiny compared to a processor-team loop fork. Thorup's recursive child
	// visits run this way.
	Futures
)

func (m LoopMode) String() string {
	switch m {
	case Serial:
		return "serial"
	case SinglePar:
		return "single-proc"
	case MultiPar:
		return "multi-proc"
	case Futures:
		return "futures"
	default:
		return fmt.Sprintf("LoopMode(%d)", int(m))
	}
}

// Thresholds controls selective parallelization (paper §3.3): loops shorter
// than Single run serially, loops shorter than Multi run single-processor
// parallel, and longer loops run on all processors. The paper determined
// these experimentally by simulating the toVisit computation; see
// harness.TuneThresholds for the equivalent tuner.
type Thresholds struct {
	Single int // minimum iterations for single-processor parallelism
	Multi  int // minimum iterations for all-processor parallelism
}

// DefaultThresholds are reasonable starting thresholds for the MTA2 cost
// model; the tuner usually lands near these values.
var DefaultThresholds = Thresholds{Single: 64, Multi: 2048}

// Mode returns the loop mode selective parallelization picks for n
// iterations.
func (th Thresholds) Mode(n int) LoopMode {
	switch {
	case n >= th.Multi:
		return MultiPar
	case n >= th.Single:
		return SinglePar
	default:
		return Serial
	}
}

// Runtime is what a kernel is written against: loops with a requested mode,
// and the cost units a simulated machine charges for them. Exec runs the loops
// on goroutines and charges nothing; mta.Sim runs them serially and charges
// everything.
type Runtime interface {
	For(n int, body func(i int))                    // all-processor loop over [0, n)
	ForMode(mode LoopMode, n int, body func(i int)) // loop in the requested mode
	ForAuto(th Thresholds, n int, body func(i int)) // loop in the mode th picks from n
	// Charge adds units of serial cost to the current loop iteration.
	Charge(units int64)
	// ChargeLoop charges a loop that the host runs as plain serial Go (a
	// counting pass, a contraction) as n iterations of perIter+1 units in mode.
	ChargeLoop(mode LoopMode, n int, perIter int64)
	// ChargeContended charges a synchronized operation on the word named by
	// key; see mta.Sim.ChargeContended.
	ChargeContended(key uint64)
}

// Exec runs loops on goroutines, bounded by a token bucket so that nested
// parallel loops degrade gracefully to inline execution instead of
// deadlocking or oversubscribing: however many goroutines call into one Exec,
// at most workers-1 helpers run beside them. All methods are safe for
// concurrent use.
type Exec struct {
	workers int           // total concurrent workers of one loop
	tokens  chan struct{} // workers-1 spawn tokens
}

// NewExec returns a runtime that really runs loops on up to workers
// goroutines. workers < 1 panics.
func NewExec(workers int) *Exec {
	if workers < 1 {
		panic(fmt.Sprintf("par: invalid worker count %d", workers))
	}
	rt := &Exec{workers: workers, tokens: make(chan struct{}, workers-1)}
	for i := 0; i < workers-1; i++ {
		rt.tokens <- struct{}{}
	}
	return rt
}

// Workers returns the concurrency cap of one loop.
func (rt *Exec) Workers() int { return rt.workers }

// For runs body(i) for i in [0, n) on up to Workers goroutines.
func (rt *Exec) For(n int, body func(i int)) { rt.execFor(rt.workers, n, body) }

// ForMode runs a Serial loop in order on the calling goroutine and any other
// mode like For.
func (rt *Exec) ForMode(mode LoopMode, n int, body func(i int)) {
	workers := rt.workers
	if mode == Serial {
		workers = 1
	}
	rt.execFor(workers, n, body)
}

// ForAuto runs the loop in the mode th picks from n.
func (rt *Exec) ForAuto(th Thresholds, n int, body func(i int)) { rt.ForMode(th.Mode(n), n, body) }

// Charge, ChargeLoop and ChargeContended are no-ops: a goroutine runner has
// no cost model.
func (*Exec) Charge(int64)                    {}
func (*Exec) ChargeLoop(LoopMode, int, int64) {}
func (*Exec) ChargeContended(uint64)          {}

func (rt *Exec) execFor(workerCap, n int, body func(i int)) {
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
