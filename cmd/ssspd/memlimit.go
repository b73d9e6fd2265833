package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
)

// memFloor is the least unaccounted heap the rule leaves room for: the heap
// goal it aims at is never below the accounted bytes plus twice it. It is the
// runtime's own minimum heap goal at GOGC=100.
const memFloor = 4 << 20

// heapGoal is the heap goal the rule aims at for a live heap of live bytes, of
// which accounted are the catalog's: graphs, hierarchies, s-t indexes and
// result caches. Those are long-lived and bounded by budgets, so they get no
// GOGC doubling; the rest — pooled and in-flight solver states, request
// garbage — keeps GOGC=100's, and at least memFloor of it. An accounted figure
// that is too small only raises the goal.
func heapGoal(live, accounted int64) int64 {
	return accounted + 2*max(live-accounted, memFloor)
}

// gcPercent is the GOGC percent that paces a live heap of live bytes at
// heapGoal(live, accounted): the goal's headroom over live as a percent of
// live, rounded up, so at least 1, and at most 100, so the rule never paces
// looser than plain GOGC=100.
func gcPercent(live, accounted int64) int {
	if live <= 0 {
		return 100
	}
	p := (100*(heapGoal(live, accounted)-live) + live - 1) / live
	return int(min(p, 100))
}

// paceHeap sets the GC percent after every GC cycle from that cycle's live
// heap and accounted(), through set (debug.SetGCPercent in the daemon; it must
// not block), unless the environment sets GOGC or GOMEMLIMIT: those keep their
// standard meaning. It returns the hook's stop, or nil when none was
// installed. Only main installs it: library tests run many catalogs in one
// process.
func paceHeap(accounted func() int64, set func(int) int) (stop func()) {
	if os.Getenv("GOGC") != "" || os.Getenv("GOMEMLIMIT") != "" {
		return nil
	}
	p := &pacer{accounted: accounted, set: set}
	p.arm()
	return func() {
		p.mu.Lock()
		p.accounted, p.set = nil, nil // the sentinel left armed holds nothing of them
		p.mu.Unlock()
	}
}

// pacer is the hook: a finalizer on a sentinel object, run on the runtime's
// finalizer goroutine once a cycle has found the sentinel dead, which sets the
// percent and arms a fresh sentinel for the next cycle.
type pacer struct {
	mu        sync.Mutex   // orders a run against stop: none sets the percent after stop returns
	accounted func() int64 // nil once stopped
	set       func(int) int
}

// gcSentinel is larger than 16 bytes, so the tiny allocator does not batch it
// with other objects whose lifetimes would delay its finalizer.
type gcSentinel [32]byte

func (p *pacer) arm() {
	runtime.SetFinalizer(new(gcSentinel), func(*gcSentinel) { p.update() })
}

func (p *pacer) update() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.accounted != nil {
		p.arm() // first: a cycle that begins once set returns finds one dead
		p.set(gcPercent(liveHeap(), p.accounted()))
	}
}

// liveHeap is the heap the last GC cycle marked live.
func liveHeap() int64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}
