package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
)

// memFloor is the least unaccounted heap the rule leaves room for: the heap
// goal it aims at is never below the accounted bytes plus twice it.
const memFloor = 16 << 20

// heapGoal is the heap goal the rule aims at for a live heap of live bytes, of
// which accounted are the catalog's: graphs, hierarchies, s-t indexes and
// result caches. Those are long-lived and bounded by budgets, so they get no
// GOGC doubling; the rest — pooled and in-flight solver states, request
// garbage — keeps GOGC=100's, and at least memFloor of it. The goal is never
// below live + memFloor, so in-flight states cannot drive the collector into
// a spiral, and an accounted figure that is too small only raises it.
func heapGoal(live, accounted int64) int64 {
	return accounted + 2*max(live-accounted, memFloor)
}

// memoryLimit is the soft memory limit under which the runtime paces the heap
// at heapGoal(live, accounted). The limit caps all the runtime's memory: the
// pacer takes overhead (stacks, GC metadata, span fragmentation) off it, then
// 3% of the rest, at least 1 MiB (memoryLimitHeapGoal in the runtime's
// mgcpacer.go). The limit adds both back; goal/32 covers 3% of goal + goal/32.
func memoryLimit(live, accounted, overhead int64) int64 {
	goal := heapGoal(live, accounted)
	return overhead + goal + max(goal/32, 1<<20)
}

// limitMemory sets the runtime's soft memory limit after every GC cycle from
// that cycle's live heap and accounted(), through set (debug.SetMemoryLimit in
// the daemon; it must not block), unless the environment sets GOGC or
// GOMEMLIMIT: those keep their standard meaning. It returns the hook's stop,
// or nil when none was installed. Only main installs it: library tests run
// many catalogs in one process.
func limitMemory(accounted func() int64, set func(int64) int64) (stop func()) {
	if os.Getenv("GOGC") != "" || os.Getenv("GOMEMLIMIT") != "" {
		return nil
	}
	l := &memLimiter{accounted: accounted, set: set}
	l.arm()
	return func() {
		l.mu.Lock()
		l.stopped = true
		l.mu.Unlock()
	}
}

// memLimiter is the hook: a finalizer on a sentinel object, run on the
// runtime's finalizer goroutine once a cycle has found the sentinel dead,
// which sets the limit and arms a fresh sentinel for the next cycle.
type memLimiter struct {
	accounted func() int64
	set       func(int64) int64

	mu      sync.Mutex // orders a run against stop: none sets the limit after stop returns
	stopped bool
}

// gcSentinel is larger than 16 bytes, so the tiny allocator does not batch it
// with other objects whose lifetimes would delay its finalizer.
type gcSentinel [32]byte

func (l *memLimiter) arm() {
	runtime.SetFinalizer(new(gcSentinel), func(*gcSentinel) { l.update() })
}

func (l *memLimiter) update() {
	live, overhead := memSample()
	limit := memoryLimit(live, l.accounted(), overhead)
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.stopped {
		l.arm() // first: a cycle that begins once set returns finds one dead
		l.set(limit)
	}
}

// memSample is the heap the last GC cycle marked live, and the runtime's
// overhead as its pacer reckons it against the memory limit: mapped memory not
// released to the OS, less heap objects and free heap pages.
func memSample() (live, overhead int64) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"}, {Name: "/memory/classes/heap/free:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	v := func(i int) int64 { return int64(s[i].Value.Uint64()) }
	return v(0), v(1) - v(2) - v(3) - v(4)
}
