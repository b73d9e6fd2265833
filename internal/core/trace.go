package core

import (
	"fmt"
	"sync/atomic"
)

// Trace counts the structural events of one Thorup query. The paper's §3.2
// justifies lock-based minD maintenance with the observation that "minD
// values are not propagated very far up the CH in practice"; PropagationHops
// quantifies exactly that, and the other counters expose how much of the
// traversal is gathering versus settling.
type Trace struct {
	// Settled is the number of vertices settled (= reachable vertices).
	Settled int64
	// Relaxations counts successful distance decreases.
	Relaxations int64
	// PropagationHops counts CH-node updates performed by upward minD
	// propagation; PropagationHops/Relaxations is the paper's "how far up"
	// metric.
	PropagationHops int64
	// Gathers counts toVisit-set constructions.
	Gathers int64
	// GatherScanned counts children examined across all gathers.
	GatherScanned int64
	// GatherTaken counts children that entered a toVisit set.
	GatherTaken int64
	// BucketAdvances counts minD refreshes (bucket exhaustion events).
	BucketAdvances int64
	// MaxTovisit is the largest toVisit set seen.
	MaxTovisit int64
}

// HopsPerRelaxation returns the mean propagation distance of a relaxation up
// the hierarchy (0 when no relaxation occurred).
func (t Trace) HopsPerRelaxation() float64 {
	if t.Relaxations == 0 {
		return 0
	}
	return float64(t.PropagationHops) / float64(t.Relaxations)
}

// AttrMap shapes the counters as named integers — span attributes for a
// request-tracing layer: the solver-phase breakdown (settled vertices,
// relaxations, upward minD propagation, toVisit gathers, bucket expansions)
// of one traversal, keyed like the /metrics "thorup" section.
func (t Trace) AttrMap() map[string]int64 {
	return map[string]int64{
		"settled":          t.Settled,
		"relaxations":      t.Relaxations,
		"propagation_hops": t.PropagationHops,
		"gathers":          t.Gathers,
		"gather_scanned":   t.GatherScanned,
		"gather_taken":     t.GatherTaken,
		"bucket_advances":  t.BucketAdvances,
		"max_tovisit":      t.MaxTovisit,
	}
}

func (t Trace) String() string {
	return fmt.Sprintf("trace{settled=%d relax=%d hops/relax=%.2f gathers=%d advances=%d maxTovisit=%d}",
		t.Settled, t.Relaxations, t.HopsPerRelaxation(), t.Gathers, t.BucketAdvances, t.MaxTovisit)
}

// Snapshot returns a copy of the counters taken with atomic loads. Each
// field is individually coherent; a snapshot of a finished Run is exact.
func (t *Trace) Snapshot() Trace {
	return Trace{
		Settled:         atomic.LoadInt64(&t.Settled),
		Relaxations:     atomic.LoadInt64(&t.Relaxations),
		PropagationHops: atomic.LoadInt64(&t.PropagationHops),
		Gathers:         atomic.LoadInt64(&t.Gathers),
		GatherScanned:   atomic.LoadInt64(&t.GatherScanned),
		GatherTaken:     atomic.LoadInt64(&t.GatherTaken),
		BucketAdvances:  atomic.LoadInt64(&t.BucketAdvances),
		MaxTovisit:      atomic.LoadInt64(&t.MaxTovisit),
	}
}

// Merge folds a snapshot into t atomically: counters add, MaxTovisit takes
// the maximum. It lets a long-running server accumulate per-query traces
// into one aggregate that many goroutines update concurrently.
func (t *Trace) Merge(s Trace) {
	atomic.AddInt64(&t.Settled, s.Settled)
	atomic.AddInt64(&t.Relaxations, s.Relaxations)
	atomic.AddInt64(&t.PropagationHops, s.PropagationHops)
	atomic.AddInt64(&t.Gathers, s.Gathers)
	atomic.AddInt64(&t.GatherScanned, s.GatherScanned)
	atomic.AddInt64(&t.GatherTaken, s.GatherTaken)
	atomic.AddInt64(&t.BucketAdvances, s.BucketAdvances)
	atomicMax(&t.MaxTovisit, s.MaxTovisit)
}

// add merges event counts atomically (queries may run on many goroutines).
func (t *Trace) addSettled() { atomic.AddInt64(&t.Settled, 1) }

func (t *Trace) addRelax(hops int64) {
	atomic.AddInt64(&t.Relaxations, 1)
	atomic.AddInt64(&t.PropagationHops, hops)
}

func (t *Trace) addGather(scanned, taken int) {
	atomic.AddInt64(&t.Gathers, 1)
	atomic.AddInt64(&t.GatherScanned, int64(scanned))
	atomic.AddInt64(&t.GatherTaken, int64(taken))
	atomicMax(&t.MaxTovisit, int64(taken))
}

func (t *Trace) addAdvance() { atomic.AddInt64(&t.BucketAdvances, 1) }

func atomicMax(addr *int64, v int64) {
	for {
		cur := atomic.LoadInt64(addr)
		if v <= cur || atomic.CompareAndSwapInt64(addr, cur, v) {
			return
		}
	}
}
