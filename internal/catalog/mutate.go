package catalog

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/mutate"
)

// MutateResult reports an accepted mutation. Gen is the generation the batch
// produced: already serving when Fallback is false (the incremental repair
// path installed it synchronously), or pre-assigned to a queued background
// rebuild when Fallback is true (poll /graphs or WaitReady for readiness).
type MutateResult struct {
	// Gen is the generation number the mutation produced (or will produce,
	// on the fallback path).
	Gen uint64
	// Fallback reports that the delta exceeded the incremental threshold and
	// a background full rebuild (source + delta replay) was queued instead.
	Fallback bool
	// Touched is the distinct mutated-endpoint count; Frac is it as a
	// fraction of the vertex set — the number the threshold judged.
	Touched int
	Frac    float64
	// Aliased reports that the new generation's CSR shares offset and target
	// arrays with its parent (weight-only batch); meaningful only on the
	// incremental path.
	Aliased bool
}

// Mutate applies a validated mutation batch to a ready graph and installs the
// result as a new generation. Small deltas (touched-vertex fraction within
// Config.MutateThreshold) take the incremental path — copy-on-write CSR
// overlay plus hierarchy repair — and swap in synchronously, typically
// milliseconds. Larger deltas fall back to a queued background full rebuild
// that replays the accepted-delta log on top of the source, exactly like a
// reload; the old generation keeps serving until the rebuild swaps in.
//
// Errors: validation failures wrap mutate.ErrInvalid (map to 400); unknown
// names wrap ErrUnknownGraph (404); a graph mid-build or not ready is a
// conflict (409/503). Exactly one mutation or build is in flight per name at
// a time — the pending flag serializes mutations against loads, reloads,
// unloads, and each other.
func (c *Catalog) Mutate(name string, b *mutate.Batch) (MutateResult, error) {
	var res MutateResult
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return res, errors.New("catalog: closed")
	}
	e, ok := c.entries[name]
	if !ok {
		c.mu.Unlock()
		return res, fmt.Errorf("catalog: %w: %q", ErrUnknownGraph, name)
	}
	if e.pending {
		c.mu.Unlock()
		return res, fmt.Errorf("catalog: graph %q has a build in progress; retry after it completes", name)
	}
	if e.state != StateReady || e.gen == nil {
		c.mu.Unlock()
		return res, &NotReadyError{Name: name, State: e.state, Err: e.err}
	}
	parent := e.gen
	parent.acquire() // pin the parent arrays across the off-lock compute
	e.pending = true // serialize: no reload/unload/mutation until we finish
	threshold := c.cfg.MutateThreshold
	c.mu.Unlock()

	start := time.Now()
	// parent.H waits for a hierarchy still being built: a repair needs it.
	mres, err := mutate.Mutate(parent.G, parent.H(), b, mutate.Options{Threshold: threshold})
	if err != nil {
		c.mu.Lock()
		e.pending = false
		c.mu.Unlock()
		parent.release()
		return res, err
	}
	c.counters.C(cMutations).Inc() // accepted batches only; a rejected delta changes nothing
	res.Touched, res.Frac = mres.Touched, mres.Frac

	if mres.Fallback {
		// Too large for incremental repair: log the delta and queue a full
		// rebuild, which replays the log on top of the source. The queued job
		// owns the pending flag from here.
		c.mu.Lock()
		e.deltas = append(e.deltas, b)
		e.genSeq++ // pre-assign the generation the rebuild will install
		res.Gen = e.genSeq
		res.Fallback = true
		c.counters.C(cMutateFallback).Inc()
		c.mu.Unlock()
		parent.release()
		c.enqueue(name)
		c.logf("catalog: %s mutation (%d ops, %d touched, frac %.3f) exceeds threshold; queued full rebuild as gen %d",
			name, len(b.Ops), res.Touched, res.Frac, res.Gen)
		return res, nil
	}

	// Incremental: build the generation and swap synchronously. No warming —
	// the parent's arrays are hot and the repair reused most of the
	// hierarchy; the first queries pay only a cold result cache.
	c.mu.Lock()
	e.genSeq++
	genNum := e.genSeq
	c.mu.Unlock()
	gen := c.newGeneration(name, genNum, mres.G, mres.H, nil)
	gen.ParentGen = parent.Gen
	gen.DeltaSize = len(b.Ops)
	// When the overlay shares offset/target arrays with a parent whose
	// storage chain reaches an mmap, hand our pin to the new generation; it
	// releases it on drain, so the mapping stays valid while any descendant
	// can still read it. Heap-backed parents need no pin — the overlay's
	// slices keep the shared arrays alive through the garbage collector.
	needPin := mres.Aliased && (parent.mapping != nil || parent.parent != nil)
	if needPin {
		gen.parent = parent
	}

	c.mu.Lock()
	e.deltas = append(e.deltas, b)
	old := c.installLocked(e, gen)
	c.counters.C(cMutateIncremental).Inc()
	c.mu.Unlock()
	old.retire() // old == parent: our pin keeps it readable until released
	if !needPin {
		parent.release() // the parent pin has no further use
	}
	c.logf("catalog: %s gen %d mutated from gen %d (%d ops, %d touched, reused %d/%d nodes, aliased=%v, %s)",
		name, genNum, parent.Gen, len(b.Ops), res.Touched, mres.Stats.ReusedNodes,
		mres.Stats.ReusedNodes+mres.Stats.NewNodes, mres.Aliased, time.Since(start).Round(time.Microsecond))
	res.Gen = genNum
	res.Aliased = mres.Aliased
	return res, nil
}
