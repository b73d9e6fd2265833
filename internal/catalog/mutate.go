package catalog

import (
	"fmt"
	"time"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/mutate"
)

// MutateResult reports an accepted mutation: the generation it produced is
// already serving when Mutate returns.
type MutateResult struct {
	// Gen is the generation number the mutation produced.
	Gen uint64
	// Touched is the distinct mutated-endpoint count.
	Touched int
	// Aliased reports a weight-only batch: the new generation's CSR shares
	// offset and target arrays with its parent, or holds its own copy of
	// them when the parent served them from a mapped snapshot.
	Aliased bool
}

// Mutate applies a validated mutation batch to a ready graph and installs the
// result as a new generation, synchronously and whatever the batch's width: a
// copy-on-write CSR overlay, the graph's result cache advanced to it. A
// write derives nothing: the child has no hierarchy and no s-t index, whatever
// its parent held or built, and its first query that needs one builds it
// (solver.Instance).
//
// Errors: validation failures wrap mutate.ErrInvalid (map to 400); unknown
// names wrap ErrUnknownGraph (404); a name with a load, reload or mutation in
// flight is ErrBusy, and one not ready a NotReadyError (both 409). Exactly one
// of those calls is in flight per name at a time — the pending flag
// serializes mutations against loads, reloads, unloads, and each other.
func (c *Catalog) Mutate(name string, b *mutate.Batch) (MutateResult, error) {
	var res MutateResult
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return res, errClosed
	}
	e, ok := c.entryLocked(name)
	if !ok {
		c.mu.Unlock()
		return res, fmt.Errorf("catalog: %w: %q", ErrUnknownGraph, name)
	}
	if e.pending {
		err := e.busy()
		c.mu.Unlock()
		return res, err
	}
	if e.state != StateReady || e.gen == nil {
		err := &NotReadyError{Name: name, State: e.state, Err: e.err}
		c.mu.Unlock()
		return res, err
	}
	parent := e.gen
	parent.acquire()       // pin the parent arrays across the off-lock compute
	e.pending = true       // serialize: no reload/unload/mutation until we finish
	res.Gen = e.genSeq + 1 // what this batch will produce; pending keeps genSeq ours
	c.mu.Unlock()

	start := time.Now()
	g, aliased, err := apply(parent.G, parent.Mapped(), b)
	if err != nil {
		c.mu.Lock()
		e.pending = false
		c.mu.Unlock()
		parent.release()
		return MutateResult{}, err
	}
	c.counters.C(cMutations).Inc() // accepted batches only; a rejected delta changes nothing
	res.Touched, res.Aliased = len(b.Touched()), aliased

	// No warming — the parent's arrays are hot, and every answer the cache
	// holds comes along, exact or owing what the batch changed
	// (engine.Gen.Inherit), in place at the swap. A reload starts with an
	// empty result cache instead.
	gen := c.newGeneration(name, res.Gen, parent, g, nil, nil)
	inh := gen.Engine.Inherit(mutate.Changes(parent.G, g, b))
	gen.ParentGen = parent.Gen
	gen.DeltaSize = len(b.Ops)

	c.mu.Lock()
	e.deltas = append(e.deltas, b)
	e.logBytes += int64(len(b.Ops)) * opBytes
	exact, pending, unread := gen.Engine.Swap(inh)
	old := c.installLocked(e, gen)
	c.mu.Unlock()
	old.retire() // old == parent: our pin keeps it readable until released
	parent.release()
	c.logf("catalog: %s gen %d mutated from gen %d (%d ops, %d touched, aliased=%v, answers inherited %d exact + %d pending, %d unread, %s)",
		name, res.Gen, parent.Gen, len(b.Ops), res.Touched, aliased, exact, pending, unread, time.Since(start).Round(time.Microsecond))
	return res, nil
}

// opBytes is what one op of the replay log holds in memory.
const opBytes = int64(unsafe.Sizeof(mutate.Op{}))

// apply is the write's storage rule, shared by Mutate and a reload's replay:
// b's overlay on g, with its own copy of the offsets and targets it would
// read out of a mapping (mapped: g is a mapping's), the O(n+m) a structural
// batch pays anyway. So no generation keeps another's mapping; a weight-only
// child of a heap graph shares its arrays through the collector.
func apply(g *graph.Graph, mapped bool, b *mutate.Batch) (*graph.Graph, bool, error) {
	g2, aliased, err := mutate.Apply(g, b)
	if aliased && mapped {
		g2 = g2.OwnTopology()
	}
	return g2, aliased, err
}
