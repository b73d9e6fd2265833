package engine

import (
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/pq"
	"repro/internal/trace"
)

// Inherit hands e, the engine of a generation made from parent's by one
// mutation batch and not serving yet, the answers parent was asked for while it
// served (DESIGN.md §5, decision 17). changes is what the batch did per edge
// slot. Each such vector is a shortest-path vector of the parent graph, and one
// of three things on the child's:
//
//   - dropped, if a slot that was removed or got heavier was tight in it
//     (|d[u] − d[v]| = the old weight): a shortest path may have used it. An
//     untight slot is on none, so losing it changes no distance from that
//     source set;
//   - exact, if beyond that no slot that is new or got lighter improves either
//     endpoint: the entry is re-keyed into e sharing the parent's vector;
//   - stale otherwise: the vector is an upper bound everywhere, and the first
//     hit relaxes outward from those slots (resolve) before answering.
//
// The walk is O(entries × changes) comparisons and copies nothing. An entry
// holds the parent's vector, never its Result, engine or generation. It returns
// how many entries went each way.
func (e *Engine) Inherit(parent *Engine, changes []mutate.Change) (exact, stale, dropped int) {
	if e.cache.maxEntries == 0 {
		return 0, 0, 0
	}
entries:
	for _, old := range parent.cache.askedFor() { // least recent first: the order is kept
		old.resolve(nil) // asked for, so whoever asked is resolving it or has
		var seeds []mutate.Change
		for _, c := range changes {
			du, dv := old.At(int(c.U)), old.At(int(c.V))
			switch {
			case c.After > c.Before && (du-dv == c.Before || dv-du == c.Before):
				dropped++
				continue entries
			case du+c.After < dv || dv+c.After < du: // only a lighter slot can
				seeds = append(seeds, c)
			}
		}
		res := &Result{Solver: old.Solver, vec: old.vec,
			e: e, key: e.keyPrefix + old.key[len(parent.keyPrefix):]}
		if seeds == nil {
			res.Reached, res.Eccentricity = old.Reached, old.Eccentricity
			exact++
		} else {
			res.stale = &staleness{seeds: seeds}
			stale++
		}
		e.cache.insert(res.key, res, false)
	}
	e.counters.C(cInheritedExact).Add(int64(exact))
	e.counters.C(cInheritedStale).Add(int64(stale))
	e.counters.C(cInheritDropped).Add(int64(dropped))
	return exact, stale, dropped
}

// resolve makes a stale inherited entry exact, once: unpack the parent's
// vector, relax outward from the seed slots over this generation's graph until
// nothing improves, and detach the result as a solve does — recounted, at the
// width its new eccentricity needs. Every path to a Result's vector runs
// through here first. lk is the caller's "cache_lookup" span; the resume is
// recorded under it.
func (r *Result) resolve(lk *trace.Span) {
	if r.stale == nil {
		return
	}
	r.stale.once.Do(func() {
		sp := lk.StartChild("resume")
		seeds := r.stale.seeds
		r.stale.seeds = nil
		shared := r.vectorBytes()
		d := r.vec.unpack()
		resettled := relax(r.e.in.G, d, seeds)
		r.detach(d)
		r.e.cache.grow(r, r.vectorBytes()-shared) // 0 unless the width changed
		r.e.counters.C(cResumed).Inc()
		r.e.counters.C(cResettled).Add(int64(resettled))
		sp.SetAttr("seeds", len(seeds))
		sp.SetAttr("resettled", resettled)
		sp.End()
	})
}

// relax is the label-correcting loop: d, feasible on every arc of g but the
// seed slots, is lowered from them outward, nearest first, until it is
// feasible everywhere. It returns how many vertices it settled again.
func relax(g *graph.Graph, d []int64, seeds []mutate.Change) (resettled int) {
	var q pq.Radix
	lower := func(v int32, dv int64) {
		if dv < d[v] {
			d[v] = dv
			q.Push(pq.Item{V: v, D: dv})
		}
	}
	for _, c := range seeds {
		lower(c.V, d[c.U]+c.After)
		lower(c.U, d[c.V]+c.After)
	}
	for q.Top() != graph.Inf {
		l := q.Pop()
		if l.D > d[l.V] {
			continue // lowered again since
		}
		resettled++
		ts, ws := g.Neighbors(l.V)
		for i, t := range ts {
			lower(t, l.D+int64(ws[i]))
		}
	}
	return resettled
}
