package engine

import (
	"cmp"
	"slices"

	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/pq"
	"repro/internal/trace"
)

// Inherit works out what every answer the cache holds becomes on g, a
// generation made from the one the cache serves by one mutation batch and not
// serving yet, read or not (DESIGN.md §5, decision 17). changes is what the
// batch did per edge slot. Each entry is one of two things on g:
//
//   - exact, if it was exact on the parent and the batch touches nothing of
//     it: no slot that was removed or got heavier was tight in its vector
//     (|d[u] − d[v]| = the old weight), and no slot that is new or got
//     lighter improves either endpoint. It shares the parent's vector;
//   - pending otherwise: it keeps the vector of the last generation it was
//     exact on and one net change a slot since then (compose), and its first
//     hit repairs it (resolve).
//
// An entry that would owe more than n/owedShare slots (at least
// minRepairBudget) is dropped instead, and counted as a repair over budget:
// its list would cost more than its packed vector, and its repair, which may
// settle n/8 vertices, would seldom get through so many. The walk sorts
// changes once and is O(entries × changes) after that; it reads and copies no
// vector: the test of an exact entry reads two codes a change. It takes the
// cache lock only to list the entries, and changes no entry: g.Swap puts each
// answer in its entry's slot, and the parent keeps its hits until then. An
// entry holds a vector, never a Result or generation of the parent.
func (g *Gen) Inherit(changes []mutate.Change) *Inheritance {
	changes = bySlot(changes)
	limit := max(g.in.G.NumVertices()/owedShare, minRepairBudget)
	inh := &Inheritance{}
	inh.from, inh.heirs = g.cache.heirs()
	for i := range inh.heirs {
		h := &inh.heirs[i]
		next := &Result{Solver: h.old.Solver, g: g, key: h.old.key}
		if h.old.carry(next, changes, limit) {
			h.next = next
		} else {
			inh.over++ // the next query solves
		}
	}
	return inh
}

// Inheritance is what a write makes of the cached answers (Gen.Inherit),
// until Gen.Swap puts it in place.
type Inheritance struct {
	from  *Gen // the generation the answers were listed on
	heirs []heir
	over  int // entries dropped: they would owe too much
}

// carry makes next what r is on the generation changes (in slot order) lead
// to: r's vector, Reached and Eccentricity, and, unless r is exact and changes
// touch nothing of it, the net changes next owes. It reports false for an
// entry whose repair failed, or that would owe more than limit slots. r may be
// resolving on its own generation meanwhile: what it reads, it reads under
// r's lock.
func (r *Result) carry(next *Result, changes []mutate.Change, limit int) bool {
	var owed []mutate.Change
	if p := r.pending; p != nil {
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.failed {
			return false
		}
		if !p.done {
			owed = p.changes
		}
	}
	next.vec, next.Reached, next.Eccentricity = r.vec, r.Reached, r.Eccentricity
	if owed != nil || r.touchedBy(changes) {
		if len(changes)-len(owed) > limit { // at most len(owed) of them net out
			return false
		}
		if owed = compose(owed, changes); len(owed) > limit {
			return false
		}
		if len(owed) > 0 {
			next.pending = &pending{changes: owed}
		}
	}
	return true
}

// touchedBy reports whether changes may move a distance of r's exact vector:
// a removed or heavier slot was tight in it, or a new or lighter one improves
// an endpoint. An untight slot is on no shortest path, and a lighter one that
// improves neither endpoint shortens none.
func (r *Result) touchedBy(changes []mutate.Change) bool {
	for _, c := range changes {
		du, dv := r.vec.at(int(c.U)), r.vec.at(int(c.V))
		if c.After > c.Before && (du-dv == c.Before || dv-du == c.Before) || du+c.After < dv || dv+c.After < du {
			return true
		}
	}
	return false
}

// slotOf is the key of the undirected edge slot {u, v}; slot order is the
// order of these keys.
func slotOf(u, v int32) uint64 { return uint64(min(u, v))<<32 | uint64(max(u, v)) }

func changeSlot(c mutate.Change) uint64 { return slotOf(c.U, c.V) }

// bySlot is changes in slot order, one a slot. (mutate.Changes lists a slot
// once for each op that names it, every time with the batch's net Before and
// After.)
func bySlot(changes []mutate.Change) []mutate.Change {
	out := slices.Clone(changes)
	slices.SortFunc(out, func(a, b mutate.Change) int { return cmp.Compare(changeSlot(a), changeSlot(b)) })
	return slices.CompactFunc(out, func(a, b mutate.Change) bool { return changeSlot(a) == changeSlot(b) })
}

// compose is owed followed by later, both in slot order with one change a
// slot: one net change a slot, its first Before and its last After, in slot
// order. A slot back at its first weight owes nothing. It is one merge,
// O(len(owed) + len(later)), into a list allocated once at the capacity its
// size class holds, which is what the entry is charged (heldBytes).
func compose(owed, later []mutate.Change) []mutate.Change {
	out := slices.Grow([]mutate.Change(nil), len(owed)+len(later))
	for len(owed) > 0 && len(later) > 0 {
		switch a, b := changeSlot(owed[0]), changeSlot(later[0]); {
		case a < b:
			out, owed = append(out, owed[0]), owed[1:]
		case b < a:
			out, later = append(out, later[0]), later[1:]
		default:
			if c := owed[0]; c.Before != later[0].After {
				c.After = later[0].After
				out = append(out, c)
			}
			owed, later = owed[1:], later[1:]
		}
	}
	return append(append(out, owed...), later...)
}

// resolve makes a pending inherited entry exact, once, and reports whether it
// is: the first call repairs the vector under the entry's lock, within its
// generation's budget of settles. A repair that outgrows it fails the entry for
// good; the caller drops it and solves instead. Every path to a Result's
// vector runs through here first. lk is the caller's "cache_lookup" span; the
// resume is recorded under it.
func (r *Result) resolve(lk *trace.Span) bool {
	p := r.pending
	if p == nil {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return !p.failed
	}
	sp := lk.StartChild("resume")
	held := r.heldBytes()
	rp := repair{g: r.g.in.G, changes: p.changes, left: r.g.repairBudget}
	p.done, p.failed, p.changes = true, !rp.run(r), nil
	c := r.g.counters
	if p.failed {
		c.C(cRepairBudgetExceeded).Inc()
	} else {
		r.g.cache.grow(r, r.heldBytes()-held) // the list goes; the vector is a copy
		c.C(cResumed).Inc()
	}
	if rp.cut {
		c.C(cRepaired).Inc()
	}
	c.C(cResettled).Add(int64(rp.resettled))
	sp.SetAttr("seeds", len(rp.changes))
	sp.SetAttr("marked", rp.marked)
	sp.SetAttr("resettled", rp.resettled)
	sp.SetAttr("budget_exceeded", p.failed)
	sp.End()
	return !p.failed
}

// A repair may settle n/repairBudgetShare vertices over both its phases, and
// at least minRepairBudget, before the hit becomes a full solve. (Below 512
// vertices a solve costs no more than the floor's settles.) An entry may owe
// n/owedShare slots, and at least minRepairBudget: 6 bytes a vertex.
const (
	repairBudgetShare = 8
	owedShare         = 4
	minRepairBudget   = 64
)

// repair makes a vector exact on g from the graph H it is exact on, where H
// and g differ on the changed slots alone (Before: the lightest copy on H,
// After: on g). DESIGN.md §5 decision 17 has the argument.
type repair struct {
	g       *graph.Graph
	changes []mutate.Change // in slot order, one a slot
	left    int             // settles the budget has left

	cut               bool // a removed or heavier slot was tight
	marked, resettled int
}

// run repairs a copy of r's codes in place and, if the budget held, makes it
// r's vector with Reached and Eccentricity recounted from the codes (or
// detaches the plain distances, once a label outgrew the width).
func (rp *repair) run(r *Result) bool {
	l := labels{vec: r.vec}
	l.vec.words = append(make([]uint64, 0, cap(r.vec.words)), r.vec.words...)
	var q pq.Radix
	if !rp.mark(&l, &q) {
		return false
	}
	for _, c := range rp.changes {
		if c.After < c.Before { // a lighter or new slot: phase 2 starts there too
			rp.lower(&l, &q, c.V, l.at(c.U)+c.After)
			rp.lower(&l, &q, c.U, l.at(c.V)+c.After)
		}
	}
	if !rp.relax(&l, &q) {
		return false
	}
	if l.wide != nil {
		r.detach(l.wide)
	} else {
		r.vec = l.vec
		r.Reached, r.Eccentricity = l.vec.tally()
	}
	return true
}

// mark is phase 1, the decremental half of Ramalingam & Reps (1996): starting
// at the far endpoint of every removed or heavier slot that was tight, it
// visits vertices in increasing distance and marks each none of whose tight
// in-arcs on H' (H with only the heavier and removed slots applied) comes from
// an unmarked vertex, queueing the tight out-arcs of every vertex it marks.
// The marked vertices are exactly those whose distance H' lengthened. Each is
// then reset to its best unmarked neighbour over g and queued in q for phase 2.
func (rp *repair) mark(l *labels, q *pq.Radix) bool {
	for _, c := range rp.changes {
		if c.After > c.Before {
			du, dv := l.at(c.U), l.at(c.V)
			if du+c.Before == dv {
				q.Push(pq.Item{V: c.V, D: dv})
			}
			if dv+c.Before == du {
				q.Push(pq.Item{V: c.U, D: du})
			}
		}
	}
	if q.Top() == graph.Inf {
		return true
	}
	rp.cut = true
	decided := make(map[int32]bool) // true: marked
	var marked []int32
	for q.Top() != graph.Inf {
		it := q.Pop()
		if _, ok := decided[it.V]; ok {
			continue
		}
		if rp.left--; rp.left < 0 {
			return false
		}
		ts, ws := rp.g.Neighbors(it.V)
		keep := false
		for i, u := range ts {
			if !decided[u] && l.at(u)+rp.tight(it.V, u, ws[i]) == it.D {
				keep = true
				break
			}
		}
		if decided[it.V] = !keep; keep {
			continue
		}
		marked = append(marked, it.V)
		for i, t := range ts {
			if dt := l.at(t); dt < graph.Inf && it.D+rp.tight(it.V, t, ws[i]) == dt {
				q.Push(pq.Item{V: t, D: dt})
			}
		}
	}
	rp.marked = len(marked)
	q.Reset() // phase 2 keys may be below phase 1's last
	for _, v := range marked {
		best := graph.Inf
		ts, ws := rp.g.Neighbors(v)
		for i, u := range ts {
			if !decided[u] {
				best = min(best, l.at(u)+int64(ws[i]))
			}
		}
		l.set(v, best)
		if best < graph.Inf {
			q.Push(pq.Item{V: v, D: best})
		}
	}
	return true
}

// tight is the weight arc (v, t) of g, one copy at w, has on H' for a
// tightness test: a lighter slot's Before (graph.Inf for a new one), and
// graph.Inf for a heavier one, which no distance of H is tight on over H'.
// The changes are in slot order: a lookup is a binary search.
func (rp *repair) tight(v, t int32, w uint32) int64 {
	i, ok := slices.BinarySearchFunc(rp.changes, slotOf(v, t), func(c mutate.Change, k uint64) int {
		return cmp.Compare(changeSlot(c), k)
	})
	switch {
	case !ok:
		return int64(w)
	case rp.changes[i].After < rp.changes[i].Before:
		return rp.changes[i].Before
	}
	return graph.Inf
}

func (rp *repair) lower(l *labels, q *pq.Radix, v int32, dv int64) {
	if dv < l.at(v) {
		l.set(v, dv)
		q.Push(pq.Item{V: v, D: dv})
	}
}

// relax is phase 2, the label-correcting loop: the labels, upper bounds
// feasible on every arc of g but those out of the queued vertices, are lowered
// from them outward, nearest first, until they are feasible everywhere.
func (rp *repair) relax(l *labels, q *pq.Radix) bool {
	for q.Top() != graph.Inf {
		it := q.Pop()
		if it.D > l.at(it.V) {
			continue // lowered again since
		}
		if rp.left--; rp.left < 0 {
			return false
		}
		rp.resettled++
		ts, ws := rp.g.Neighbors(it.V)
		for i, t := range ts {
			rp.lower(l, q, t, it.D+int64(ws[i]))
		}
	}
	return true
}

// labels is a vector under repair: codes read and written in place, until a
// label needs a wider code than the vector has; plain distances from then on.
type labels struct {
	vec  vector
	wide []int64
}

func (l *labels) at(v int32) int64 {
	if l.wide != nil {
		return l.wide[v]
	}
	return l.vec.at(int(v))
}

func (l *labels) set(v int32, x int64) {
	if l.wide == nil {
		if l.vec.put(int(v), x) {
			return
		}
		l.wide = l.vec.unpack()
	}
	l.wide[v] = x
}
