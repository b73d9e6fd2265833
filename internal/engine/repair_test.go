package engine

import (
	"container/list"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/dijkstra"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/rng"
)

// randomBatch is 1–4 ops valid on g, at most one a slot (fewer where g has
// fewer slots): inserts anywhere (parallel copies and self-loops included),
// deletes, and weight changes up or down on existing slots, at weights up to
// maxW.
func randomBatch(g *graph.Graph, r *rng.Xoshiro256, maxW uint32) *mutate.Batch {
	n, edges := g.NumVertices(), g.Edges()
	seen := map[[2]int32]bool{}
	var ops []mutate.Op
	for k, tries := 1+r.Intn(4), 0; len(ops) < k && tries < 16*k; tries++ {
		op := mutate.Op{Op: mutate.OpInsert, U: int32(r.Intn(n)), V: int32(r.Intn(n)), W: 1 + uint32(r.Intn(int(maxW)))}
		if len(edges) > 0 && r.Intn(3) > 0 {
			e := edges[r.Intn(len(edges))]
			op.U, op.V = e.U, e.V
			if op.Op = mutate.OpSetWeight; r.Intn(2) == 0 {
				op.Op, op.W = mutate.OpDelete, 0
			}
		}
		slot := [2]int32{min(op.U, op.V), max(op.U, op.V)}
		if seen[slot] {
			continue
		}
		seen[slot] = true
		ops = append(ops, op)
	}
	return &mutate.Batch{Ops: ops}
}

// FuzzRepair: a random graph, three source sets answered on its first
// generation, then 1–4 generations of mixed batches with only the first set
// read between them. On the last generation every answer — exact, repaired
// across several writes, or solved again once its repair outgrew the budget —
// equals Dijkstra on the naive replay, at widths under and over 32 bits.
func FuzzRepair(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(2), false, uint8(255))
	f.Add(uint64(2), uint8(40), uint8(4), true, uint8(255))
	f.Add(uint64(3), uint8(30), uint8(3), false, uint8(2))
	f.Add(uint64(4), uint8(3), uint8(1), true, uint8(0))
	f.Add(uint64(5), uint8(64), uint8(4), false, uint8(10))
	f.Fuzz(func(t *testing.T, seed uint64, n, gens uint8, wide bool, budget uint8) {
		nv := 2 + int(n)%63
		maxW := uint32(1 << 10)
		if wide { // a few arcs pass 2^32
			maxW = graph.MaxWeight
		}
		r := rng.New(seed)
		g := gen.Random(nv, 2*nv, maxW, gen.UWD, seed)
		sets := [][]int32{{0}, {int32(nv - 1)}, {int32(r.Intn(nv)), int32(r.Intn(nv))}}
		e := engineOn(g, Config{CacheEntries: 8})
		for _, s := range sets {
			ask(t, e, s...)
		}
		ref := g
		for k := 0; k <= int(gens)%4; k++ {
			b := randomBatch(g, r, maxW)
			next, _, err := mutate.Apply(g, b)
			if err != nil {
				t.Fatal(err)
			}
			if ref, err = mutate.ReferenceApply(ref, b); err != nil {
				t.Fatal(err)
			}
			e, _, _, _ = inherit(e, next, mutate.Changes(g, next, b))
			e.SetRepairBudget(int(budget))
			g = next
			res, _ := ask(t, e, sets[0]...)
			sameAsCold(t, "first set", res, ref, sets[0]...)
		}
		for _, s := range sets {
			held := e.cache.peek(keyOf(t, e, s...)) // not if the policy now picks another solver
			res, via := ask(t, e, s...)
			sameAsCold(t, "last generation", res, ref, s...)
			if held && via != ViaCache && e.Counter(cRepairBudgetExceeded) == 0 {
				t.Fatalf("set %v answered via %v with no repair over budget", s, via)
			}
		}
	})
}

// segment lists a cache segment's keys, most recent first.
func segment(l *list.List) []string {
	var out []string
	for el := l.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*cacheEntry).res.key)
	}
	return out
}

// The protected segment holds at most 4/5 of the entries: a hit promotes an
// entry there and demotes protected's least recent one when it is full.
// Eviction takes probation's least recent entry first, so sources read twice
// outlive any number read once, and each key it takes is remembered.
func TestSLRUSegments(t *testing.T) {
	var ev obs.Counter
	c := newSLRU(5, 0, &ev, nil)
	for _, k := range []string{"A", "B", "C", "D", "E"} {
		c.add(cacheRes(k, 4))
		if _, ok := c.get(nil, k); !ok {
			t.Fatalf("%s missing", k)
		}
	}
	if p, q := segment(c.protected), segment(c.probation); !slices.Equal(p, []string{"E", "D", "C", "B"}) || !slices.Equal(q, []string{"A"}) {
		t.Fatalf("protected %v, probation %v; want 4 of 5 protected, A demoted", p, q)
	}
	for _, k := range []string{"F", "G", "H"} {
		c.add(cacheRes(k, 4))
	}
	if p, q := segment(c.protected), segment(c.probation); !slices.Equal(p, []string{"E", "D", "C", "B"}) || !slices.Equal(q, []string{"H"}) || ev.Value() != 3 {
		t.Fatalf("protected %v, probation %v after three one-time entries, %d evictions", p, q, ev.Value())
	}
	if !slices.Equal(c.history, hashes(c, "A", "F", "G")) {
		t.Fatal("the history does not hold A, F and G, oldest first")
	}
	c.get(nil, "H") // promoted; B, protected's least recent, goes back on probation
	if p, q := segment(c.protected), segment(c.probation); !slices.Equal(p, []string{"H", "E", "D", "C"}) || !slices.Equal(q, []string{"B"}) {
		t.Fatalf("protected %v, probation %v after a second read of H", p, q)
	}
}

// Segment membership and recency cross a write with each entry, read or not,
// and so does the history of keys evicted from probation.
func TestSLRUMembershipCrossesInherit(t *testing.T) {
	g1 := testInstance(t, 100, 400).G
	e1 := engineOn(g1, Config{CacheEntries: 5})
	for _, s := range []int32{1, 1, 2, 2, 3, 3, 4, 4, 5, 2} {
		ask(t, e1, s)
	} // protected: 2 4 3 1; probation: 5
	loop := &mutate.Batch{Ops: []mutate.Op{{Op: mutate.OpInsert, U: 9, V: 9, W: 1}}}
	g2, _, _ := mutate.Apply(g1, loop)
	e2, exact, _, unread := inherit(e1, g2, mutate.Changes(g1, g2, loop))
	if exact != 5 || unread != 0 {
		t.Fatalf("%d exact, %d unread", exact, unread)
	}
	want := func(e *Gen, protected, probation []int32) {
		t.Helper()
		keys := func(srcs []int32) []string {
			var out []string
			for _, s := range srcs {
				out = append(out, keyOf(t, e, s))
			}
			return out
		}
		if p, q := segment(e.cache.protected), segment(e.cache.probation); !slices.Equal(p, keys(protected)) || !slices.Equal(q, keys(probation)) {
			t.Fatalf("protected %v, probation %v; want %v and %v", p, q, keys(protected), keys(probation))
		}
	}
	want(e2, []int32{2, 4, 3, 1}, []int32{5})
	ask(t, e2, 6) // a one-time source evicts probation's least recent
	ask(t, e2, 7)
	want(e2, []int32{2, 4, 3, 1}, []int32{7})
	g3, _, _ := mutate.Apply(g2, loop)
	e3, _, _, unread := inherit(e2, g3, mutate.Changes(g2, g3, loop))
	if unread != 4 {
		t.Fatalf("%d unread on gen 2, want 2, 4, 3 and 1", unread)
	}
	want(e3, []int32{2, 4, 3, 1}, []int32{7})
	// 5, evicted on gen 2, is read a second time on gen 3: it enters
	// protected's least recent end, and with protected full goes straight
	// to probation's front, pushing 7 out.
	ask(t, e3, 5)
	want(e3, []int32{2, 4, 3, 1}, []int32{5})
	if n := e3.Counter(cCacheSecondReads); n != 1 {
		t.Fatalf("%d second reads, want 1", n)
	}
}

// churnBatch is the shape of a benchmark write on g: two lighter slots and two
// inserts, or (general) a delete, a heavier slot, a lighter one and an insert.
func churnBatch(g *graph.Graph, r *rand.Rand, general bool) *mutate.Batch {
	n, edges := g.NumVertices(), g.Edges()
	used := map[[2]int32]bool{}
	var ops []mutate.Op
	pick := func(ok func(graph.Edge) bool) graph.Edge {
		for {
			e := edges[r.Intn(len(edges))]
			if k := [2]int32{min(e.U, e.V), max(e.U, e.V)}; !used[k] && ok(e) {
				used[k] = true
				return e
			}
		}
	}
	lighter := func() {
		e := pick(func(e graph.Edge) bool { return e.W > 1 })
		ops = append(ops, mutate.Op{Op: mutate.OpSetWeight, U: e.U, V: e.V, W: 1 + uint32(r.Intn(int(e.W-1)))})
	}
	insert := func() {
		for {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if k := [2]int32{min(u, v), max(u, v)}; !used[k] {
				used[k] = true
				ops = append(ops, mutate.Op{Op: mutate.OpInsert, U: u, V: v, W: 1 + uint32(r.Intn(n))})
				return
			}
		}
	}
	if general {
		e := pick(func(graph.Edge) bool { return true })
		ops = append(ops, mutate.Op{Op: mutate.OpDelete, U: e.U, V: e.V})
		e = pick(func(e graph.Edge) bool { return e.W < uint32(n) })
		ops = append(ops, mutate.Op{Op: mutate.OpSetWeight, U: e.U, V: e.V, W: e.W + 1 + uint32(r.Intn(n-int(e.W)))})
	} else {
		lighter()
	}
	lighter()
	insert()
	if !general {
		insert()
	}
	return &mutate.Batch{Ops: ops}
}

// askedForRule counts the solves of the rule this cache replaced on the same
// stream: a plain LRU of cap entries where only entries read or solved on a
// generation cross its write, and one the write cut a tight slot of is dropped.
type askedForRule struct {
	cap    int
	lru    []int32 // most recent first
	asked  map[int32]bool
	solves int
}

func (m *askedForRule) read(src int32) {
	if i := slices.Index(m.lru, src); i >= 0 {
		m.lru = slices.Delete(m.lru, i, i+1)
	} else {
		m.solves++
	}
	m.lru = slices.Insert(m.lru, 0, src)
	m.asked[src] = true
	if len(m.lru) > m.cap {
		m.lru = m.lru[:m.cap]
	}
}

func (m *askedForRule) write(g *graph.Graph, changes []mutate.Change) {
	m.lru = slices.DeleteFunc(m.lru, func(src int32) bool {
		if !m.asked[src] {
			return true
		}
		d := dijkstra.SSSP(g, src)
		return slices.ContainsFunc(changes, func(c mutate.Change) bool {
			return c.After > c.Before && (d[c.U]-d[c.V] == c.Before || d[c.V]-d[c.U] == c.Before)
		})
	})
	clear(m.asked)
}

// A seeded Zipf stream (s = 1.5) with a write every 500 ops, one in four
// general, through a real Engine lineage at 2^10: carrying every entry,
// repairing what a write cut and keeping the hot set by frequency in the
// daemon's 144 entries solves at least 30% fewer reads than the asked-for
// rule at 256 entries did, counted.
func TestChurnReplaySolvesFewer(t *testing.T) {
	const n, writes, reads = 1 << 10, 60, 499
	g := gen.Random(n, 4*n, n, gen.UWD, 3)
	r := rand.New(rand.NewSource(5))
	zipf := rand.NewZipf(r, 1.5, 1, n-1)
	perm := rand.New(rand.NewSource(6)).Perm(n)
	old := &askedForRule{cap: 256, asked: map[int32]bool{}}
	e := engineOn(g, Config{CacheEntries: 144})
	solved := 0
	for w := 1; w <= writes; w++ {
		for range reads {
			src := int32(perm[zipf.Uint64()])
			old.read(src)
			if _, via := ask(t, e, src); via != ViaCache {
				solved++
			}
		}
		b := churnBatch(g, r, w%4 == 0)
		next, _, err := mutate.Apply(g, b)
		if err != nil {
			t.Fatal(err)
		}
		changes := mutate.Changes(g, next, b)
		old.write(g, changes)
		e, _, _, _ = inherit(e, next, changes)
		g = next
	}
	t.Logf("%d reads: %d solves, %d under the asked-for rule at 256", writes*reads, solved, old.solves)
	if solved > old.solves*7/10 {
		t.Fatalf("%d solves against the asked-for rule's %d: want at least 30%% fewer", solved, old.solves)
	}
}

// compose merges two lists in slot order, one change a slot: the first
// Before and the last After of each slot, in slot order, and a slot back at
// its first weight owes nothing. Two lists of mutate.MaxOps slots compose in
// one pass; a scan of the owed list for each later change took seconds.
func TestComposeMergesInSlotOrder(t *testing.T) {
	owed := bySlot([]mutate.Change{{U: 2, V: 1, Before: 5, After: 3}, {U: 4, V: 3, Before: graph.Inf, After: 7}})
	later := bySlot([]mutate.Change{
		{U: 1, V: 2, Before: 3, After: 5}, {U: 3, V: 4, Before: 7, After: 9},
		{U: 0, V: 9, Before: 4, After: 2}, {U: 9, V: 0, Before: 4, After: 2},
	})
	want := []mutate.Change{{U: 0, V: 9, Before: 4, After: 2}, {U: 4, V: 3, Before: graph.Inf, After: 9}}
	if got := compose(owed, later); !slices.Equal(got, want) {
		t.Fatalf("compose: %v, want %v", got, want)
	}

	const k = mutate.MaxOps
	owed, later = make([]mutate.Change, k), make([]mutate.Change, k)
	for i := range k {
		owed[i] = mutate.Change{U: 0, V: int32(1 + i), Before: 1, After: 2}
		later[i] = mutate.Change{U: 0, V: int32(1 + k/2 + i), Before: 2, After: 3}
	}
	start := time.Now()
	got := compose(owed, later)
	if took := time.Since(start); took > time.Second {
		t.Fatalf("two lists of %d slots took %v to compose", k, took)
	}
	if len(got) != k+k/2 || got[0] != owed[0] || got[k/2] != (mutate.Change{U: 0, V: 1 + k/2, Before: 1, After: 3}) || got[k+k/2-1] != later[k-1] {
		t.Fatalf("%d slots: %v … %v … %v", len(got), got[0], got[k/2], got[len(got)-1])
	}
}

// An entry nobody reads owes one more slot with every write that changes one,
// and the cache charges each (changeBytes apiece, for the list's capacity at
// its size class). A repair gets through the
// longest list it may owe, n/owedShare slots (here the floor, 64); the write
// that would make it owe more drops it and counts a repair over budget.
func TestOwedListChargedAndCapped(t *testing.T) {
	g0 := testInstance(t, 200, 800).G
	// lineage is k writes from g0, each an insert from 0 that changes one slot,
	// with only the first generation read; it returns the last generation and
	// the naive replay's graph.
	lineage := func(k int) (*Gen, *graph.Graph) {
		g, e := g0, engineOn(g0, Config{CacheEntries: 4})
		first, _ := ask(t, e, 0)
		ref := g
		for w := int32(1); w <= int32(k); w++ {
			b := &mutate.Batch{Ops: []mutate.Op{{Op: mutate.OpInsert, U: 0, V: w, W: 1}}}
			next, _, err := mutate.Apply(g, b)
			if err != nil {
				t.Fatal(err)
			}
			if ref, err = mutate.ReferenceApply(ref, b); err != nil {
				t.Fatal(err)
			}
			e, _, _, _ = inherit(e, next, mutate.Changes(g, next, b))
			g = next
			_, charged := e.cache.size()
			if owed := int(w); owed > minRepairBudget {
				if charged != 0 || e.Counter(cRepairBudgetExceeded) != 1 {
					t.Fatalf("owing %d slots: %d bytes cached, %d repairs over budget", owed, charged, e.Counter(cRepairBudgetExceeded))
				}
			} else if want := first.vectorBytes() + int64(len(keyOf(t, e, 0))) + 64 + int64(cap(slices.Grow([]mutate.Change(nil), owed)))*changeBytes; charged != want {
				t.Fatalf("owing %d slots: %d bytes charged, want %d", owed, charged, want)
			}
		}
		return e, ref
	}
	e, ref := lineage(minRepairBudget) // the longest list
	e.SetRepairBudget(200)
	res, via := ask(t, e, 0)
	if via != ViaCache {
		t.Fatalf("owing %d slots: via %v", minRepairBudget, via)
	}
	sameAsCold(t, "repaired across 64 writes", res, ref, 0)

	e, ref = lineage(minRepairBudget + 1)
	if res, via = ask(t, e, 0); via != ViaSolve {
		t.Fatalf("after the drop: via %v", via)
	}
	sameAsCold(t, "solved after the drop", res, ref, 0)
}
