package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/dijkstra"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/par"
	"repro/internal/solver"
	"repro/internal/trace"
)

// engineOn is the first generation of a new engine, over g.
func engineOn(g *graph.Graph, cfg Config) *Gen {
	return New(solver.NewInstance(g, par.NewExec(2)), cfg)
}

// nextOn is the generation over g of parent's engine: what a write makes, not
// served until its Swap.
func nextOn(parent *Gen, g *graph.Graph) *Gen {
	return parent.Next(solver.NewInstance(g, par.NewExec(2)))
}

// inherit is the write from parent to next: the generation over next, its
// answers inherited across changes and swapped in.
func inherit(parent *Gen, next *graph.Graph, changes []mutate.Change) (child *Gen, exact, pending, unread int) {
	child = nextOn(parent, next)
	exact, pending, unread = child.Swap(child.Inherit(changes))
	return child, exact, pending, unread
}

// sameAsCold holds every face of an answer — At, Len, Reached, Eccentricity,
// DistJSON — to Dijkstra on g.
func sameAsCold(t *testing.T, what string, res *Result, g *graph.Graph, srcs ...int32) {
	t.Helper()
	want := dijkstra.SSSPFromSources(g, srcs)
	if res.Len() != len(want) {
		t.Fatalf("%s: Len %d, want %d", what, res.Len(), len(want))
	}
	cold := &Result{}
	cold.detach(want)
	for v, d := range want {
		if res.At(v) != d {
			t.Fatalf("%s: d[%d] = %d, Dijkstra %d", what, v, res.At(v), d)
		}
		if d == graph.Inf {
			want[v] = -1
		}
	}
	if res.Reached != cold.Reached || res.Eccentricity != cold.Eccentricity {
		t.Fatalf("%s: reached %d eccentricity %d, want %d and %d", what, res.Reached, res.Eccentricity, cold.Reached, cold.Eccentricity)
	}
	if js, _ := json.Marshal(want); !bytes.Equal(res.DistJSON(), js) {
		t.Fatalf("%s: DistJSON %s, want %s", what, res.DistJSON(), js)
	}
}

// keyOf is the cache key e plans for a query from srcs.
func keyOf(t *testing.T, e *Gen, srcs ...int32) string {
	t.Helper()
	_, _, key, err := e.plan(Request{Sources: srcs})
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func ask(t *testing.T, e *Gen, srcs ...int32) (*Result, Via) {
	t.Helper()
	res, via, err := e.Query(context.Background(), Request{Sources: srcs})
	if err != nil {
		t.Fatal(err)
	}
	return res, via
}

// The two rules of Inherit on a graph small enough to read: from 0 the
// distances are [0 2 4 7 ∞ ∞]; 0–2 (10 and 30) is on no shortest path, 1–2 and
// the lighter 2–3 copy are on one, 4–5 is out of reach. A pending entry is
// repaired on its first hit: "cut" says phase 1 found a tight slot removed or
// raised.
func TestInheritClassifies(t *testing.T) {
	base := graph.FromEdges(6, []graph.Edge{
		{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 2}, {U: 0, V: 2, W: 10}, {U: 0, V: 2, W: 30},
		{U: 2, V: 3, W: 3}, {U: 2, V: 3, W: 9}, {U: 4, V: 5, W: 1},
	})
	set, ins, del := mutate.OpSetWeight, mutate.OpInsert, mutate.OpDelete
	for _, tc := range []struct {
		name      string
		ops       []mutate.Op
		want      string // of the entry for source 0
		resettled int64
	}{
		{"delete untight", []mutate.Op{{Op: del, U: 0, V: 2}}, "exact", 0},
		{"raise untight", []mutate.Op{{Op: set, U: 2, V: 0, W: 40}}, "exact", 0},
		{"delete tight", []mutate.Op{{Op: del, U: 1, V: 2}}, "cut", 2},
		{"raise tight", []mutate.Op{{Op: set, U: 0, V: 1, W: 3}}, "cut", 3},
		{"lower one copy and raise the other, tight", []mutate.Op{{Op: set, U: 2, V: 3, W: 5}}, "cut", 1},
		{"lower one copy and raise the other, untight", []mutate.Op{{Op: set, U: 0, V: 2, W: 20}}, "exact", 0},
		{"cheaper, improving nothing", []mutate.Op{{Op: set, U: 0, V: 2, W: 4}}, "exact", 0},
		{"cheaper, improving", []mutate.Op{{Op: set, U: 0, V: 2, W: 3}}, "pending", 2},
		{"lighter parallel copy", []mutate.Op{{Op: ins, U: 1, V: 0, W: 1}}, "pending", 3},
		{"heavier parallel copy", []mutate.Op{{Op: ins, U: 0, V: 1, W: 7}}, "exact", 0},
		{"self-loop", []mutate.Op{{Op: ins, U: 2, V: 2, W: 1}}, "exact", 0},
		{"into another component", []mutate.Op{{Op: ins, U: 3, V: 4, W: 1}}, "pending", 2},
		{"inside the other component", []mutate.Op{{Op: set, U: 4, V: 5, W: 9}}, "exact", 0},
		{"raise untight beside an improvement", []mutate.Op{{Op: del, U: 0, V: 2}, {Op: ins, U: 0, V: 3, W: 1}}, "pending", 1},
		{"raise tight beside an improvement", []mutate.Op{{Op: del, U: 2, V: 3}, {Op: ins, U: 0, V: 3, W: 1}}, "cut", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parent := engineOn(base, Config{CacheEntries: 8})
			for _, srcs := range [][]int32{{0}, {1, 5}, {4}} {
				ask(t, parent, srcs...)
				ask(t, parent, srcs...) // read twice: protected
			}
			b := &mutate.Batch{Ops: tc.ops}
			g, _, err := mutate.Apply(base, b)
			if err != nil {
				t.Fatal(err)
			}
			child, exact, pending, unread := inherit(parent, g, mutate.Changes(base, g, b))
			if exact+pending != 3 || unread != 0 {
				t.Fatalf("%d exact + %d pending (%d unread), want the 3 entries read on the parent", exact, pending, unread)
			}
			if s := child.StatsSnapshot(); s["inherited_exact"] != int64(exact) || s["inherited_stale"] != int64(pending) || s["inherited_unread"] != int64(unread) {
				t.Fatalf("counters %v, returned %d/%d/%d", s, exact, pending, unread)
			}
			ent, held := child.cache.index[keyOf(t, child, 0)]
			got := "exact"
			if !held {
				t.Fatal("source 0's entry did not cross")
			} else if ent.Value.(*cacheEntry).res.pending != nil {
				got = "pending"
			}
			if want := map[string]string{"cut": "pending"}[tc.want]; got != tc.want && got != want {
				t.Fatalf("source 0's entry is %s, want %s", got, tc.want)
			}
			for i, srcs := range [][]int32{{0}, {1, 5}, {4}} {
				res, via := ask(t, child, srcs...)
				if via != ViaCache {
					t.Fatalf("sources %v: answered via %v", srcs, via)
				}
				sameAsCold(t, fmt.Sprint("sources ", srcs), res, g, srcs...)
				if n := child.Counter(cResettled); i == 0 && n < tc.resettled {
					t.Fatalf("resettled %d vertices, want at least %d", n, tc.resettled)
				}
				if n := child.Counter(cRepaired); i == 0 && (tc.want == "cut") != (n == 1) {
					t.Fatalf("source 0's resume: %d cut", n)
				}
			}
			if child.Counter(cResumed) != int64(pending) {
				t.Fatalf("%d resumes for %d pending entries", child.Counter(cResumed), pending)
			}
		})
	}
}

// Every entry crosses a write whether or not it was read: one inherited and
// never read crosses the next write too, still answers exactly, and a cut
// slot met on the way is repaired when it is finally read.
func TestInheritCarriesUnreadEntries(t *testing.T) {
	g1 := testInstance(t, 200, 800).G
	far := &mutate.Batch{Ops: []mutate.Op{{Op: mutate.OpInsert, U: 5, V: 5, W: 1}}} // changes no distance
	g2, _, _ := mutate.Apply(g1, far)
	d := dijkstra.SSSP(g2, 11)
	var cut mutate.Op // the first tight arc into a vertex away from 11
	for v := int32(0); v < 200 && cut.Op == ""; v++ {
		ts, ws := g2.Neighbors(v)
		for i, u := range ts {
			if u != 11 && d[v]+int64(ws[i]) == d[u] {
				cut = mutate.Op{Op: mutate.OpDelete, U: v, V: u}
				break
			}
		}
	}
	b3 := &mutate.Batch{Ops: []mutate.Op{cut}}
	g3, _, _ := mutate.Apply(g2, b3)

	e1 := engineOn(g1, Config{CacheEntries: 2})
	ask(t, e1, 10)
	ask(t, e1, 11) // evicts 10
	ask(t, e1, 11) // read twice: protected
	ask(t, e1, 12)

	e2, exact, pending, unread := inherit(e1, g2, mutate.Changes(g1, g2, far))
	if exact != 2 || pending+unread != 0 {
		t.Fatalf("gen 2 inherited %d exact, %d pending, %d unread; want 11 and 12, both read", exact, pending, unread)
	}
	if _, via := ask(t, e2, 12); via != ViaCache {
		t.Fatalf("12 answered via %v on gen 2", via)
	}
	e3, exact, pending, unread := inherit(e2, g3, mutate.Changes(g2, g3, b3))
	if exact+pending != 2 || unread != 1 || !e3.cache.peek(keyOf(t, e3, 11)) {
		t.Fatalf("gen 3 inherited %d exact + %d pending, %d unread; want 11 (never read on gen 2) and 12", exact, pending, unread)
	}
	res, via := ask(t, e3, 11)
	if via != ViaCache || e3.Counter(cRepaired) != 1 {
		t.Fatalf("11 answered via %v on gen 3, %d repaired; want the cut repaired on its first read", via, e3.Counter(cRepaired))
	}
	sameAsCold(t, "11 two writes on", res, g3, 11)
}

// vectorSize is the bytes a vector of n distances at width bits occupies: the
// words the codes fill, at the capacity they are allocated.
func vectorSize(n int, width uint) int64 {
	return int64(allocBytes(8 * ((n*int(width) + 63) / 64)))
}

// A stale entry is charged as the vector it shares and the changes it owes
// from the moment it is inserted; resolving it charges the change of width and
// releases the list, and serializing it charges the bytes the JSON holds. The hit that resolves records the resume under its
// cache_lookup span.
func TestStaleEntryAccountingAndSpan(t *testing.T) {
	g1 := testInstance(t, 300, 1200).G
	b := &mutate.Batch{Ops: []mutate.Op{{Op: mutate.OpInsert, U: 0, V: 299, W: 1}}}
	g2, _, _ := mutate.Apply(g1, b)
	e1 := engineOn(g1, Config{CacheEntries: 4})
	cold, _ := ask(t, e1, 0)
	e2, _, stale, _ := inherit(e1, g2, mutate.Changes(g1, g2, b))
	if stale != 1 {
		t.Fatalf("%d stale entries, want 1", stale)
	}
	e2.SetRepairBudget(300) // the shortcut re-settles past 64 vertices
	_, charged := e2.cache.size()
	if want := entryBytes(cold) + changeBytes; charged != want || want != vectorSize(300, widthFor(cold.Eccentricity))+int64(len("delta|0"))+64+changeBytes {
		t.Fatalf("stale entry charged %d bytes, a solved one and the change it owes %d", charged, want)
	}

	tracer := trace.New(trace.Config{SampleN: 1})
	tr := tracer.StartRequest("", "sssp")
	res, via, err := e2.Query(trace.NewContext(context.Background(), tr), Request{Sources: []int32{0}})
	tracer.Finish(tr, 200)
	if err != nil || via != ViaCache {
		t.Fatalf("via %v, err %v", via, err)
	}
	sameAsCold(t, "resumed", res, g2, 0)
	resized := vectorSize(300, widthFor(res.Eccentricity)) - vectorSize(300, widthFor(cold.Eccentricity))
	if _, now := e2.cache.size(); now != charged+resized-changeBytes+int64(cap(res.DistJSON())) {
		t.Fatalf("cache holds %d bytes after the resolve and the JSON, want %d %+d − %d + %d", now, charged, resized, changeBytes, cap(res.DistJSON()))
	}
	if &res.vec.words[0] == &cold.vec.words[0] || cold.At(299) == res.At(299) {
		t.Fatal("the resume wrote into the vector the parent generation still serves")
	}
	lk := tr.Export().Spans.Children[0]
	if lk.Name != "cache_lookup" || len(lk.Children) != 1 || lk.Children[0].Name != "resume" {
		t.Fatalf("spans under the request: %+v", lk)
	}
	if a := lk.Children[0].Attrs; a["seeds"] != 1 || a["resettled"] != int(e2.Counter(cResettled)) || e2.Counter(cResettled) == 0 {
		t.Fatalf("resume span %v, resettled counter %d", a, e2.Counter(cResettled))
	}
	ask(t, e2, 0)
	if e2.Counter(cResumed) != 1 {
		t.Fatalf("%d resumes after two hits", e2.Counter(cResumed))
	}
}

// A vector is stored at the bits its eccentricity needs, past 32 as below, and
// read the same way — solved, inherited exact, dropped; a resume that pushes
// the eccentricity past its width widens the vector (and is charged for it).
func TestWideVectors(t *testing.T) {
	const heavy = graph.MaxWeight // 2^30: five arcs pass 2^32
	edges := []graph.Edge{{U: 6, V: 7, W: 3}, {U: 7, V: 8, W: 4}}
	for v := int32(0); v < 5; v++ {
		edges = append(edges, graph.Edge{U: v, V: v + 1, W: heavy})
	}
	g1 := graph.FromEdges(9, edges)
	e1 := engineOn(g1, Config{CacheEntries: 8})
	chain, _ := ask(t, e1, 0)
	island, _ := ask(t, e1, 6)
	if chain.Eccentricity != 5<<30 || chain.vec.width != 33 || island.vec.width != widthFor(7) {
		t.Fatalf("widths: chain %d bits (eccentricity %d), island %d bits", chain.vec.width, chain.Eccentricity, island.vec.width)
	}
	sameAsCold(t, "chain", chain, g1, 0)
	sameAsCold(t, "island", island, g1, 6)
	if chain.vectorBytes() != vectorSize(9, 33) || island.vectorBytes() != vectorSize(9, widthFor(7)) {
		t.Fatalf("vectors of %d and %d bytes", chain.vectorBytes(), island.vectorBytes())
	}
	if _, bytes := e1.cache.size(); bytes != entryBytes(chain)+entryBytes(island)+int64(cap(chain.distJSON)+cap(island.distJSON)) {
		t.Fatalf("cache charges %d bytes for a %d-byte and a %d-byte vector", bytes, chain.vectorBytes(), island.vectorBytes())
	}

	// The island joins the far end of the chain: its vector resumes past 2^32;
	// the chain's gains three near vertices and stays exact elsewhere.
	b := &mutate.Batch{Ops: []mutate.Op{{Op: mutate.OpInsert, U: 5, V: 6, W: 1}}}
	g2, _, _ := mutate.Apply(g1, b)
	e2, exact, stale, unread := inherit(e1, g2, mutate.Changes(g1, g2, b))
	if exact != 0 || stale != 2 || unread != 0 {
		t.Fatalf("join: %d exact, %d stale, %d unread", exact, stale, unread)
	}
	_, before := e2.cache.size()
	jsonBytes := 0
	for _, src := range []int32{0, 6} {
		res, via := ask(t, e2, src)
		if via != ViaCache || res.vec.width != 33 {
			t.Fatalf("source %d after the join: via %v, %d bits", src, via, res.vec.width)
		}
		sameAsCold(t, fmt.Sprint("joined, from ", src), res, g2, src)
		jsonBytes += cap(res.DistJSON())
	}
	if _, after := e2.cache.size(); after-before != vectorSize(9, 33)-vectorSize(9, widthFor(7))-2*changeBytes+int64(jsonBytes) {
		t.Fatalf("cache grew by %d bytes over two resolves, one of which widened a 9-vertex vector, each dropping a change it owed, and %d of JSON", after-before, jsonBytes)
	}

	// A heavy chain arc goes: tight in both vectors, so both are pending, and
	// each first hit repairs its codes in place. Their eccentricities now fit
	// 32 bits, but an in-place repair never narrows: they stay at 33.
	b = &mutate.Batch{Ops: []mutate.Op{{Op: mutate.OpDelete, U: 2, V: 3}}}
	g3, _, _ := mutate.Apply(g2, b)
	e3, exact, pending, _ := inherit(e2, g3, mutate.Changes(g2, g3, b))
	if exact != 0 || pending != 2 {
		t.Fatalf("cut: %d exact, %d pending", exact, pending)
	}
	_, before = e3.cache.size()
	jsonBytes = 0
	for _, src := range []int32{0, 6} {
		res, via := ask(t, e3, src)
		if via != ViaCache || res.vec.width != 33 || widthFor(res.Eccentricity) != 32 {
			t.Fatalf("source %d after the cut: via %v, %d bits for eccentricity %d", src, via, res.vec.width, res.Eccentricity)
		}
		sameAsCold(t, fmt.Sprint("cut, from ", src), res, g3, src)
		jsonBytes += cap(res.DistJSON())
	}
	if e3.Counter(cRepaired) != 2 {
		t.Fatalf("%d repairs, want 2", e3.Counter(cRepaired))
	}
	if _, after := e3.cache.size(); after-before != int64(jsonBytes)-2*changeBytes {
		t.Fatalf("cache grew by %d bytes over two in-place repairs, each dropping a change it owed, and %d of JSON", after-before, jsonBytes)
	}
}

// The all-ones code is unreachable, so a resume that lowers an unreachable
// vertex to exactly 2^width − 1 must widen the vector by a bit.
func TestResumeToAllOnesWidens(t *testing.T) {
	g1 := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 6}})
	e1 := engineOn(g1, Config{CacheEntries: 4})
	old, _ := ask(t, e1, 0)
	if old.vec.width != 3 || old.At(2) != graph.Inf {
		t.Fatalf("from 0: %d bits, d[2] = %d", old.vec.width, old.At(2))
	}
	b := &mutate.Batch{Ops: []mutate.Op{{Op: mutate.OpInsert, U: 1, V: 2, W: 1}}}
	g2, _, _ := mutate.Apply(g1, b)
	e2, _, stale, _ := inherit(e1, g2, mutate.Changes(g1, g2, b))
	if stale != 1 {
		t.Fatalf("%d stale entries, want 1", stale)
	}
	res, via := ask(t, e2, 0)
	if via != ViaCache || res.vec.width != 4 || res.At(2) != 7 {
		t.Fatalf("resumed via %v: %d bits, d[2] = %d", via, res.vec.width, res.At(2))
	}
	sameAsCold(t, "resumed", res, g2, 0)
}

// Inherit walks a cache that is being served: hits that mark entries asked for,
// and resolve stale ones, run beside it and beside the Swap, after which the
// parent's queries miss and solve on the parent. Whichever side gets to an
// entry first, every answer on either generation is the cold one.
func TestInheritWhileParentServes(t *testing.T) {
	g1 := testInstance(t, 300, 1200).G
	b1 := &mutate.Batch{Ops: []mutate.Op{{Op: mutate.OpInsert, U: 0, V: 150, W: 1}, {Op: mutate.OpInsert, U: 40, V: 299, W: 1}}}
	g2, _, _ := mutate.Apply(g1, b1)
	b2 := &mutate.Batch{Ops: []mutate.Op{{Op: mutate.OpInsert, U: 7, V: 220, W: 1}}}
	g3, _, _ := mutate.Apply(g2, b2)
	sources := []int32{0, 40, 80, 120, 160, 200, 240, 280}
	for round := 0; round < 20; round++ {
		e1 := engineOn(g1, Config{CacheEntries: 16})
		for _, s := range sources {
			ask(t, e1, s)
			ask(t, e1, s) // read twice: protected
		}
		e2, exact, stale, _ := inherit(e1, g2, mutate.Changes(g1, g2, b1))
		if exact+stale != len(sources) || stale == 0 {
			t.Fatalf("gen 2 inherited %d exact and %d stale", exact, stale)
		}
		e3 := nextOn(e2, g3)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range sources {
					s := sources[(i+4*w)%len(sources)]
					res, _, err := e2.Query(context.Background(), Request{Sources: []int32{s}})
					if err != nil {
						t.Errorf("gen 2 source %d during the swap: %v", s, err)
					} else if res.At(int(s)) != 0 || res.Reached == 0 {
						t.Errorf("gen 2 source %d during the swap: d[%d] = %d, reached %d", s, s, res.At(int(s)), res.Reached)
					}
				}
			}(w)
		}
		e3.Swap(e3.Inherit(mutate.Changes(g2, g3, b2)))
		wg.Wait()
		for _, s := range sources {
			res, _ := ask(t, e3, s)
			sameAsCold(t, fmt.Sprint("gen 3 from ", s), res, g3, s)
			res, _ = ask(t, e2, s)
			sameAsCold(t, fmt.Sprint("gen 2 from ", s), res, g2, s)
		}
	}
}
