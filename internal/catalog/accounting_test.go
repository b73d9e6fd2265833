package catalog

import (
	"context"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"testing"

	"repro/internal/ch"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/snapshot"
)

// liveHeap is /gc/heap/live:bytes after two collections (the second empties
// the sync.Pools' victim caches).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// settledHeap is liveHeap once two readings in a row agree: a goroutine an
// earlier test left may still allocate or free.
func settledHeap() int64 {
	h := liveHeap()
	for range 10 {
		next := liveHeap()
		if next == h {
			break
		}
		h = next
	}
	return h
}

// What the catalog charges as heap is what the collector finds live: for each
// kind of storage it charges, made at 2^14 vertices in an empty catalog, the
// growth in its generations' HeapBytes, plus what their engine's slots keep
// (SlotBytes: the state a query ran on stays, and the collector finds it
// live), is within 5% of the growth in the live heap. The result cache,
// charged apart, is off. (A reload that replayed a weight-only write over a
// mapped snapshot once charged nothing for the weights it held on the heap.)
func TestHeapBytesAgainstTheHeap(t *testing.T) {
	const n = 1 << 14
	snap := filepath.Join(t.TempDir(), "g.snap")
	if g := gen.Random(n, 4*n, 1<<10, gen.UWD, 11); snapshot.WriteFile(snap, g, ch.BuildKruskal(g)) != nil {
		t.Fatal("writing the snapshot")
	}
	lazy := Source{Loader: func() (*graph.Graph, *ch.Hierarchy, error) { return gen.Random(n, 4*n, 1<<10, gen.UWD, 11), nil, nil }}
	write := func(t *testing.T, c *Catalog, b func(*graph.Graph) *mutate.Batch) {
		gn, rel, err := c.Acquire("g")
		if err != nil {
			t.Fatal(err)
		}
		batch := b(gn.G)
		rel()
		if _, err := c.Mutate("g", batch); err != nil {
			t.Fatal(err)
		}
	}
	query := func(t *testing.T, c *Catalog, req engine.Request) {
		gn, rel, err := c.Acquire("g")
		if err != nil {
			t.Fatal(err)
		}
		defer rel()
		if _, _, err := gn.Engine.Query(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		mmap bool
		src  Source
		then func(*testing.T, *Catalog)
	}{
		{"copy-loaded snapshot", false, Source{Snapshot: snap}, nil},
		{"structural child", false, lazy, func(t *testing.T, c *Catalog) {
			write(t, c, func(*graph.Graph) *mutate.Batch {
				return &mutate.Batch{Ops: []mutate.Op{{Op: mutate.OpInsert, U: 0, V: n - 1, W: 1}}}
			})
		}},
		{"weight-only child of a drained heap parent", false, lazy, func(t *testing.T, c *Catalog) {
			write(t, c, func(g *graph.Graph) *mutate.Batch { return weightBatch(g, 3, 2) })
		}},
		{"reload replaying a weight-only write over a mapped snapshot", true, Source{Snapshot: snap}, func(t *testing.T, c *Catalog) {
			write(t, c, func(g *graph.Graph) *mutate.Batch { return weightBatch(g, 3, 2) })
			if _, err := c.Reload("g"); err != nil {
				t.Fatal(err)
			}
		}},
		{"hierarchy built on demand", false, lazy, func(t *testing.T, c *Catalog) {
			query(t, c, engine.Request{Sources: []int32{7}, Solver: "thorup"})
		}},
		{"s-t index", false, lazy, func(t *testing.T, c *Catalog) {
			gn, rel, err := c.Acquire("g")
			if err != nil {
				t.Fatal(err)
			}
			ts, ws := gn.G.Neighbors(3)
			near := ts[slices.Index(ws, slices.Min(ws))] // inside the search budget
			rel()
			query(t, c, engine.Request{Sources: []int32{3}, Targets: []int32{near}})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.mmap {
				requireCatalogMmap(t, snap)
			}
			c := New(Config{MMap: tc.mmap, Logf: func(string, ...any) {}})
			before := settledHeap()
			if _, err := c.Load("g", tc.src); err != nil {
				t.Fatal(err)
			}
			if tc.then != nil {
				tc.then(t, c)
			}
			var charged, slots int64
			for _, gn := range c.Serving() {
				charged += gn.HeapBytes()
				slots += gn.Engine.SlotBytes()
			}
			grown := settledHeap() - before
			if diff := charged + slots - grown; diff*20 > grown || -diff*20 > grown {
				t.Fatalf("HeapBytes %d + slot_bytes %d, live heap grew %d: off by %+.1f%%", charged, slots, grown, 100*float64(diff)/float64(grown))
			}
			t.Logf("HeapBytes %d + slot_bytes %d, live heap grew %d", charged, slots, grown)
			runtime.KeepAlive(c)
		})
	}
}
