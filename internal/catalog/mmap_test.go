package catalog

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ch"
	"repro/internal/dijkstra"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/snapshot"
)

// writeMappedSnap writes a fresh v2 snapshot for the given seed at path
// (atomically: new inode each time) and returns the graph it encodes.
func writeMappedSnap(t *testing.T, path string, n int, seed uint64) *graph.Graph {
	t.Helper()
	g := gen.Random(n, 4*n, 1<<10, gen.UWD, seed)
	if err := snapshot.WriteFile(path, g, ch.BuildKruskal(g)); err != nil {
		t.Fatal(err)
	}
	return g
}

// requireCatalogMmap skips on platforms where snapshot.Map cannot serve
// (no mmap, or big-endian).
func requireCatalogMmap(t *testing.T, path string) {
	t.Helper()
	_, _, m, err := snapshot.Map(path)
	if errors.Is(err, snapshot.ErrNotMappable) {
		t.Skipf("mmap snapshots unsupported here: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// mappingsOf counts the process's mappings of path in /proc/self/maps; ok is
// false where that file cannot be read.
func mappingsOf(path string) (n int, ok bool) {
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.HasSuffix(line, " "+path) {
			n++
		}
	}
	return n, true
}

// TestMmapHotSwapChurn is the mmap analogue of TestHotSwapZeroFailedQueries:
// one catalog name backed by an on-disk v2 snapshot, served zero-copy
// (Config.MMap), reloaded repeatedly while queriers hammer it. Each reload
// first rewrites the snapshot file with different weights (atomic rename, so
// a new inode — exercising the re-verification path in snapshot.Map), so any
// use-after-unmap or cross-generation staleness is observable: the former
// crashes under -race/SIGSEGV, the latter disagrees with Dijkstra run on the
// acquired generation's own graph. Every retired generation must drain and
// close its mapping only after its last in-flight query released.
func TestMmapHotSwapChurn(t *testing.T) {
	const (
		reloads  = 5
		queriers = 6
		n        = 300
	)
	path := filepath.Join(t.TempDir(), "churn.snap")
	writeMappedSnap(t, path, n, 1)
	requireCatalogMmap(t, path)

	c := testCatalog(t, Config{MMap: true, Engine: engine.Config{CacheEntries: 64}})
	if _, err := c.Load("m", Source{Snapshot: path}); err != nil {
		t.Fatal(err)
	}
	g0, release, err := c.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	if !g0.Mapped() || g0.MappedBytes() == 0 || g0.HeapBytes() != 0 {
		t.Fatalf("generation not served from mmap: mapped=%v mappedBytes=%d heapBytes=%d",
			g0.Mapped(), g0.MappedBytes(), g0.HeapBytes())
	}
	release()

	var (
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		queries  atomic.Int64
		progress = make(chan struct{}, queriers) // a token per answered query, while there is room
		failed   = make(chan struct{})
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			close(failed)
		}
		mu.Unlock()
	}
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			src := int32(q % n)
			for {
				select {
				case <-stop:
					return
				default:
				}
				gen1, release, err := c.Acquire("m")
				if err != nil {
					fail(fmt.Errorf("querier %d: acquire failed mid-swap: %w", q, err))
					return
				}
				res, _, err := gen1.Engine.Query(context.Background(),
					engine.Request{Sources: []int32{src}})
				if err != nil {
					release()
					fail(fmt.Errorf("querier %d: query on gen %d: %w", q, gen1.Gen, err))
					return
				}
				// Verify against Dijkstra on the mapped arrays themselves —
				// this both checks staleness and keeps reads on the mapping
				// live right up until release.
				want := dijkstra.SSSP(gen1.G, src)
				for v := range want {
					if res.At(v) != want[v] {
						release()
						fail(fmt.Errorf("querier %d: stale answer on gen %d at vertex %d",
							q, gen1.Gen, v))
						return
					}
				}
				release()
				queries.Add(1)
				select {
				case progress <- struct{}{}:
				default:
				}
				src = (src + int32(queriers)) % n
			}
		}(q)
	}

	// Each swap first takes queriers tokens, one per answered query, so the
	// swaps cannot outrun the queriers.
	var retired []*Generation
swaps:
	for r := 0; r < reloads; r++ {
		for k := 0; k < queriers; k++ {
			select {
			case <-progress:
			case <-failed:
				break swaps
			}
		}
		g, rel, err := c.Acquire("m")
		if err != nil {
			t.Fatal(err)
		}
		retired = append(retired, g)
		rel()
		// New snapshot contents → new inode → the next generation maps and
		// fully re-verifies a different file.
		writeMappedSnap(t, path, n, uint64(r+2))
		if gen, err := c.Reload("m"); err != nil || gen != g.Gen+1 {
			t.Fatalf("reload %d: gen %d, %v; want gen %d", r, gen, err, g.Gen+1)
		}
	}
	close(stop)
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if q := queries.Load(); q < int64(queriers*reloads) {
		t.Fatalf("only %d queries completed; the swap loop starved the queriers", q)
	}
	for _, g := range retired {
		select {
		case <-g.Drained():
		case <-time.After(waitFor):
			t.Fatalf("generation %d never drained (in-flight %d)", g.Gen, g.InFlight())
		}
		if g.InFlight() != 0 {
			t.Fatalf("generation %d drained with %d references", g.Gen, g.InFlight())
		}
		// Drained implies finishDrain ran, which closes the mapping; a second
		// Close must report the same (nil) result, proving the first happened.
		if !g.Mapped() {
			t.Fatalf("generation %d lost its mapped identity", g.Gen)
		}
		if err := g.mapping.Close(); err != nil {
			t.Fatalf("generation %d mapping close: %v", g.Gen, err)
		}
	}
	t.Logf("mmap hot swap: %d queries across %d reloads, zero failures", queries.Load(), reloads)
}

// TestMmapEvictionUnmaps loads two mapped graphs under a budget that only
// fits one; the budget sweep must evict the idle one and its drain must close
// the mapping. The survivor keeps serving from its mapping.
func TestMmapEvictionUnmaps(t *testing.T) {
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.snap")
	pathB := filepath.Join(dir, "b.snap")
	writeMappedSnap(t, pathA, 400, 1)
	writeMappedSnap(t, pathB, 400, 2)
	requireCatalogMmap(t, pathA)

	// A mapped generation's Bytes is exactly its file size, so the budget can
	// be sized up front to fit one snapshot but not two.
	fi, err := os.Stat(pathA)
	if err != nil {
		t.Fatal(err)
	}
	c := testCatalog(t, Config{MMap: true, MemoryBudget: fi.Size() + fi.Size()/2})
	if _, err := c.Load("a", Source{Snapshot: pathA}); err != nil {
		t.Fatal(err)
	}
	genA, relA, err := c.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	relA()
	if !genA.Mapped() {
		t.Fatal("graph a not mapped")
	}
	if genA.Bytes() != fi.Size() {
		t.Fatalf("mapped generation charges %d bytes, file is %d", genA.Bytes(), fi.Size())
	}
	// Loading b must push a out (a is idle, LRU-first).
	if _, err := c.Load("b", Source{Snapshot: pathB}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(waitFor)
	for {
		if _, _, err := c.Acquire("a"); err != nil {
			break // evicted (or draining): no longer acquirable
		}
		if time.Now().After(deadline) {
			t.Fatalf("graph a never evicted under budget: %+v", c.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	select {
	case <-genA.Drained():
	case <-time.After(waitFor):
		t.Fatalf("evicted generation never drained (in-flight %d)", genA.InFlight())
	}
	if err := genA.mapping.Close(); err != nil {
		t.Fatalf("evicted mapping close: %v", err)
	}
	// b still serves from its own mapping.
	genB, relB, err := c.Acquire("b")
	if err != nil {
		t.Fatal(err)
	}
	defer relB()
	if !genB.Mapped() {
		t.Fatal("graph b not mapped")
	}
	res, _, err := genB.Engine.Query(context.Background(), engine.Request{Sources: []int32{0}})
	if err != nil {
		t.Fatal(err)
	}
	want := dijkstra.SSSP(genB.G, 0)
	for v := range want {
		if res.At(v) != want[v] {
			t.Fatalf("post-eviction distance mismatch at %d", v)
		}
	}
}
