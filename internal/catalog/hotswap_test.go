package catalog

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ch"
	"repro/internal/dijkstra"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestHotSwapZeroFailedQueries hammers one catalog name with concurrent
// queries while the main goroutine reloads it repeatedly, each reload paced
// on answered queries. Every reload
// produces a graph with different weights, so any cross-generation staleness
// — a query mixing one generation's engine with another's graph, or a cache
// entry leaking across the swap — shows up as a distance that disagrees with
// Dijkstra run on the very graph the query acquired. The test requires:
//
//   - zero failed queries: once the graph is first ready, Acquire never
//     returns an error, across every swap;
//   - zero stale answers: each engine result matches its own generation's
//     graph exactly;
//   - every retired generation drains: refcounts reach zero and the drained
//     channel closes.
//
// Run under -race (make check does) to also prove the swap publishes the new
// generation safely.
func TestHotSwapZeroFailedQueries(t *testing.T) {
	const (
		reloads  = 6
		queriers = 8
		n        = 300
	)
	var version atomic.Uint64
	loader := func() (*graph.Graph, *ch.Hierarchy, error) {
		g := gen.Random(n, 4*n, 1<<10, gen.UWD, version.Add(1))
		return g, ch.BuildKruskal(g), nil
	}
	c := testCatalog(t, Config{Engine: engine.Config{CacheEntries: 64}})
	if _, err := c.Load("hot", Source{Loader: loader}); err != nil {
		t.Fatal(err)
	}

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
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				gen1, release, err := c.Acquire("hot")
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
				// The answer must be exact for the acquired generation's own
				// graph; a stale cache hit from another generation would
				// disagree (weights differ per version).
				want := dijkstra.SSSP(gen1.G, src)
				for v := range want {
					if res.At(v) != want[v] {
						release()
						fail(fmt.Errorf("querier %d: stale answer on gen %d at vertex %d: %d vs %d",
							q, gen1.Gen, v, res.At(v), want[v]))
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

	// Swap generations under load, holding on to each retired generation so
	// its drain can be verified. Each swap first takes queriers tokens, one
	// per answered query, so the swaps cannot outrun the queriers.
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
		g, release, err := c.Acquire("hot")
		if err != nil {
			t.Fatal(err)
		}
		retired = append(retired, g)
		release()
		gen, err := c.Reload("hot")
		if err != nil {
			t.Fatal(err)
		}
		if gen != g.Gen+1 {
			t.Fatalf("reload %d installed gen %d, want %d", r, gen, g.Gen+1)
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
	}
	final, release, err := c.Acquire("hot")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if final.Gen != reloads+1 {
		t.Fatalf("final generation %d, want %d", final.Gen, reloads+1)
	}
	t.Logf("hot swap: %d queries across %d reloads, zero failures", queries.Load(), reloads)
}

// TestConcurrentAdminOps drives load/unload/reload of several names from
// many goroutines at once; the catalog must stay internally consistent (no
// panics from invalid lifecycle transitions, no deadlocks) and, once every
// call has returned, hold every name ready, failed, or evicted.
func TestConcurrentAdminOps(t *testing.T) {
	c := testCatalog(t, Config{})
	names := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := names[i%len(names)]
			for j := 0; j < 10; j++ {
				switch (i + j) % 3 {
				case 0:
					c.Load(name, Source{Loader: loaderFor(uint64(i*100 + j))})
				case 1:
					c.Reload(name)
				case 2:
					c.Unload(name)
				}
				if g, release, err := c.Acquire(name); err == nil {
					if g.G.NumVertices() != 400 {
						t.Error("acquired a malformed generation")
					}
					release()
				}
			}
		}(i)
	}
	wg.Wait()
	// Every call has returned and every acquired generation been released:
	// nothing is in flight and nothing is still draining.
	for _, s := range c.Status() {
		if s.Pending || (s.State != "ready" && s.State != "evicted" && s.State != "failed") {
			t.Fatalf("non-terminal state after every call returned: %+v", s)
		}
	}
}
