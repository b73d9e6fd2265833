package stress

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/ch"
	"repro/internal/dijkstra"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/snapshot"
)

// checkCatalog drives the graph catalog (internal/catalog) with live queries
// racing against admin churn — reloads hot-swapping generations under one
// name while another name is loaded, written and unloaded in a loop — and
// verifies every answer against Dijkstra on the graph the acquired generation
// should hold. Alternate generations carry scaled weights, so a query that
// ever observes a generation other than the one it acquired produces
// distances Dijkstra on that generation's graph cannot, and the oracle trips.
// An Acquire on the reloading name must never fail: a swap that drops a ready
// graph out of service, even briefly, is a catalog bug. Meaningful under
// -race like the other concurrency stages.
func checkCatalog(cfg Config, name string, g *graph.Graph, sources []int32) *Failure {
	n := g.NumVertices()
	fail := func(check, format string, args ...any) *Failure {
		return &Failure{Check: check, Inst: name, Detail: fmt.Sprintf(format, args...), G: g, Sources: sources}
	}

	// Generations alternate between the instance and a copy with every
	// weight doubled (capped at graph.MaxWeight, so both arcs of an edge cap
	// alike), making cross-generation leakage observable.
	var version atomic.Int64
	loader := func() (*graph.Graph, *ch.Hierarchy, error) {
		gg := g
		if version.Add(1)%2 == 0 {
			edges := g.Edges()
			for i := range edges {
				edges[i].W = min(2*edges[i].W, graph.MaxWeight)
			}
			gg = graph.FromEdges(n, edges)
		}
		return gg, ch.BuildKruskal(gg), nil
	}
	cat := catalog.New(catalog.Config{
		MMap:         true,
		QueryWorkers: 2,
		Engine:       engine.Config{CacheEntries: 8, Solvers: cfg.Solvers},
		Logf:         func(string, ...any) {},
	})
	defer cat.Close()
	if _, err := cat.Load("main", catalog.Source{Loader: loader}); err != nil {
		return fail("catalog-lifecycle", "load main: %v", err)
	}
	dir, err := os.MkdirTemp("", "stress-catalog-")
	if err != nil {
		return fail("catalog-lifecycle", "%v", err)
	}
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, "g.snap")
	if err := snapshot.WriteFile(snap, g, ch.BuildKruskal(g)); err != nil {
		return fail("catalog-lifecycle", "write snapshot: %v", err)
	}

	var (
		mu    sync.Mutex
		first *Failure
	)
	report := func(f *Failure) {
		mu.Lock()
		if first == nil {
			first = f
		}
		mu.Unlock()
	}

	// verifyOn answers one query on an acquired generation and checks it
	// against Dijkstra on want, the graph that generation should hold.
	ctx := context.Background()
	verifyOn := func(gen *catalog.Generation, want *graph.Graph, s int32, label string) {
		res, _, err := gen.Engine.Query(ctx, engine.Request{Sources: []int32{s}})
		if err != nil {
			report(fail("catalog-query", "%s gen %d src %d: %v", label, gen.Gen, s, err))
			return
		}
		dist := dijkstra.SSSP(want, s)
		if v := vectorDiff(res, dist); v >= 0 {
			report(fail("catalog-query", "%s gen %d src %d: d[%d] = %d, want %d (stale or mixed generation)",
				label, gen.Gen, s, v, res.At(v), dist[v]))
		}
	}

	// Queriers hammer the reloading name; Acquire must never fail there.
	stop := make(chan struct{})
	srcs := raceSources(sources[0], n)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				gen, release, err := cat.Acquire("main")
				if err != nil {
					report(fail("catalog-acquire", "main acquire failed during reload churn: %v", err))
					return
				}
				verifyOn(gen, gen.G, srcs[(w+i)%len(srcs)], "main")
				release()
			}
		}(w)
	}

	// Admin churn on a second name, served from a snapshot of the instance
	// (mapped where the platform allows), concurrent with the queriers: load,
	// then a weight-only write, a reload (which maps the file again, replays
	// the log onto the heap and unmaps it), another weight-only write and a
	// structural one, then unload and wait out the drain; repeat. Each
	// generation must answer as Dijkstra on mutate.ReferenceApply of the
	// writes so far, and each one a step retires must drain: no generation
	// keeps another. Every call must succeed: nothing else touches the name.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if _, err := cat.Load("aux", catalog.Source{Snapshot: snap}); err != nil {
				report(fail("catalog-lifecycle", "load aux: %v", err))
				return
			}
			var batches []*mutate.Batch
			for _, step := range "wrws-" {
				gen, release, err := cat.Acquire("aux")
				if err != nil {
					report(fail("catalog-acquire", "aux ready but acquire failed: %v", err))
					return
				}
				want, err := mutate.ReferenceApply(g, batches...)
				if err != nil {
					report(fail("catalog-lifecycle", "reference replay: %v", err))
					return
				}
				verifyOn(gen, want, srcs[i%len(srcs)], "aux")
				release()
				op := mutate.Op{Op: mutate.OpInsert, U: 0, V: int32(n - 1), W: uint32(1 + i)}
				if edges := want.Edges(); step == 'w' && len(edges) > 0 {
					e := edges[i%len(edges)]
					op = mutate.Op{Op: mutate.OpSetWeight, U: e.U, V: e.V, W: e.W%graph.MaxWeight + 1}
				}
				switch step {
				case 'r':
					_, err = cat.Reload("aux")
				case 'w', 's':
					batches = append(batches, &mutate.Batch{Ops: []mutate.Op{op}})
					_, err = cat.Mutate("aux", batches[len(batches)-1])
				default:
					err = cat.Unload("aux")
				}
				if err != nil {
					report(fail("catalog-lifecycle", "aux step %c: %v", step, err))
					return
				}
				select {
				case <-gen.Drained(): // the next Load retries from evicted
				case <-time.After(10 * time.Second):
					report(fail("catalog-lifecycle", "aux gen %d (mapped %v) never drained after step %c", gen.Gen, gen.Mapped(), step))
					return
				}
			}
		}
	}()

	// Drive the swaps: each reload must install the next generation while
	// the queriers above keep acquiring without a single failure.
	for i := 0; i < 3 && !failed(&mu, &first); i++ {
		gen, err := cat.Reload("main")
		if err != nil {
			report(fail("catalog-lifecycle", "reload main: %v", err))
			break
		}
		if want := uint64(i + 2); gen != want {
			report(fail("catalog-lifecycle", "reload %d installed gen %d, want %d", i+1, gen, want))
			break
		}
	}
	close(stop)
	wg.Wait()
	return first
}

func failed(mu *sync.Mutex, first **Failure) bool {
	mu.Lock()
	defer mu.Unlock()
	return *first != nil
}
