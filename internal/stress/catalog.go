package stress

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/ch"
	"repro/internal/dijkstra"
	"repro/internal/engine"
	"repro/internal/graph"
)

// checkCatalog drives the graph catalog (internal/catalog) with live queries
// racing against admin churn — reloads hot-swapping generations under one
// name while another name is loaded and unloaded in a loop — and verifies
// every answer against Dijkstra on the acquired generation's own graph.
// Alternate generations carry scaled weights, so a query that ever observes
// a generation other than the one it acquired produces distances Dijkstra on
// that generation's graph cannot, and the oracle trips. An Acquire on the
// reloading name must never fail: a swap that drops a ready graph out of
// service, even briefly, is a catalog bug. Meaningful under -race like the
// other concurrency stages.
func checkCatalog(cfg Config, name string, g *graph.Graph, sources []int32) *Failure {
	n := g.NumVertices()
	fail := func(check, format string, args ...any) *Failure {
		return &Failure{Check: check, Inst: name, Detail: fmt.Sprintf(format, args...), G: g, Sources: sources}
	}

	// Generations alternate between the instance and a uniformly weight-scaled
	// copy, making cross-generation leakage observable.
	var version atomic.Int64
	loader := func() (*graph.Graph, *ch.Hierarchy, error) {
		gg := g
		if version.Add(1)%2 == 0 {
			var err error
			if gg, err = doubledWeights(g); err != nil {
				return nil, nil, err
			}
		}
		return gg, ch.BuildKruskal(gg), nil
	}
	cat := catalog.New(catalog.Config{
		QueryWorkers: 2,
		Engine:       engine.Config{CacheEntries: 8, Solvers: cfg.Solvers},
		Logf:         func(string, ...any) {},
	})
	defer cat.Close()
	src := catalog.Source{Loader: loader}
	if _, err := cat.Load("main", src); err != nil {
		return fail("catalog-lifecycle", "load main: %v", err)
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
	// against Dijkstra on that generation's graph.
	ctx := context.Background()
	verifyOn := func(gen *catalog.Generation, s int32, label string) {
		res, _, err := gen.Engine.Query(ctx, engine.Request{Sources: []int32{s}})
		if err != nil {
			report(fail("catalog-query", "%s gen %d src %d: %v", label, gen.Gen, s, err))
			return
		}
		want := dijkstra.SSSP(gen.G, s)
		if v := vectorDiff(res, want); v >= 0 {
			report(fail("catalog-query", "%s gen %d src %d: d[%d] = %d, want %d (stale or mixed generation)",
				label, gen.Gen, s, v, res.At(v), want[v]))
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
				verifyOn(gen, srcs[(w+i)%len(srcs)], "main")
				release()
			}
		}(w)
	}

	// Admin churn on a second name, concurrent with the queriers: load,
	// acquire-and-verify, unload, wait out the drain, repeat. Every call must
	// succeed: nothing else touches the name.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if _, err := cat.Load("aux", src); err != nil {
				report(fail("catalog-lifecycle", "load aux: %v", err))
				return
			}
			gen, release, err := cat.Acquire("aux")
			if err != nil {
				report(fail("catalog-acquire", "aux ready but acquire failed: %v", err))
				return
			}
			verifyOn(gen, srcs[i%len(srcs)], "aux")
			release()
			if err := cat.Unload("aux"); err != nil {
				report(fail("catalog-lifecycle", "unload aux: %v", err))
				return
			}
			<-gen.Drained() // the next Load retries from evicted
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

// doubledWeights copies the graph with every weight doubled (capped at
// graph.MaxWeight — both arcs of an edge cap identically, so symmetry
// holds). Shortest-path trees differ from the original whenever the cap
// bites unevenly across paths, and distances differ always, which is what
// makes stale-generation reads visible.
func doubledWeights(g *graph.Graph) (*graph.Graph, error) {
	offsets := append([]int64(nil), g.AdjOffsets()...)
	targets := append([]int32(nil), g.Targets()...)
	ws := g.Weights()
	weights := make([]uint32, len(ws))
	for i, w := range ws {
		w2 := w * 2
		if w2 > graph.MaxWeight {
			w2 = graph.MaxWeight
		}
		weights[i] = w2
	}
	g2, err := graph.FromCSR(offsets, targets, weights)
	if err != nil {
		return nil, errors.New("stress: doubled-weight copy invalid: " + err.Error())
	}
	return g2, nil
}
