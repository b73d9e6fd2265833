package stress

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/dijkstra"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/solver"
)

// checkTargeted is the differential oracle of the engine's targeted plans
// (engine.Request.Targets): whatever the engine decides to compute for a
// request — point-to-point searches, a full solve after the searches outgrew
// their budget, a cached vector — every target's answer must be that entry of
// Dijkstra's full vector.
//
// It runs on the instance as generated and on the instance plus the shapes a
// bidirectional search can get wrong: an isolated vertex, a two-vertex
// component, a parallel arc, and a pendant vertex behind one arc of the
// heaviest weight there is (where alternating on the smaller frontier key
// would degenerate to a one-sided search). Requests name s = t, unreachable
// and duplicate targets, and start from the odd vertices too. The budget is
// the engine's own n/32, which on graphs this small nearly every search
// outgrows; so the second graph runs once more padded with isolated vertices
// to 64 times its size, where n/32 is more than the two sides of a search can
// settle and no request for one target gives up (checked where no cached
// vector can answer it first). Each engine runs with and without a result
// cache, all of its requests at once, so the pooled search state is shared
// between goroutines under the race detector. The pooled state itself is then
// run at budgets of one settled vertex and none, in turn on one state: a
// search that gave up leaves nothing behind for the next.
func checkTargeted(cfg Config, rt par.Runtime, name string, g *graph.Graph, sources []int32) *Failure {
	fail := func(format string, args ...any) *Failure {
		return &Failure{Check: "targeted", Inst: name, Detail: fmt.Sprintf(format, args...), G: g, Sources: sources}
	}
	n, s := int32(g.NumVertices()), sources[0]
	isolated, pairA, pairB, pendant := n, n+1, n+2, n+3
	augmented := func(size int32) *graph.Graph {
		b := graph.NewBuilder(int(size))
		for _, e := range g.Edges() {
			b.MustAddEdge(e.U, e.V, e.W)
		}
		b.MustAddEdge(pairA, pairB, 5)
		b.MustAddEdge((s+1)%n, pendant, graph.MaxWeight)
		if ts, ws := g.Neighbors(s); len(ts) > 0 {
			b.MustAddEdge(s, ts[0], ws[0]/2+1) // a parallel arc, the lighter of the two where it can be
		}
		return b.Build()
	}

	type request struct{ src, targets []int32 }
	r := rng.New(uint64(s) ^ 0x7a67e7)
	sampled := []int32{s}
	for k := 0; k < cfg.Targets; k++ {
		sampled = append(sampled, int32(r.Intn(int(n))))
	}
	sampled = append(sampled, sampled[1]) // a duplicate target
	far := int32(r.Intn(int(n)))
	odd := []request{
		{[]int32{s}, append([]int32{isolated, pairA, pendant}, sampled...)},
		{[]int32{pairA}, []int32{pairB, s, pairA}},
		{[]int32{pendant}, []int32{s, far, pendant}},
		{[]int32{isolated}, []int32{s, isolated}},
	}
	for _, tc := range []struct {
		what string
		g    *graph.Graph
		reqs []request
	}{
		{"generated", g, []request{{[]int32{s}, sampled}}},
		{"augmented", augmented(n + 4), odd},
		{"padded", augmented(64 * (n + 4)), odd},
	} {
		in := solver.NewInstance(tc.g, rt)
		// Every target also as a request of its own: a list shares one budget.
		reqs := append([]request(nil), tc.reqs...)
		for _, q := range tc.reqs {
			for _, t := range q.targets {
				reqs = append(reqs, request{q.src, []int32{t}})
			}
		}
		want := make(map[int32][]int64)
		for _, q := range reqs {
			if want[q.src[0]] == nil {
				want[q.src[0]] = dijkstra.SSSP(tc.g, q.src[0])
			}
		}
		for _, cacheEntries := range []int{0, 8} {
			e := engine.New(in, engine.Config{CacheEntries: cacheEntries, Solvers: cfg.Solvers})
			// All of the engine's requests at once; checked when they are done.
			type answer struct {
				res *engine.Result
				err error
			}
			answers := make([]answer, len(reqs))
			var wg sync.WaitGroup
			for i, q := range reqs {
				wg.Add(1)
				go func(i int, q request) {
					defer wg.Done()
					res, _, err := e.Query(context.Background(), engine.Request{Sources: q.src, Targets: q.targets})
					answers[i] = answer{res, err}
				}(i, q)
			}
			wg.Wait()
			for i, q := range reqs {
				res, err := answers[i].res, answers[i].err
				if err != nil {
					return fail("%s graph, cache %d: st(%d,%v): %v", tc.what, cacheEntries, q.src[0], q.targets, err)
				}
				if tc.what == "padded" && cacheEntries == 0 && len(q.targets) == 1 && res.Solver != "bidirectional" {
					return fail("%s graph, cache %d: st(%d,%v) answered by %s", tc.what, cacheEntries, q.src[0], q.targets, res.Solver)
				}
				for j, t := range q.targets {
					if got := res.Target(j, t); got != want[q.src[0]][t] {
						return fail("%s graph, cache %d: st(%d,%d) = %d by %s, reference %d",
							tc.what, cacheEntries, q.src[0], t, got, res.Solver, want[q.src[0]][t])
					}
				}
			}
		}

		search := solver.PointToPoints()[0].NewState()
		for _, q := range reqs {
			for _, budget := range []int{1, math.MaxInt} {
				t := q.targets[0]
				d, settled, ok := search.Distance(in, q.src[0], t, budget)
				if settled > budget || (!ok && budget != 1) || (ok && d != want[q.src[0]][t]) {
					return fail("%s graph, search state at budget %d: st(%d,%d) = %d (settled %d, ok %v), reference %d",
						tc.what, budget, q.src[0], t, d, settled, ok, want[q.src[0]][t])
				}
			}
		}
	}
	return nil
}
