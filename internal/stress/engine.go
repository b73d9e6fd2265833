package stress

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/dijkstra"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/solver"
	"repro/internal/trace"
)

// checkEngine drives the query-execution engine (internal/engine) with a
// concurrent mixed workload over one shared instance — duplicate queries
// racing into the singleflight, repeats hitting the LRU cache, explicit
// per-solver requests exercising every pooled fast path, a batch running
// beside the live queries, and half the queries under a deadline of at most
// 200 µs, which ends some before, during or after their solve — and verifies
// every answer against Dijkstra, also that of a query asked again after its
// deadline: no stopped solve cached a partial vector. Meaningful under
// -race, like the other concurrency stages; it runs after the differential
// stage, so a deliberately broken injected solver trips that oracle first.
func checkEngine(cfg Config, name string, g *graph.Graph, sources []int32, in *solver.Instance) *Failure {
	n := g.NumVertices()
	e := engine.New(in, engine.Config{CacheEntries: 8, BatchWorkers: 2, Solvers: cfg.Solvers})
	// Every query runs traced with a deliberately tiny ring, so the tracing
	// layer shares this stage's race coverage: concurrent span recording on
	// the dedup path (followers and leader touch the same trace tree) and
	// concurrent ring writes far past its capacity.
	tracer := trace.New(trace.Config{
		SampleN: 1, RingSize: 4, SlowQuery: time.Nanosecond,
		Logf: func(string, ...any) {},
	})

	oracle := func(srcs []int32) []int64 {
		out := dijkstra.SSSP(g, srcs[0])
		for _, s := range srcs[1:] {
			for v, d := range dijkstra.SSSP(g, s) {
				if d < out[v] {
					out[v] = d
				}
			}
		}
		return out
	}

	type job struct {
		label    string
		req      engine.Request
		want     []int64
		deadline time.Duration
	}
	var jobs []job
	r := rng.New(uint64(sources[0]) ^ 0xdead11e)
	add := func(label string, req engine.Request) {
		j := job{label: label, req: req, want: oracle(req.Sources), deadline: time.Hour}
		if r.Intn(2) == 0 {
			j.deadline = time.Duration(1+r.Intn(200)) * time.Microsecond
		}
		jobs = append(jobs, j)
	}
	srcs := raceSources(sources[0], n)
	for _, s := range srcs {
		// Three copies of each query race into the dedup/cache layers.
		for c := 0; c < 3; c++ {
			add(fmt.Sprintf("auto(src=%d)", s), engine.Request{Sources: []int32{s}})
		}
	}
	for _, s := range cfg.Solvers {
		if s.Applicable(g) {
			add("explicit("+s.Name+")",
				engine.Request{Sources: []int32{sources[0]}, Solver: s.Name})
		}
	}
	if len(sources) > 1 {
		add(fmt.Sprintf("multi(%v)", sources), engine.Request{Sources: sources})
	}

	fail := func(check, format string, args ...any) *Failure {
		return &Failure{Check: check, Inst: name, Detail: fmt.Sprintf(format, args...), G: g, Sources: sources}
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

	ctx := context.Background()
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			tr := tracer.StartRequest("", "stress")
			qctx, cancel := context.WithTimeout(trace.NewContext(ctx, tr), j.deadline)
			defer cancel()
			res, _, err := e.Query(qctx, j.req)
			tracer.Finish(tr, 200)
			if errors.Is(err, context.DeadlineExceeded) {
				j.label += ", asked again after its deadline"
				res, _, err = e.Query(ctx, j.req)
			}
			if err != nil {
				report(fail("engine-mixed", "%s: %v", j.label, err))
				return
			}
			if v := vectorDiff(res, j.want); v >= 0 {
				report(fail("engine-mixed", "%s: d[%d] = %d, want %d", j.label, v, res.At(v), j.want[v]))
			}
		}(j)
	}
	// One batch runs beside the live queries, sharing cache and flights.
	wg.Add(1)
	go func() {
		defer wg.Done()
		reqs := make([]engine.Request, len(jobs))
		for i, j := range jobs {
			reqs[i] = j.req
		}
		tr := tracer.StartRequest("", "stress-batch")
		results := e.Batch(trace.NewContext(ctx, tr), reqs)
		tracer.Finish(tr, 200)
		for i, br := range results {
			if br.Err != nil {
				report(fail("engine-mixed", "batch %s: %v", jobs[i].label, br.Err))
				continue
			}
			if v := vectorDiff(br.Res, jobs[i].want); v >= 0 {
				report(fail("engine-mixed", "batch %s: d[%d] = %d, want %d",
					jobs[i].label, v, br.Res.At(v), jobs[i].want[v]))
			}
		}
	}()
	wg.Wait()
	if first != nil {
		return first
	}
	// Structural invariant of the trace ring: concurrent writers overflowed a
	// 4-slot ring many times over, yet retention never exceeds the bound.
	if held := tracer.Retained(); held > 4 {
		return fail("engine-trace", "trace ring holds %d entries, bound is 4", held)
	}
	if started := tracer.Counter("traces_started"); started != int64(len(jobs))+1 {
		return fail("engine-trace", "traces_started = %d, want %d", started, len(jobs)+1)
	}
	return first
}

// vectorDiff is firstDiff for an engine result, read through its accessor.
func vectorDiff(res *engine.Result, want []int64) int {
	for v := range want {
		if res.At(v) != want[v] {
			return v
		}
	}
	return -1
}
