package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/bfs"
	"repro/internal/catalog"
	"repro/internal/ch"
	"repro/internal/core"
	"repro/internal/deltastep"
	"repro/internal/dijkstra"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mlb"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/solver"
	"repro/internal/trace"
)

// fleet is the set of daemons the query rungs talk to, all on the big graph
// except the one that takes mutations.
type fleet struct {
	direct  *daemon // ssspd, default flags
	traced  *daemon // ssspd retaining every trace, for closure and overhead
	backend *daemon // ssspd behind the router
	router  *daemon // ssspr in front of backend
	writer  *daemon // ssspd on the small snapshot
}

func (f *fleet) stop() {
	for _, d := range []*daemon{f.direct, f.traced, f.backend, f.router, f.writer} {
		if d != nil {
			d.stop()
		}
	}
}

// startFleet boots the ladder's daemons side by side and waits for each to
// answer. probe is a source no rung uses, so the router's readiness check
// leaves the rungs' sources uncached.
func (l *ladder) startFleet(ctx context.Context, c *http.Client, big, small *instance, probe int) (*fleet, error) {
	s := l.s
	f := &fleet{}
	var err error
	start := func(dst **daemon, log string, port int, bin string, args ...string) {
		if err == nil {
			*dst, err = spawn(s.work, bin, log, s.addr(port), append([]string{"-addr", s.addr(port)}, args...)...)
		}
	}
	table := fmt.Sprintf(`{"v":1,"backends":[{"name":"b1","url":"http://%s"}]}`, s.addr(3))
	if werr := os.WriteFile(filepath.Join(s.work, "fleet.json"), []byte(table), 0o644); werr != nil {
		return nil, werr
	}
	start(&f.direct, "ladder-direct.log", 1, s.ssspd, "-graph", big.file)
	start(&f.traced, "ladder-traced.log", 2, s.ssspd, "-graph", big.file, "-trace-sample", "1", "-trace-ring", "4096")
	start(&f.backend, "ladder-backend.log", 3, s.ssspd, "-graph", big.file)
	start(&f.writer, "ladder-writer.log", 5, s.ssspd, "-snapshot", small.file)
	if err != nil {
		f.stop()
		return nil, err
	}
	for _, d := range []*daemon{f.direct, f.traced, f.backend, f.writer} {
		if _, err := awaitAnswer(ctx, c, d, d.url+"/healthz"); err != nil {
			f.stop()
			return nil, err
		}
	}
	// The router goes last: it primes its view of the backend at start-up.
	start(&f.router, "ladder-router.log", 4, s.ssspr, "-table", "fleet.json", "-default-graph", big.file)
	if err == nil {
		_, err = awaitAnswer(ctx, c, f.router, fmt.Sprintf("%s/sssp?src=%d", f.router.url, probe))
	}
	if err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// unitTwin is g with every weight 1: the instance the BFS kernel applies to.
func unitTwin(g *graph.Graph) (*graph.Graph, error) {
	ones := make([]uint32, len(g.Weights()))
	for i := range ones {
		ones[i] = 1
	}
	return graph.FromCSR(append([]int64(nil), g.AdjOffsets()...), append([]int32(nil), g.Targets()...), ones)
}

var scanSink int64 // keeps the compiler from dropping the scan

// scanGraph reads every offset, target and weight once.
func scanGraph(g *graph.Graph) {
	var sum int64
	for v := 0; v < g.NumVertices(); v++ {
		ts, ws := g.Neighbors(int32(v))
		for j, t := range ts {
			sum += int64(t) + int64(ws[j])
		}
	}
	scanSink += sum
}

// queryRungs climbs from a bare CSR scan to a routed HTTP request, running
// every rung on the same seeded source before moving to the next source.
func (l *ladder) queryRungs(big, small *instance, seed uint64, ids int) error {
	g := big.g
	n := g.NumVertices()
	perm := rngPerm(seed, streamLadder, n)
	take := func(k int) []int32 { // the next k unused seeded vertices
		out := make([]int32, k)
		for i := range out {
			out[i] = int32(perm[0])
			perm = perm[1:]
		}
		return out
	}
	probe := take(1)[0]

	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(ids+4)*hardTimeout)
	defer cancel()
	client := newClient()
	defer client.CloseIdleConnections()
	var f *fleet
	if err := l.guard("daemons", func() (err error) {
		f, err = l.startFleet(ctx, client, big, small, int(probe))
		return err
	}); err != nil {
		return err
	}
	defer f.stop()

	h := ch.BuildKruskal(g)
	unit, err := unitTwin(g)
	if err != nil {
		return err
	}
	rt := par.NewExec(daemonWorkers)
	eng := engine.New(solver.NewInstanceWithHierarchy(g, rt, h),
		engine.Config{CacheEntries: 256, CacheBytes: 64 << 20, BatchWorkers: daemonWorkers}) // ssspd's defaults
	thorup := core.NewSolver(h, rt)
	q, tq := thorup.Query(), thorup.Query()
	tq.EnableTrace()
	scratch, dstate, delta := dijkstra.NewScratch(), deltastep.NewState(), deltastep.DefaultDelta(g)
	scanBytes := float64(8*(n+1)) + 8*float64(g.NumArcs())

	cat := catalog.New(catalog.Config{Logf: func(string, ...any) {}})
	defer cat.Close()
	if _, err := cat.AddPrebuilt("ladder", catalog.Source{}, g, h, nil); err != nil {
		return err
	}

	heavy := ids / 4 // the 16-query rungs cost seconds each; a quarter of the ids, at least 3
	if heavy < 3 {
		heavy = 3
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var mem0, mem1 runtime.MemStats

	for i := 0; i < ids; i++ {
		src := take(1)[0]
		others := take(multiSources - 1)
		dedupSrc := take(1)[0]
		err := l.guard(fmt.Sprintf("source %d", src), func() error {
			d := l.timed("graph.scan", "", i, "ms", func() { scanGraph(g) })
			l.add("graph.scan_gbps", scanBytes/d.Seconds()/1e9)

			// Bare kernels. Each is the steady-state form the engine runs:
			// state reused across queries, the daemon's worker count.
			kernels := []struct {
				solver, rung string
				run          func()
			}{
				{"dijkstra", "dijkstra.sssp", func() { scratch.SSSP(g, src) }},
				{"mlb", "mlb.sssp", func() { mlb.SSSP(g, src) }},
				{"delta", "deltastep.sssp", func() { dstate.Run(rt, g, src, delta) }},
				{"bfs", "bfs.sssp", func() { bfs.Parallel(rt, unit, src) }},
				{"thorup-serial", "core.thorup_serial", func() { core.SerialSSSP(h, src) }},
				{"thorup", "core.thorup_par", func() { q.Reset(); q.Run(src) }},
			}
			before := map[string]time.Duration{}
			for _, k := range kernels {
				runtime.ReadMemStats(&mem0)
				before[k.solver] = l.timed(k.rung, "", i, "ms", k.run)
				runtime.ReadMemStats(&mem1)
				if k.solver == "thorup" { // ROADMAP item 1's gate: allocation per pooled Reset+Run
					l.add("core.thorup_pooled_allocs", float64(mem1.Mallocs-mem0.Mallocs))
					l.add("core.thorup_pooled_kb", float64(mem1.TotalAlloc-mem0.TotalAlloc)/1024)
				}
			}
			l.timed("core.thorup_multi4", "", i, "ms", func() { q.RunFromSources(append([]int32{src}, others...)) })
			tq.Run(src) // counted, not timed: the counters cost atomics
			tr := tq.Trace().Snapshot()
			l.add("core.settled", float64(tr.Settled))
			if tr.GatherScanned > 0 {
				l.add("core.gather_useful_ratio", float64(tr.GatherTaken)/float64(tr.GatherScanned))
			}
			l.add("core.hops_per_relaxation", tr.HopsPerRelaxation())
			if i < heavy {
				many := take(16)
				l.timed("core.run_many16", "", i, "ms", func() { thorup.RunMany(many) })
			}

			// The engine around the kernel the policy picks.
			var (
				res    *engine.Result
				via    engine.Via
				err    error
				picked time.Duration
			)
			req := engine.Request{Sources: []int32{src}}
			runtime.ReadMemStats(&mem0)
			miss := l.timed("engine.query_miss", "ssspd.http_miss", i, "ms", func() { res, via, err = eng.Query(ctx, req) })
			runtime.ReadMemStats(&mem1)
			if err != nil || via != engine.ViaSolve {
				return fmt.Errorf("engine miss: via=%v err=%v", via, err)
			}
			l.add("engine.miss_allocs", float64(mem1.Mallocs-mem0.Mallocs))
			// Self time by subtraction needs the same machine state on both
			// sides: a second run on one source finds the caches warm. So the
			// picked kernel runs once more after the engine did (that span
			// names the miss as its parent), and the engine's time is
			// compared with the mean of the two.
			for _, k := range kernels {
				if k.solver == res.Solver {
					picked = (before[k.solver] + l.timed(k.rung, "engine.query_miss", i, "ms", k.run)) / 2
					l.add("engine.self_ms", ms(miss-picked))
				}
			}
			l.timed("engine.distjson", "ssspd.full_json", i, "ms", func() { res.DistJSON() })
			hit := l.timed("engine.query_hit", "ssspd.http_hit", i, "us", func() { _, via, err = eng.Query(ctx, req) })
			if err != nil || via != engine.ViaCache {
				return fmt.Errorf("engine hit: via=%v err=%v", via, err)
			}
			l.timed("engine.query_dedup", "", i, "ms", func() {
				var wg sync.WaitGroup
				for k := 0; k < 2; k++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						eng.Query(ctx, engine.Request{Sources: []int32{dedupSrc}}) // same answer as the miss path; only the wall time is wanted
					}()
				}
				wg.Wait()
			})
			if i < heavy {
				reqs := make([]engine.Request, 16)
				for k, v := range take(16) {
					reqs[k] = engine.Request{Sources: []int32{v}}
				}
				l.timed("engine.batch16", "", i, "ms", func() { eng.Batch(ctx, reqs) })
			}
			l.timed("catalog.acquire", "ssspd.http_hit", i, "us", func() {
				_, release, aerr := cat.Acquire("ladder")
				if aerr == nil {
					release()
				}
				err = aerr
			})
			if err != nil {
				return err
			}

			// The same source over loopback: direct, traced, and routed. The
			// daemons sat idle while the rungs above ran; an untimed ping
			// first makes the timed request measure serving, not waking up.
			for _, d := range []*daemon{f.direct, f.traced, f.backend, f.router} {
				if _, _, err := get(ctx, client, d.url+"/healthz"); err != nil {
					return err
				}
			}
			path := fmt.Sprintf("/sssp?src=%d", src)
			httpMiss, err := l.request(ctx, client, "ssspd.http_miss", "router.http_miss", i, "ms", f.direct.url+path, "solve")
			if err != nil {
				return err
			}
			if picked > 0 {
				l.add("ladder.kernel_share_ratio", picked.Seconds()/httpMiss.Seconds())
			}
			httpHit, err := l.request(ctx, client, "ssspd.http_hit", "router.http_hit", i, "us", f.direct.url+path, "cache")
			if err != nil {
				return err
			}
			l.add("ssspd.self_us", us(httpHit-hit))
			if _, err := l.request(ctx, client, "ssspd.full_json", "", i, "ms", f.direct.url+path+"&full=1", "cache"); err != nil {
				return err
			}
			if _, err := l.request(ctx, client, "ssspd.http_miss_traced", "", i, "ms", f.traced.url+path, "solve"); err != nil {
				return err
			}
			if _, err := l.request(ctx, client, "router.http_miss", "", i, "ms", f.router.url+path, "solve"); err != nil {
				return err
			}
			routedHit, err := l.request(ctx, client, "router.http_hit", "", i, "us", f.router.url+path, "cache")
			if err != nil {
				return err
			}
			l.add("router.hop_us", us(routedHit-httpHit))
			return nil
		})
		if err != nil {
			return err
		}
	}

	return l.guard("traces and writes", func() error {
		untraced, traced := median(l.samples["ssspd.http_miss_ms"]), median(l.samples["ssspd.http_miss_traced_ms"])
		l.add("ssspd.trace_overhead_pct", 100*(traced-untraced)/untraced)
		if err := l.traceClosure(ctx, client, f.traced); err != nil {
			return err
		}
		// Writes over HTTP, in the churn workload's 3:1 cycle.
		model := newEdgeModel(small.g, rng.NewStream(seed, streamWrites))
		for i := 0; i < mutateReps; i++ {
			body, err := json.Marshal(model.nextBatch(i%4 == 3))
			if err != nil {
				return err
			}
			var (
				resp   []byte
				status int
			)
			l.timed("ssspd.http_mutate", "", i, "ms", func() {
				resp, status, err = do(ctx, client, "POST", f.writer.url+"/graphs/"+small.file+"/mutate", body)
			})
			var m mutateResp
			if err != nil || status != http.StatusOK || json.Unmarshal(resp, &m) != nil || m.Status != "mutated" {
				return fmt.Errorf("mutate over HTTP: status %d err %v body %s", status, err, resp)
			}
		}
		return nil
	})
}

// request times one GET as the rung `name` and checks how it was answered.
func (l *ladder) request(ctx context.Context, c *http.Client, name, parent string, id int, unit, url, wantVia string) (time.Duration, error) {
	var (
		body   []byte
		status int
		err    error
	)
	d := l.timed(name, parent, id, unit, func() { body, status, err = get(ctx, c, url) })
	var a answer
	if err != nil || status != http.StatusOK || json.Unmarshal(body, &a) != nil || a.Via != wantVia {
		if len(body) > 200 {
			body = body[:200]
		}
		return 0, fmt.Errorf("%s: GET %s: status %d via %q (want %q) err %v body %s", name, url, status, a.Via, wantVia, err, body)
	}
	return d, nil
}

// traceClosure reads back the traces the traced daemon retained and records,
// per trace, the share of the request's wall time its stage spans account
// for. A low ratio means the daemon's own layer-by-layer story has a hole.
func (l *ladder) traceClosure(ctx context.Context, c *http.Client, d *daemon) error {
	body, status, err := get(ctx, c, d.url+"/debug/traces?limit=4096")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("GET /debug/traces: status %d: %v", status, err)
	}
	var doc struct {
		Traces []trace.TraceJSON `json:"traces"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("GET /debug/traces: %w", err)
	}
	for _, t := range doc.Traces {
		if t.Endpoint != "sssp" || t.Spans == nil || t.Spans.DurUS == 0 {
			continue
		}
		var stages int64
		for _, ch := range t.Spans.Children {
			stages += ch.DurUS
		}
		l.add("ssspd.trace_closure_ratio", float64(stages)/float64(t.Spans.DurUS))
	}
	if len(l.samples["ssspd.trace_closure_ratio"]) == 0 {
		return fmt.Errorf("the traced daemon retained no /sssp trace")
	}
	return nil
}
