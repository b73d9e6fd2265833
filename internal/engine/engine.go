package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/deltastep"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/trace"
)

// ErrBadQuery marks request errors (out-of-range vertices, unknown or
// inapplicable solvers) that a serving layer should map to a 4xx status,
// as opposed to context cancellation.
var ErrBadQuery = errors.New("bad query")

// Config parameterizes an Engine. The zero value is usable: cache disabled,
// 4 batch workers, the full solver registry.
type Config struct {
	// CacheEntries bounds the number of cached result vectors; 0 disables
	// the cache entirely.
	CacheEntries int
	// CacheBytes bounds the summed size of cached vectors (distances plus
	// any materialized JSON form); 0 means entry-count-bounded only.
	CacheBytes int64
	// BatchWorkers is the concurrency of Batch (default 4). Each worker
	// drives whole queries, and a query runs on that one goroutine: exec
	// delta-stepping and exec Thorup use no parallel loop (DESIGN.md §5,
	// decisions 9 and 11). Only BFS and the one-off s-t index build run
	// loops on the instance's runtime. It does not decide how many solves run
	// at once: a solver's slots do (see Engine).
	BatchWorkers int
	// Solvers overrides the solver pool (default solver.All()). Tests and
	// harnesses may append instrumented or fault-injected variants.
	Solvers []solver.Solver
}

// Engine executes SSSP queries on every generation of one graph with
// deduplication, caching, and batching, each solve in one of its solver's
// runtime.GOMAXPROCS(0) slots: its counters, slots of (graph-free) solver
// states and result cache outlive a swap. Safe for concurrent use.
type Engine struct {
	cfg     Config
	solvers []solver.Solver
	exec    map[string]*slots // per solver: its slots and run count
	cache   *slru
	p2p     solver.PointToPoint // what answers a targeted request (Query)

	counters *obs.Group

	traceAgg   core.Trace  // aggregate of the Thorup runs' traces
	thorupRuns obs.Counter // Thorup runs folded into traceAgg

	// Bucket-ring activity summed over the delta-stepping runs.
	deltaRefills, deltaOverflowScanned obs.Counter
}

// Gen is one generation of an engine's graph: the instance Query and Batch
// on it run on, whatever the engine has swapped to since, and the executions
// in flight there. Only a query on the generation the engine serves reads or
// fills the cache.
type Gen struct {
	*Engine
	in     *solver.Instance
	flight flightGroup
	// The settles one targeted request's searches may spend between them, and
	// the repair of a pending inherited answer before its hit solves instead.
	targetBudget, repairBudget int
}

// slots is how the engine executes one solver: at most cap(free) slots, one
// a processor, each holding a state its registry entry constructs, made when
// no slot is free and then kept; and how many runs they have served. A solve
// holds one slot while it runs, so no more solves of the solver run at once
// than there are processors: a solve runs on one goroutine, and more in
// flight than cores add no throughput, only states.
type slots struct {
	free     chan *slot   // the slots made that no solve holds
	made     atomic.Int32 // slots made so far
	newState func() any   // solver.State; solver.PointSearch for the point-to-point entry
	runs     obs.Counter
	bytes    atomic.Int64 // what the slots' states hold, summed over their slot.bytes
}

// slot is one of a solver's slots: its state and the bytes that state held
// when it was last freed (see sized).
type slot struct {
	st    any
	bytes int64
}

func newSlots(newState func() any) *slots {
	return &slots{free: make(chan *slot, runtime.GOMAXPROCS(0)), newState: newState}
}

// take returns a free slot, a new one if every slot made is held and fewer
// than cap(free) are, or else waits for one, counting the wait in waits; nil
// once ctx ends first.
func (p *slots) take(ctx context.Context, waits *obs.Counter) *slot {
	select {
	case s := <-p.free:
		return s
	default:
	}
	for n := p.made.Load(); n < int32(cap(p.free)); n = p.made.Load() {
		if p.made.CompareAndSwap(n, n+1) {
			return &slot{st: p.newState()}
		}
	}
	waits.Inc()
	select {
	case s := <-p.free:
		return s
	case <-ctx.Done():
		return nil
	}
}

// put frees s, whose state the caller has scrubbed, and counts what that
// state holds now.
func (p *slots) put(s *slot) {
	if b, ok := s.st.(sized); ok {
		n := b.Bytes()
		p.bytes.Add(n - s.bytes)
		s.bytes = n
	}
	p.free <- s
}

// A targeted request's searches may settle n/targetBudgetShare vertices
// between them before it becomes a full solve (DESIGN.md §5, decision 16).
const targetBudgetShare = 32

// sized is what a state that keeps buffers between runs has beyond its
// solver's interface: what they hold.
type sized interface{ Bytes() int64 }

// tracer is what a state that keeps core.Trace phase counters (a
// Thorup query) has beyond solver.State; the engine asks by type assertion,
// so execution names no solver (DESIGN.md §5, decision 12).
type tracer interface{ Trace() *core.Trace }

// bucketed is what a delta-stepping state has beyond solver.State: the
// phase statistics of its last run.
type bucketed interface{ LastStats() deltastep.Stats }

// Counter names of Engine.Counters, in snapshot order.
const (
	cSolves               = "solves"
	cDedupHits            = "dedup_hits"
	cCacheHits            = "cache_hits"
	cCacheMisses          = "cache_misses"
	cCacheEvictions       = "cache_evictions"
	cCacheSecondReads     = "cache_second_reads"
	cBatchRequests        = "batch_requests"
	cBatchItems           = "batch_items"
	cFullJSONBuilt        = "full_json_built"
	cFullBytesFromCache   = "full_bytes_from_cache"
	cTargetedBailouts     = "targeted_bailouts"
	cInheritedExact       = "inherited_exact"
	cInheritedStale       = "inherited_stale"
	cInheritedUnread      = "inherited_unread"
	cResumed              = "resumed"
	cRepaired             = "repaired"
	cRepairBudgetExceeded = "repair_budget_exceeded"
	cResettled            = "resettled"
	cCancelled            = "cancelled"
	cSlotWaits            = "slot_waits"
)

// New creates an engine and returns its first generation, over in, which it
// serves. The hierarchy is built on first use if a Thorup query runs (or was
// already built).
func New(in *solver.Instance, cfg Config) *Gen {
	if cfg.BatchWorkers <= 0 {
		cfg.BatchWorkers = 4
	}
	solvers := cfg.Solvers
	if solvers == nil {
		solvers = solver.All()
	}
	e := &Engine{
		cfg:     cfg,
		solvers: solvers,
		exec:    make(map[string]*slots, len(solvers)+1),
		p2p:     solver.PointToPoints()[0],
		counters: obs.NewGroup(cSolves, cDedupHits, cCacheHits, cCacheMisses,
			cCacheEvictions, cCacheSecondReads, cBatchRequests, cBatchItems, cFullJSONBuilt, cFullBytesFromCache,
			cTargetedBailouts, cInheritedExact, cInheritedStale, cInheritedUnread, cResumed, cRepaired,
			cRepairBudgetExceeded, cResettled, cCancelled, cSlotWaits),
	}
	e.exec[e.p2p.Name] = newSlots(func() any { return e.p2p.NewState() })
	for _, s := range solvers {
		e.exec[s.Name] = newSlots(func() any { return s.NewState() })
	}
	e.cache = newSLRU(cfg.CacheEntries, cfg.CacheBytes, e.counters.C(cCacheEvictions), e.counters.C(cCacheSecondReads))
	g := e.Next(in)
	g.Swap(nil)
	return g
}

// Next makes a generation of the graph over in, a reload's or a write's; it
// serves from its Swap.
func (e *Engine) Next(in *solver.Instance) *Gen {
	n := in.G.NumVertices()
	return &Gen{
		Engine:       e,
		in:           in,
		flight:       flightGroup{calls: make(map[string]*flightCall)},
		targetBudget: n / targetBudgetShare,
		repairBudget: max(n/repairBudgetShare, minRepairBudget),
	}
}

// Swap makes g the generation the engine serves. With inh, g's Inherit,
// every answer the cache holds crosses in its slot; without (a reload), the
// cache empties. It returns how many answers crossed exact and pending, and
// how many of them no query had read.
func (g *Gen) Swap(inh *Inheritance) (exact, pending, unread int) {
	if inh == nil {
		inh = &Inheritance{}
	}
	exact, pending, unread = g.cache.advance(inh.from, g, inh.heirs)
	g.counters.C(cInheritedExact).Add(int64(exact))
	g.counters.C(cInheritedStale).Add(int64(pending))
	g.counters.C(cInheritedUnread).Add(int64(unread))
	g.counters.C(cRepairBudgetExceeded).Add(int64(inh.over))
	return exact, pending, unread
}

// Drop empties the cache and serves no generation: the graph is out of
// service, and a query still in flight on it caches nothing.
func (e *Engine) Drop() { e.cache.advance(nil, nil, nil) }

func (e *Engine) byName(name string) (solver.Solver, bool) {
	for _, s := range e.solvers {
		if s.Name == name {
			return s, true
		}
	}
	return solver.Solver{}, false
}

// Request is one SSSP query: a non-empty source set and an optional solver
// override ("" or "auto" selects by policy).
type Request struct {
	Sources []int32
	Solver  string
	// Targets are the only vertices whose distances the caller will read (empty:
	// the full vector); the engine then chooses how much to compute (see Query).
	Targets []int32
}

// Via reports how a query was answered.
type Via int

const (
	// ViaSolve: this call executed a solver.
	ViaSolve Via = iota
	// ViaDedup: this call joined a concurrent identical query in flight.
	ViaDedup
	// ViaCache: this call was answered from the result cache.
	ViaCache
)

func (v Via) String() string {
	switch v {
	case ViaSolve:
		return "solve"
	case ViaDedup:
		return "dedup"
	case ViaCache:
		return "cache"
	default:
		return fmt.Sprintf("Via(%d)", int(v))
	}
}

// Query answers one request: cache lookup, then singleflight coalescing,
// then a solver execution in one of the solver's slots, on the caller's
// goroutine. The execution runs while the context of any caller it answers
// lives, and stops once the last has ended (see flightGroup); a stopped
// execution caches nothing. A caller whose ctx has ended gets ctx's error.
//
// A request with Targets, one source and no solver override that misses the
// cache is answered by point-to-point searches instead (a partial Result by
// "bidirectional", ViaSolve, nothing cached), unless they outgrow their budget
// — the full solve is then the cheaper plan, and the request takes that path.
//
// When the context carries a request trace (internal/trace), the stages are
// recorded as spans under the context's current span: "cache_lookup" (with a
// hit attribute; a hit on a pending inherited entry nests its "resume" there,
// see Inherit, and one whose repair outgrew its budget is a miss), then either
// "solve" (this caller was the singleflight
// leader; the wait for a slot and solver-phase counters nest under it) or
// "singleflight_wait" (this caller joined a leader's execution).
func (g *Gen) Query(ctx context.Context, req Request) (*Result, Via, error) {
	if err := ctx.Err(); err != nil {
		return nil, ViaSolve, err
	}
	name, srcs, key, err := g.plan(req)
	if err != nil {
		return nil, ViaSolve, err
	}
	parent := trace.SpanFromContext(ctx)
	parent.Trace().SetSolver(name)
	lk := parent.StartChild("cache_lookup")
	res, ok := g.cache.get(g, key)
	if ok && !res.resolve(lk) {
		g.cache.remove(res)
		ok = false
	}
	lk.SetAttr("hit", ok)
	lk.End()
	if ok {
		g.counters.C(cCacheHits).Inc()
		return res, ViaCache, nil
	}
	g.counters.C(cCacheMisses).Inc()
	if targeted(req, srcs) {
		if res := g.search(ctx, parent, srcs[0], req.Targets); res != nil {
			return res, ViaSolve, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, ViaSolve, err
		}
	}
	// The wait span is only attached when this caller actually waited on
	// another's execution; a leader's time is the solve span instead.
	wait := parent.StartChild("singleflight_wait")
	res, shared, err := g.flight.do(ctx, key, func(ectx context.Context) *Result {
		return g.solve(ectx, parent, name, srcs, key)
	})
	if shared {
		wait.End()
	}
	if err != nil {
		return nil, ViaDedup, err
	}
	if res == nil {
		return nil, ViaDedup, fmt.Errorf("engine: solver %s failed", name)
	}
	if shared {
		g.counters.C(cDedupHits).Inc()
		return res, ViaDedup, nil
	}
	return res, ViaSolve, nil
}

// plan validates the request, canonicalizes the source set (sorted, deduped
// — multi-source distances are order-independent, so equivalent requests
// share one cache key), resolves the solver by policy, and builds the key.
func (g *Gen) plan(req Request) (name string, srcs []int32, key string, err error) {
	n := g.in.G.NumVertices()
	if len(req.Sources) == 0 {
		return "", nil, "", fmt.Errorf("%w: no source vertices", ErrBadQuery)
	}
	for _, s := range req.Sources {
		if s < 0 || int(s) >= n {
			return "", nil, "", fmt.Errorf("%w: source %d out of range [0,%d)", ErrBadQuery, s, n)
		}
	}
	for _, t := range req.Targets {
		if t < 0 || int(t) >= n {
			return "", nil, "", fmt.Errorf("%w: target %d out of range [0,%d)", ErrBadQuery, t, n)
		}
	}
	srcs = append(make([]int32, 0, len(req.Sources)), req.Sources...)
	slices.Sort(srcs)
	srcs = slices.Compact(srcs)

	name, err = g.pickSolver(req.Solver)
	if err != nil {
		return "", nil, "", err
	}

	kb := make([]byte, 0, len(name)+8*len(srcs))
	kb = append(kb, name...)
	for _, s := range srcs {
		kb = append(kb, '|')
		kb = strconv.AppendInt(kb, int64(s), 10)
	}
	return name, srcs, string(kb), nil
}

// targeted reports whether req, already planned, is for the point-to-point
// searches when it misses the cache: targets, one source, no solver named.
func targeted(req Request, srcs []int32) bool {
	return len(req.Targets) > 0 && len(srcs) == 1 && (req.Solver == "" || req.Solver == "auto")
}

// begin opens one executed plan: the "solve" span (nil when untraced) naming
// solver and source count, which the caller ends, and under it
// "pool_checkout", the wait for one of the solver's slots. It counts the run
// once it holds the slot and returns the solver's slots and the one held, or a
// nil slot — counted as cancelled, never started — once ctx ended first. Cache
// hits and singleflight joiners never get here.
func (e *Engine) begin(ctx context.Context, parent *trace.Span, name string, sources int) (*slots, *slot, *trace.Span) {
	p, sp := e.exec[name], parent.StartChild("solve")
	sp.SetAttr("solver", name)
	sp.SetAttr("sources", sources)
	pc := sp.StartChild("pool_checkout")
	s := p.take(ctx, e.counters.C(cSlotWaits))
	pc.End()
	if s == nil {
		e.counters.C(cCancelled).Inc()
		sp.SetAttr("cancelled", true)
		return p, nil, sp
	}
	e.counters.C(cSolves).Inc()
	p.runs.Inc()
	return p, s, sp
}

// search answers a targeted request with one point-to-point search per target
// on one slot's state under one budget, or returns nil once a search outgrows
// what is left or ctx has ended between two searches. Either way one
// execution: its span says targets, settled, bailed.
func (g *Gen) search(ctx context.Context, parent *trace.Span, src int32, targets []int32) *Result {
	p, s, sp := g.begin(ctx, parent, g.p2p.Name, 1)
	defer sp.End()
	if s == nil {
		return nil
	}
	defer p.put(s)
	st := s.st.(solver.PointSearch)
	res := &Result{Solver: g.p2p.Name, TargetDist: make([]int64, len(targets))}
	settled := 0
	for i, t := range targets {
		if ctx.Err() != nil {
			res = nil
			break
		}
		d, k, ok := st.Distance(g.in, src, t, g.targetBudget-settled)
		settled += k
		if !ok {
			g.counters.C(cTargetedBailouts).Inc()
			res = nil
			break
		}
		res.TargetDist[i] = d
	}
	sp.SetAttr("targets", len(targets))
	sp.SetAttr("settled", settled)
	sp.SetAttr("bailed", res == nil)
	if res != nil {
		parent.Trace().SetSolver(res.Solver)
	}
	return res
}

// solve runs the named solver on the canonical source set — slot, one run on
// g's instance, detach, Reset, slot freed, cache: the same steps for every
// solver in the registry. parent is the singleflight leader's trace position:
// the execution is begin's "solve" span with its "pool_checkout" and, for a
// tracer state, the solver-phase counters of core.Trace. A run ctx stopped
// (nil), or one ctx ended before it got a slot, is counted as cancelled and
// not cached; solve then returns nil.
func (g *Gen) solve(ctx context.Context, parent *trace.Span, name string, srcs []int32, key string) *Result {
	p, s, sp := g.begin(ctx, parent, name, len(srcs))
	defer sp.End()
	if s == nil {
		return nil
	}
	st := s.st.(solver.State)
	defer p.put(s)
	defer st.Reset()
	d := st.RunFromSources(ctx, g.in, srcs)
	if d == nil {
		g.counters.C(cCancelled).Inc()
		sp.SetAttr("cancelled", true)
		return nil
	}
	res := &Result{Solver: name, g: g, key: key}
	res.detach(d)
	if t, ok := st.(tracer); ok {
		snap := t.Trace().Snapshot()
		g.traceAgg.Merge(snap)
		g.thorupRuns.Inc()
		if sp != nil {
			for k, v := range snap.AttrMap() {
				sp.SetAttr(k, v)
			}
		}
	}
	if b, ok := st.(bucketed); ok {
		stats := b.LastStats()
		g.deltaRefills.Add(int64(stats.Refills))
		g.deltaOverflowScanned.Add(stats.OverflowScanned)
		if sp != nil {
			sp.SetAttr("delta", g.in.Delta)
			sp.SetAttr("refills", stats.Refills)
			sp.SetAttr("overflow_scanned", stats.OverflowScanned)
		}
	}
	g.cache.add(res)
	return res
}

// InstanceBytes is the memory footprint of one Thorup query instance over the
// hierarchy g holds (arithmetic on its dimensions), 0 with none: nothing is
// built.
func (g *Gen) InstanceBytes() int64 {
	if h, _, _ := g.in.HierarchyState(); h != nil {
		return core.NewSolver(h, g.in.RT).InstanceBytes()
	}
	return 0
}

// Delta is the bucket width delta-stepping runs with on g.
func (g *Gen) Delta() int64 { return g.in.Delta }

// DeltaRing returns how often the delta-stepping runs so far refilled their
// bucket ring from the overflow list, and how many overflow entries that
// scanned.
func (e *Engine) DeltaRing() (refills, overflowScanned int64) {
	return e.deltaRefills.Value(), e.deltaOverflowScanned.Value()
}

// Counter returns the named engine counter's value (see the c* constants'
// snapshot names: "solves", "dedup_hits", "cache_hits", ...). Unknown names
// panic.
func (e *Engine) Counter(name string) int64 { return e.counters.C(name).Value() }

// SolverRuns returns how many executions each solver performed.
func (e *Engine) SolverRuns() map[string]int64 {
	out := make(map[string]int64, len(e.exec))
	for name, p := range e.exec {
		out[name] = p.runs.Value()
	}
	return out
}

// ThorupTrace returns the aggregate trace of all Thorup executions
// and how many runs it covers.
func (e *Engine) ThorupTrace() (core.Trace, int64) {
	return e.traceAgg.Snapshot(), e.thorupRuns.Value()
}

// CacheBytes is what the result cache holds now: its vectors, keys and
// materialised JSON, as charged against Config.CacheBytes, and the history
// of keys it evicted.
func (e *Engine) CacheBytes() int64 { return e.cache.held() }

// SlotBytes is what the solver states kept in the engine's slots hold, as of
// when each was last freed.
func (e *Engine) SlotBytes() int64 {
	var b int64
	for _, p := range e.exec {
		b += p.bytes.Load()
	}
	return b
}

// StatsSnapshot returns the engine's observable state, shaped for a JSON
// /metrics endpoint: every counter, the cache's current and maximum sizes,
// and per-solver run counts.
func (e *Engine) StatsSnapshot() map[string]any {
	out := make(map[string]any, 16)
	for k, v := range e.counters.Snapshot() {
		out[k] = v
	}
	entries, _ := e.cache.size()
	out["cache_entries"] = entries
	out["cache_bytes"] = e.CacheBytes()
	out["cache_max_entries"] = e.cfg.CacheEntries
	out["cache_max_bytes"] = e.cfg.CacheBytes
	out["slot_bytes"] = e.SlotBytes()
	out["solver_runs"] = e.SolverRuns()
	return out
}
