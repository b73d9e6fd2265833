package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"

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

// Config parameterizes an Engine. The zero value is usable: pooling on,
// cache disabled, 4 batch workers, the full solver registry.
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
	// loops on the instance's runtime.
	BatchWorkers int
	// Solvers overrides the solver pool (default solver.All()). Tests and
	// harnesses may append instrumented or fault-injected variants.
	Solvers []solver.Solver
	// Graph is the name this instance is served under (the catalog's graph
	// name) and Gen which generation of it this is (set by the catalog, not a
	// user option). Their only use is the prefix "Graph@Gen|" of every cache
	// and singleflight key, so results can never alias across instances even
	// if engines were ever to share storage.
	Graph string
	Gen   uint64
}

// Engine executes SSSP queries against one shared solver.Instance with
// pooling, deduplication, caching, and batching. Safe for concurrent use.
type Engine struct {
	in        *solver.Instance
	cfg       Config
	keyPrefix string // "Graph@Gen|"
	solvers   []solver.Solver
	exec      map[string]*pooled // per solver: its state pool and run count

	cache  *slru
	flight flightGroup

	// Targeted requests (Query): the point-to-point entry, and the vertices
	// one request's searches may settle between them.
	p2p          solver.PointToPoint
	targetBudget int
	// The vertices the repair of a pending inherited answer may settle
	// before its hit becomes a full solve (see Inherit).
	repairBudget int

	counters *obs.Group

	traceAgg   core.Trace  // aggregate of pooled Thorup query traces
	thorupRuns obs.Counter // Thorup runs folded into traceAgg

	// Bucket-ring activity summed over the delta-stepping runs.
	deltaRefills, deltaOverflowScanned obs.Counter
}

// pooled is how the engine executes one solver: a pool of the states its
// registry entry constructs, and how many runs they have served.
type pooled struct {
	states sync.Pool // solver.State; solver.PointSearch for the point-to-point entry
	runs   obs.Counter
}

// A targeted request's searches may settle n/targetBudgetShare vertices
// between them before it becomes a full solve (DESIGN.md §5, decision 16).
const targetBudgetShare = 32

// tracer is what a pooled state that keeps core.Trace phase counters (a
// Thorup query) has beyond solver.State; the engine asks by type assertion,
// so execution names no solver (DESIGN.md §5, decision 12).
type tracer interface {
	EnableTrace() *core.Trace
	Trace() *core.Trace
}

// bucketed is what a pooled delta-stepping state has beyond solver.State: the
// phase statistics of its last run.
type bucketed interface{ LastStats() deltastep.Stats }

// Counter names of Engine.Counters, in snapshot order.
const (
	cSolves               = "solves"
	cDedupHits            = "dedup_hits"
	cCacheHits            = "cache_hits"
	cCacheMisses          = "cache_misses"
	cCacheEvictions       = "cache_evictions"
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
)

// New creates an engine over the instance. The hierarchy is built on first
// use if a Thorup query runs (or was already built by the caller).
func New(in *solver.Instance, cfg Config) *Engine {
	if cfg.BatchWorkers <= 0 {
		cfg.BatchWorkers = 4
	}
	solvers := cfg.Solvers
	if solvers == nil {
		solvers = solver.All()
	}
	e := &Engine{
		in:        in,
		cfg:       cfg,
		keyPrefix: cfg.Graph + "@" + strconv.FormatUint(cfg.Gen, 10) + "|",
		solvers:   solvers,
		exec:      make(map[string]*pooled, len(solvers)),
		counters: obs.NewGroup(cSolves, cDedupHits, cCacheHits, cCacheMisses,
			cCacheEvictions, cBatchRequests, cBatchItems, cFullJSONBuilt, cFullBytesFromCache,
			cTargetedBailouts, cInheritedExact, cInheritedStale, cInheritedUnread, cResumed, cRepaired,
			cRepairBudgetExceeded, cResettled, cCancelled),
		p2p:          solver.PointToPoints()[0],
		targetBudget: in.G.NumVertices() / targetBudgetShare,
		repairBudget: max(in.G.NumVertices()/repairBudgetShare, minRepairBudget),
	}
	e.exec[e.p2p.Name] = &pooled{states: sync.Pool{New: func() any { return e.p2p.NewState(in) }}}
	for _, s := range solvers {
		p := &pooled{}
		p.states.New = func() any {
			st := s.NewState(in)
			if t, ok := st.(tracer); ok {
				t.EnableTrace()
			}
			return st
		}
		e.exec[s.Name] = p
	}
	e.cache = newSLRU(cfg.CacheEntries, cfg.CacheBytes, e.counters.C(cCacheEvictions))
	e.flight.calls = make(map[string]*flightCall)
	return e
}

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
// then a pooled solver execution on the caller's goroutine. The execution
// runs while the context of any caller it answers lives, and stops once the
// last has ended (see flightGroup); a stopped execution caches nothing. A
// caller whose ctx has ended gets ctx's error.
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
// leader; pool checkout and solver-phase counters nest under it) or
// "singleflight_wait" (this caller joined a leader's execution).
func (e *Engine) Query(ctx context.Context, req Request) (*Result, Via, error) {
	if err := ctx.Err(); err != nil {
		return nil, ViaSolve, err
	}
	name, srcs, key, err := e.plan(req)
	if err != nil {
		return nil, ViaSolve, err
	}
	parent := trace.SpanFromContext(ctx)
	parent.Trace().SetSolver(name)
	lk := parent.StartChild("cache_lookup")
	res, ok := e.cache.get(key)
	if ok && !res.resolve(lk) {
		e.cache.remove(res)
		ok = false
	}
	lk.SetAttr("hit", ok)
	lk.End()
	if ok {
		e.counters.C(cCacheHits).Inc()
		return res, ViaCache, nil
	}
	e.counters.C(cCacheMisses).Inc()
	if targeted(req, srcs) {
		if res := e.search(ctx, parent, srcs[0], req.Targets); res != nil {
			return res, ViaSolve, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, ViaSolve, err
		}
	}
	// The wait span is only attached when this caller actually waited on
	// another's execution; a leader's time is the solve span instead.
	wait := parent.StartChild("singleflight_wait")
	res, shared, err := e.flight.do(ctx, key, func(ectx context.Context) *Result {
		return e.solve(ectx, parent, name, srcs, key)
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
		e.counters.C(cDedupHits).Inc()
		return res, ViaDedup, nil
	}
	return res, ViaSolve, nil
}

// plan validates the request, canonicalizes the source set (sorted, deduped
// — multi-source distances are order-independent, so equivalent requests
// share one cache key), resolves the solver by policy, and builds the key.
func (e *Engine) plan(req Request) (name string, srcs []int32, key string, err error) {
	n := e.in.G.NumVertices()
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

	name, err = e.pickSolver(req.Solver)
	if err != nil {
		return "", nil, "", err
	}

	kb := make([]byte, 0, len(e.keyPrefix)+len(name)+8*len(srcs))
	kb = append(kb, e.keyPrefix...)
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

// begin opens one executed plan: it counts the run and returns the solver's
// pool and the "solve" span (nil when untraced) naming solver and source
// count, which the caller ends. Cache hits and singleflight joiners never get
// here.
func (e *Engine) begin(parent *trace.Span, name string, sources int) (*pooled, *trace.Span) {
	p, sp := e.exec[name], parent.StartChild("solve")
	e.counters.C(cSolves).Inc()
	p.runs.Inc()
	sp.SetAttr("solver", name)
	sp.SetAttr("sources", sources)
	return p, sp
}

// search answers a targeted request with one point-to-point search per target
// on one pooled state under one budget, or returns nil once a search outgrows
// what is left or ctx has ended between two searches. Either way one
// execution: its span says targets, settled, bailed.
func (e *Engine) search(ctx context.Context, parent *trace.Span, src int32, targets []int32) *Result {
	p, sp := e.begin(parent, e.p2p.Name, 1)
	defer sp.End()
	st := p.states.Get().(solver.PointSearch)
	res := &Result{Solver: e.p2p.Name, TargetDist: make([]int64, len(targets))}
	settled := 0
	for i, t := range targets {
		if ctx.Err() != nil {
			res = nil
			break
		}
		d, k, ok := st(src, t, e.targetBudget-settled)
		settled += k
		if !ok {
			e.counters.C(cTargetedBailouts).Inc()
			res = nil
			break
		}
		res.TargetDist[i] = d
	}
	p.states.Put(st)
	sp.SetAttr("targets", len(targets))
	sp.SetAttr("settled", settled)
	sp.SetAttr("bailed", res == nil)
	if res != nil {
		parent.Trace().SetSolver(res.Solver)
	}
	return res
}

// solve runs the named solver on the canonical source set — state checkout,
// one run, detach, Reset, put back, cache: the same steps for every solver in
// the pool. parent is the singleflight leader's trace position: the execution
// is begin's "solve" span with a nested "pool_checkout" and, for a tracer
// state, the solver-phase counters of core.Trace. A run ctx stopped (nil) is
// counted, put back and not cached; solve then returns nil.
func (e *Engine) solve(ctx context.Context, parent *trace.Span, name string, srcs []int32, key string) *Result {
	p, sp := e.begin(parent, name, len(srcs))
	defer sp.End()
	pc := sp.StartChild("pool_checkout")
	st := p.states.Get().(solver.State)
	pc.End()
	d := st.RunFromSources(ctx, srcs)
	if d == nil {
		e.counters.C(cCancelled).Inc()
		sp.SetAttr("cancelled", true)
		st.Reset()
		p.states.Put(st)
		return nil
	}
	res := &Result{Solver: name, e: e, key: key}
	res.detach(d)
	if t, ok := st.(tracer); ok {
		snap := t.Trace().Snapshot()
		e.traceAgg.Merge(snap)
		e.thorupRuns.Inc()
		if sp != nil {
			for k, v := range snap.AttrMap() {
				sp.SetAttr(k, v)
			}
		}
	}
	if b, ok := st.(bucketed); ok {
		stats := b.LastStats()
		e.deltaRefills.Add(int64(stats.Refills))
		e.deltaOverflowScanned.Add(stats.OverflowScanned)
		if sp != nil {
			sp.SetAttr("delta", e.in.Delta)
			sp.SetAttr("refills", stats.Refills)
			sp.SetAttr("overflow_scanned", stats.OverflowScanned)
		}
	}
	st.Reset()
	p.states.Put(st)
	e.cache.add(key, res)
	return res
}

// Release drops the states the engine's pools hold; the catalog calls it once
// a retired generation has drained. A sync.Pool keeps what it cached for up
// to two collections after its last use, and each state is a solver's
// working arrays (≈0.5 MB for delta-stepping at 2^14), while a write every
// few hundred reads makes a generation every few collections. A query after
// Release still runs, on a state made for it. Release must not run beside a
// query.
func (e *Engine) Release() {
	for _, p := range e.exec {
		p.states = sync.Pool{New: p.states.New}
	}
}

// InstanceBytes is the memory footprint of one Thorup query instance over the
// hierarchy held (arithmetic on its dimensions), 0 with none: nothing is built.
func (e *Engine) InstanceBytes() int64 {
	if h, _, _ := e.in.HierarchyState(); h != nil {
		return core.NewSolver(h, e.in.RT).InstanceBytes()
	}
	return 0
}

// Delta is the bucket width delta-stepping runs with on this instance.
func (e *Engine) Delta() int64 { return e.in.Delta }

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

// ThorupTrace returns the aggregate trace of all pooled Thorup executions
// and how many runs it covers.
func (e *Engine) ThorupTrace() (core.Trace, int64) {
	return e.traceAgg.Snapshot(), e.thorupRuns.Value()
}

// CacheBytes is what the result cache holds now: its vectors, keys and
// materialised JSON, as charged against Config.CacheBytes.
func (e *Engine) CacheBytes() int64 {
	_, bytes := e.cache.size()
	return bytes
}

// StatsSnapshot returns the engine's observable state, shaped for a JSON
// /metrics endpoint: every counter, the cache's current and maximum sizes,
// and per-solver run counts.
func (e *Engine) StatsSnapshot() map[string]any {
	out := make(map[string]any, 16)
	for k, v := range e.counters.Snapshot() {
		out[k] = v
	}
	entries, bytes := e.cache.size()
	out["cache_entries"] = entries
	out["cache_bytes"] = bytes
	out["cache_max_entries"] = e.cfg.CacheEntries
	out["cache_max_bytes"] = e.cfg.CacheBytes
	out["solver_runs"] = e.SolverRuns()
	return out
}
