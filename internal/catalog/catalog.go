package catalog

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"repro/internal/ch"
	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/snapshot"
	"repro/internal/solver"
	"repro/internal/trace"
)

// ErrUnknownGraph marks queries that name a graph the catalog has never
// heard of; a serving layer should map it to 404.
var ErrUnknownGraph = errors.New("unknown graph")

// ErrBusy marks an admin call on a name that has a load, reload or mutation in
// flight, or whose last generation is still draining: nothing was done, and
// the same call can succeed once that finishes. A serving layer should map it
// to 409 with Retry-After.
var ErrBusy = errors.New("busy")

// ErrLoadFailed marks a Load or Reload whose source could not be loaded or
// whose delta log could not be replayed; a serving layer should map it to 500,
// as it does a query on a failed graph.
var ErrLoadFailed = errors.New("load failed")

var errClosed = errors.New("catalog: closed")

// NotReadyError marks queries against a graph that exists but is not
// currently serving (still loading, draining, evicted, or failed); a
// serving layer should map it to 503 (retryable) or 500 (failed).
type NotReadyError struct {
	Name  string
	State State
	Err   error // the load error when State is StateFailed
}

func (e *NotReadyError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("graph %q is %s: %v", e.Name, e.State, e.Err)
	}
	return fmt.Sprintf("graph %q is %s", e.Name, e.State)
}

// Source says where a graph comes from, in priority order: an in-process
// Loader (tests, stress harnesses), a binary snapshot (graph + prebuilt
// hierarchy in one read), or a cli.Spec (DIMACS file or generator: no
// hierarchy until a query demands one).
type Source struct {
	// Loader produces the instance directly; it wins over the other fields.
	Loader func() (*graph.Graph, *ch.Hierarchy, error)
	// Snapshot is a snapshot.WriteFile artifact.
	Snapshot string
	// Spec is a DIMACS file or generator description.
	Spec cli.Spec
}

func (s Source) String() string {
	switch {
	case s.Loader != nil:
		return "loader"
	case s.Snapshot != "":
		return "snapshot:" + s.Snapshot
	case s.Spec.File != "":
		return "file:" + s.Spec.File
	default:
		return fmt.Sprintf("gen:%s/2^%d", s.Spec.Class, s.Spec.LogN)
	}
}

// Load resolves the source — the one loader behind Catalog.Load, Reload and a
// daemon's startup graph alike. The hierarchy is nil when the source carries
// none (Spec sources). With mmap
// set, snapshot sources are mapped zero-copy when the platform allows it,
// falling back to the copy read (logged through logf) otherwise; a non-nil
// mapping is returned exactly when the instance's arrays alias it, and the
// caller owns its lifetime.
// name is what the source itself calls the graph — the snapshot or DIMACS
// path, or the generator's instance name; empty for a Loader.
func (s Source) Load(mmap bool, logf func(string, ...any)) (g *graph.Graph, h *ch.Hierarchy, m *snapshot.Mapping, name string, err error) {
	switch {
	case s.Loader != nil:
		g, h, err = s.Loader()
	case s.Snapshot != "":
		name = s.Snapshot
		if mmap {
			g, h, m, err = snapshot.Map(s.Snapshot)
			if !errors.Is(err, snapshot.ErrNotMappable) {
				return g, h, m, name, err
			}
			logf("catalog: %s not mappable, falling back to copy read: %v", s.Snapshot, err)
		}
		g, h, err = snapshot.ReadFile(s.Snapshot)
	case s.Spec != (cli.Spec{}):
		g, name, err = s.Spec.Load()
	default:
		err = errors.New("catalog: empty source (need Loader, Snapshot, or Spec)")
	}
	return g, h, m, name, err
}

// Config parameterizes a Catalog.
type Config struct {
	// MemoryBudget bounds the summed Bytes of ready graphs; exceeding it
	// evicts least-recently-used idle graphs. 0 means unlimited.
	MemoryBudget int64
	// QueryWorkers sizes the one parallel runtime every generation of every
	// graph runs its loops on (default 4).
	QueryWorkers int
	// Engine configures each graph's engine, which serves all its
	// generations.
	Engine engine.Config
	// MMap serves snapshot sources zero-copy from mmap'd files when the
	// platform allows it (mmap-less and big-endian hosts fall back to the
	// copy read).
	MMap bool
	// Logf receives progress lines (default log.Printf).
	Logf func(string, ...any)
}

// Catalog coordinates the graphs. All public methods are safe for concurrent
// use.
type Catalog struct {
	cfg  Config
	logf func(string, ...any)
	rt   *par.Exec // shared by every generation: one token bucket per process

	mu      sync.Mutex
	entries map[string]*entry
	clock   int64 // logical time for LRU ordering
	closed  bool

	counters *obs.Group
}

// entry is the per-name lifecycle record. gen is non-nil exactly while the
// name is serving (ready, or draining its final generation).
type entry struct {
	name     string
	state    State
	src      Source
	gen      *Generation
	genSeq   uint64 // the last installed generation's number
	lastUsed int64
	err      error // most recent load failure
	pending  bool  // a load, reload or mutation is in flight
	// deltas is the accepted-mutation replay log for this lineage: every
	// batch that produced a generation, in acceptance order. A reload replays
	// it over the source so the rebuilt generation reproduces the mutated
	// graph, not the base one. Load with a fresh source resets the log (new
	// lineage). logBytes, its ops at their size, counts in AccountedBytes but
	// not in the memory budget: evicting a generation frees none of it.
	deltas   []*mutate.Batch
	logBytes int64
}

// setState validates the lifecycle edge; an invalid transition is an
// internal bug and panics.
func (e *entry) setState(next State) {
	if !validNext[e.state][next] {
		panic(fmt.Sprintf("catalog: invalid transition %s -> %s for %q", e.state, next, e.name))
	}
	e.state = next
}

// settle takes a draining entry to evicted once its generation has drained.
// Callers hold the catalog lock; every locked read of an entry's state goes
// through it, so after <-gen.Drained() the next Load finds the name evicted.
func (e *entry) settle() {
	if e.state != StateDraining {
		return
	}
	select {
	case <-e.gen.Drained():
		e.setState(StateEvicted)
		e.gen = nil
	default:
	}
}

// busy is ErrBusy for e: a call in flight, or a generation still draining.
func (e *entry) busy() error {
	if e.pending {
		return fmt.Errorf("catalog: %w: graph %q has a load, reload or mutation in flight", ErrBusy, e.name)
	}
	return fmt.Errorf("catalog: %w: graph %q is draining", ErrBusy, e.name)
}

// Counter names of Catalog counters, in snapshot order.
const (
	cLoads           = "loads"
	cReloads         = "reloads"
	cUnloads         = "unloads"
	cBuilds          = "builds"
	cSwaps           = "swaps"
	cEvictions       = "evictions"
	cLoadFailures    = "load_failures"
	cAcquires        = "acquires"
	cNotReady        = "acquire_not_ready"
	cMutations       = "mutations"
	cHierarchyBuilds = "hierarchy_builds"
)

// New creates a catalog. It starts no goroutine: every load, reload and
// mutation runs on its caller's.
func New(cfg Config) *Catalog {
	if cfg.QueryWorkers <= 0 {
		cfg.QueryWorkers = 4
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	return &Catalog{
		cfg:     cfg,
		logf:    logf,
		rt:      par.NewExec(cfg.QueryWorkers),
		entries: make(map[string]*entry),
		counters: obs.NewGroup(cLoads, cReloads, cUnloads, cBuilds, cSwaps,
			cEvictions, cLoadFailures, cAcquires, cNotReady, cMutations, cHierarchyBuilds),
	}
}

// Close refuses further loads, reloads and mutations. Graphs already ready
// keep serving (Acquire still works), so a server can drain on its own
// schedule.
func (c *Catalog) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
}

// entryLocked looks name up, settling a drained entry first. Callers hold the
// catalog lock.
func (c *Catalog) entryLocked(name string) (*entry, bool) {
	e, ok := c.entries[name]
	if ok {
		e.settle()
	}
	return e, ok
}

// AddPrebuilt installs an already-loaded instance synchronously as generation
// 1 — the path for a daemon's startup graph, which is loaded before the
// listener opens. A nil h stays unbuilt until a query demands a hierarchy.
// src is remembered for later reloads. When the instance was loaded
// via snapshot.Map, pass its mapping (nil otherwise): the generation takes
// ownership and unmaps it after its last query drains.
func (c *Catalog) AddPrebuilt(name string, src Source, g *graph.Graph, h *ch.Hierarchy, m *snapshot.Mapping) (*Generation, error) {
	gen := c.newGeneration(name, 1, nil, g, h, m)

	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[name]; ok {
		// The rejected generation still owns the mapping; release it.
		gen.retire()
		return nil, fmt.Errorf("catalog: graph %q already exists", name)
	}
	e := &entry{name: name, state: StateReady, src: src}
	c.entries[name] = e
	c.installLocked(e, gen)
	return gen, nil
}

// installLocked is the swap: gen becomes e's serving generation, the call in
// flight (if any) is over, the name counts as just used, and the memory
// budget is re-checked with this name exempt. It returns the generation gen
// replaced (nil for a first install), which the caller retires once it has
// dropped the lock.
func (c *Catalog) installLocked(e *entry, gen *Generation) (old *Generation) {
	old = e.gen
	e.gen = gen
	e.genSeq = gen.Gen
	e.err = nil
	e.pending = false
	c.clock++
	e.lastUsed = c.clock
	c.counters.C(cSwaps).Inc()
	c.evictLocked(e.name)
	return old
}

// builtOnDemand is every generation's solver.Instance.OnDerived: a query has
// just built name@gen's hierarchy or s-t index, in its own request. The bytes
// count from now (HeapBytes reads them live): the budget is re-checked here.
func (c *Catalog) builtOnDemand(name string, gen uint64, kind string, bytes int64, ms float64) {
	if kind == solver.KindHierarchy {
		c.counters.C(cHierarchyBuilds).Inc()
	}
	c.mu.Lock()
	c.evictLocked(name)
	c.mu.Unlock()
	c.logf("catalog: %s for %s gen %d built on demand: %d bytes in %.1f ms", kind, name, gen, bytes, ms)
}

// Load brings a named graph into service: it loads src, makes the engine and
// installs the generation on the caller's goroutine, and returns the
// generation's number once it serves, or the load error (wrapping
// ErrLoadFailed) with the entry left failed. Loading a ready name is an error
// (use Reload); a name with a call in flight or a generation still draining is
// ErrBusy; a failed or evicted name is retried with src.
func (c *Catalog) Load(name string, src Source) (uint64, error) {
	if name == "" {
		return 0, errors.New("catalog: empty graph name")
	}
	c.mu.Lock()
	e, ok := c.entryLocked(name)
	var err error
	switch {
	case c.closed:
		err = errClosed
	case !ok:
		e = &entry{name: name, state: StateLoading}
		c.entries[name] = e
	case e.pending || e.state == StateDraining:
		err = e.busy()
	case e.state == StateReady:
		err = fmt.Errorf("catalog: graph %q already loaded (use reload)", name)
	default: // failed or evicted: retry with the (possibly new) source
		e.setState(StateLoading)
		e.deltas, e.logBytes = nil, 0 // fresh lineage: the old replay log no longer applies
	}
	if err != nil {
		c.mu.Unlock()
		return 0, err
	}
	e.src = src
	c.counters.C(cLoads).Inc()
	return c.build(e)
}

// Reload rebuilds a graph from its remembered source — replaying any accepted
// mutation deltas on top, so the rebuilt generation reproduces the graph's
// current logical state — and swaps the result in atomically, on the caller's
// goroutine. The old generation keeps serving until the swap, then drains; if
// the rebuild fails it keeps serving and the error (wrapping ErrLoadFailed) is
// returned. It returns the new generation's number once it serves.
func (c *Catalog) Reload(name string) (uint64, error) {
	c.mu.Lock()
	e, ok := c.entryLocked(name)
	var err error
	switch {
	case c.closed:
		err = errClosed
	case !ok:
		err = fmt.Errorf("catalog: %w: %q", ErrUnknownGraph, name)
	case e.pending || e.state == StateDraining:
		err = e.busy()
	case e.state != StateReady: // failed or evicted
		e.setState(StateLoading)
	}
	if err != nil {
		c.mu.Unlock()
		return 0, err
	}
	// A ready entry stays ready: the new generation builds off to the side.
	c.counters.C(cReloads).Inc()
	return c.build(e)
}

// build is the rest of a Load or Reload, entered with the catalog lock held:
// mark e pending, then — unlocked, on the caller's goroutine — load the
// source, replay the delta log and make a generation of the graph's engine (a
// new one unless e serves), and install it with an empty result cache and
// the source's hierarchy, if it carried one and no delta was replayed. A
// first load (e loading) ends ready or failed; a reload of a ready entry
// swaps, or keeps the old generation serving when it fails.
func (c *Catalog) build(e *entry) (uint64, error) {
	e.pending, e.err = true, nil // no other load, reload, mutation or unload until we finish
	src, deltas, num, serving := e.src, e.deltas, e.genSeq+1, e.gen
	c.mu.Unlock()

	start := time.Now()
	g, h, m, _, err := src.Load(c.cfg.MMap, c.logf)
	if err != nil {
		return 0, c.failBuild(e, fmt.Errorf("%w: %s: %w", ErrLoadFailed, src, err))
	}
	loaded := time.Now()
	if len(deltas) > 0 {
		// Replay the accepted-mutation log under the write's storage rule: the
		// rebuilt generation carries the graph's logical state on its own heap.
		// A snapshot-carried hierarchy matches the base graph and is dropped.
		for i, b := range deltas {
			if g, _, err = apply(g, m != nil && i == 0, b); err != nil {
				m.Close()
				return 0, c.failBuild(e, fmt.Errorf("%w: replay delta %d/%d on %s: %w", ErrLoadFailed, i+1, len(deltas), src, err))
			}
		}
		m.Close()
		h, m = nil, nil
	}
	c.counters.C(cBuilds).Inc()
	gen := c.newGeneration(e.name, num, serving, g, h, m)

	c.mu.Lock()
	if e.state != StateLoading && e.state != StateReady {
		// A reload whose entry the memory budget evicted mid-build: the name
		// no longer serves, so the rebuilt generation is discarded.
		e.pending = false
		state := e.state
		c.mu.Unlock()
		gen.retire()
		return 0, fmt.Errorf("catalog: graph %q was evicted during its reload (now %s); generation %d discarded", e.name, state, num)
	}
	if e.state == StateLoading {
		e.setState(StateReady)
	}
	gen.Engine.Swap(nil)
	old := c.installLocked(e, gen)
	c.mu.Unlock()
	if old != nil {
		old.retire()
	}
	residence := "heap"
	if gen.Mapped() {
		residence = "mmap"
	}
	c.logf("catalog: %s gen %d ready from %s (n=%d m=%d, %d bytes %s, load_ms=%.1f, %s)",
		e.name, num, src, g.NumVertices(), g.NumEdges(), gen.Bytes(), residence,
		loaded.Sub(start).Seconds()*1e3, time.Since(start).Round(time.Millisecond))
	return num, nil
}

// failBuild records a failed Load or Reload and returns its error. A first
// load lands in failed; a failed reload leaves the serving generation alone
// and only records the error.
func (c *Catalog) failBuild(e *entry, err error) error {
	c.counters.C(cLoadFailures).Inc()
	c.logf("catalog: %s %v", e.name, err)
	c.mu.Lock()
	defer c.mu.Unlock()
	e.pending = false
	e.err = err
	if e.state == StateLoading {
		e.setState(StateFailed)
	}
	return err
}

// Unload takes a graph out of service: ready graphs drain their in-flight
// queries and become evicted; failed or evicted graphs are forgotten
// entirely. A graph with a call in flight, or still draining, is ErrBusy.
func (c *Catalog) Unload(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entryLocked(name)
	if !ok {
		return fmt.Errorf("catalog: %w: %q", ErrUnknownGraph, name)
	}
	switch {
	case e.pending || e.state == StateDraining:
		return e.busy()
	case e.state == StateReady:
		c.counters.C(cUnloads).Inc()
		c.retireLocked(e)
	default: // failed or evicted
		c.counters.C(cUnloads).Inc()
		delete(c.entries, name)
	}
	return nil
}

// retireLocked moves a ready entry to draining, and on to evicted at once when
// no query holds the generation (always so for evictLocked's victims);
// otherwise the first locked read after the last release takes that edge
// (settle). Its engine's cached answers go at once.
func (c *Catalog) retireLocked(e *entry) {
	e.setState(StateDraining)
	e.gen.Engine.Drop()
	e.gen.retire()
	e.settle()
}

// Acquire returns the current generation of a ready graph with a reference
// held, plus the release function the caller must invoke when its query is
// finished (idempotent). The reference pins the generation across swaps: a
// concurrent reload or unload never invalidates it.
func (c *Catalog) Acquire(name string) (*Generation, func(), error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entryLocked(name)
	if !ok {
		c.counters.C(cNotReady).Inc()
		return nil, nil, fmt.Errorf("catalog: %w: %q", ErrUnknownGraph, name)
	}
	if e.state != StateReady || e.gen == nil {
		c.counters.C(cNotReady).Inc()
		return nil, nil, &NotReadyError{Name: name, State: e.state, Err: e.err}
	}
	c.clock++
	e.lastUsed = c.clock
	gen := e.gen
	gen.acquire()
	c.counters.C(cAcquires).Inc()
	var once sync.Once
	return gen, func() { once.Do(gen.release) }, nil
}

// AcquireTraced is Acquire with request tracing: when ctx carries a trace,
// the acquire is recorded as a "catalog_acquire" span under the context's
// current span, annotated with the resolved generation (or the failure), and
// the trace is tagged with the graph name for /debug/traces?graph= filtering.
func (c *Catalog) AcquireTraced(ctx context.Context, name string) (*Generation, func(), error) {
	sp := trace.SpanFromContext(ctx)
	if sp == nil {
		return c.Acquire(name)
	}
	acq := sp.StartChild("catalog_acquire")
	gen, release, err := c.Acquire(name)
	if err != nil {
		acq.SetAttr("error", err.Error())
	} else {
		acq.SetAttr("gen", gen.Gen)
		sp.Trace().SetGraph(name)
	}
	acq.End()
	return gen, release, err
}

// evictLocked enforces the memory budget: while ready graphs exceed it, the
// least-recently-used idle (no in-flight queries) ready graph other than
// except is drained out. Busy graphs are never evicted — the budget is a
// target, not a guillotine.
func (c *Catalog) evictLocked(except string) {
	if c.cfg.MemoryBudget <= 0 {
		return
	}
	for {
		var total int64
		var victim *entry
		for _, e := range c.entries {
			if e.state != StateReady || e.gen == nil {
				continue
			}
			total += e.gen.Bytes()
			if e.name == except || e.gen.InFlight() > 0 {
				continue
			}
			if victim == nil || e.lastUsed < victim.lastUsed {
				victim = e
			}
		}
		if total <= c.cfg.MemoryBudget || victim == nil {
			return
		}
		c.counters.C(cEvictions).Inc()
		c.logf("catalog: evicting %s (LRU, %d bytes; ready total %d > budget %d)",
			victim.name, victim.gen.Bytes(), total, c.cfg.MemoryBudget)
		c.retireLocked(victim)
	}
}

// GraphStatus is one catalog row, shaped for a JSON listing endpoint.
type GraphStatus struct {
	Name     string `json:"name"`
	State    string `json:"state"`
	Gen      uint64 `json:"gen,omitempty"`
	Source   string `json:"source"`
	Vertices int    `json:"vertices,omitempty"`
	Edges    int64  `json:"edges,omitempty"`
	// MaxWeight is the serving generation's heaviest edge and Delta the
	// delta-stepping bucket width measured from its weights.
	MaxWeight uint32 `json:"max_weight,omitempty"`
	Delta     int64  `json:"delta,omitempty"`
	Bytes     int64  `json:"bytes,omitempty"`
	// HeapBytes/MappedBytes split Bytes by residence: process heap for
	// copy-loaded generations, mmap'd page cache for zero-copy ones.
	HeapBytes   int64 `json:"heap_bytes,omitempty"`
	MappedBytes int64 `json:"mapped_bytes,omitempty"`
	// CacheBytes is what the serving generation's result cache holds: heap
	// outside Bytes and -mem-budget, bounded by the engine's cache budget.
	CacheBytes int64 `json:"cache_bytes,omitempty"`
	// ParentGen/DeltaSize expose delta lineage when the serving generation
	// came from a mutation: the generation it was derived from and the op
	// count of the delta. Deltas is the length of the accepted-mutation
	// replay log for the lineage.
	ParentGen uint64 `json:"parent_gen,omitempty"`
	DeltaSize int    `json:"delta_size,omitempty"`
	Deltas    int    `json:"deltas,omitempty"`
	InFlight  int64  `json:"in_flight,omitempty"`
	Pending   bool   `json:"pending,omitempty"`
	Error     string `json:"error,omitempty"`
	// Hierarchy is "unbuilt" until a query names a solver that reads one, then
	// "built" in HierarchyBuildMS; "carried" when the serving generation came
	// with one (a snapshot). A mutation's generation starts unbuilt.
	Hierarchy        string  `json:"hierarchy,omitempty"`
	HierarchyBuildMS float64 `json:"hierarchy_build_ms,omitempty"`
}

// Status lists every known graph, sorted by name.
func (c *Catalog) Status() []GraphStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]GraphStatus, 0, len(c.entries))
	for _, e := range c.entries {
		e.settle()
		gs := GraphStatus{
			Name:    e.name,
			State:   e.state.String(),
			Source:  e.src.String(),
			Pending: e.pending,
		}
		if e.gen != nil {
			gs.Gen = e.gen.Gen
			gs.Vertices = e.gen.G.NumVertices()
			gs.Edges = e.gen.G.NumEdges()
			gs.MaxWeight = e.gen.G.MaxWeight()
			gs.Delta = e.gen.Engine.Delta()
			gs.HeapBytes = e.gen.HeapBytes()
			gs.MappedBytes = e.gen.MappedBytes()
			gs.Bytes = gs.HeapBytes + gs.MappedBytes
			gs.CacheBytes = e.gen.Engine.CacheBytes()
			gs.ParentGen = e.gen.ParentGen
			gs.DeltaSize = e.gen.DeltaSize
			gs.InFlight = e.gen.InFlight()
			_, gs.Hierarchy, gs.HierarchyBuildMS = e.gen.Hierarchy()
		}
		gs.Deltas = len(e.deltas)
		if e.err != nil {
			gs.Error = e.err.Error()
		}
		out = append(out, gs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Serving lists the serving generation of every ready graph, sorted by name,
// without acquiring any: for reading what their engines count, not for
// queries.
func (c *Catalog) Serving() []*Generation {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*Generation
	for _, e := range c.entries {
		if e.settle(); e.state == StateReady {
			out = append(out, e.gen)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Counter returns the named catalog counter (see the c* constants' snapshot
// names). Unknown names panic.
func (c *Catalog) Counter(name string) int64 { return c.counters.C(name).Value() }

// StatsSnapshot returns the catalog's observable state for a /metrics
// endpoint: every counter plus occupancy against the budget.
func (c *Catalog) StatsSnapshot() map[string]any {
	out := make(map[string]any, 16)
	for k, v := range c.counters.Snapshot() {
		out[k] = v
	}
	c.mu.Lock()
	var ready int
	var heapBytes, mappedBytes int64
	states := make([]obs.GraphState, 0, len(c.entries))
	for _, e := range c.entries {
		e.settle()
		gs := obs.GraphState{Name: e.name, State: e.state.String()}
		if e.gen != nil {
			_, gs.Hierarchy, gs.HierarchyBuildMS = e.gen.Hierarchy()
		}
		states = append(states, gs)
		if e.state == StateReady && e.gen != nil {
			ready++
			heapBytes += e.gen.HeapBytes()
			mappedBytes += e.gen.MappedBytes()
		}
	}
	sort.Slice(states, func(i, j int) bool { return states[i].Name < states[j].Name })
	out["graph_states"] = states
	out["graphs"] = len(c.entries)
	out["ready"] = ready
	out["ready_bytes"] = heapBytes + mappedBytes
	out["ready_heap_bytes"] = heapBytes
	out["ready_mapped_bytes"] = mappedBytes
	c.mu.Unlock()
	out["memory_budget"] = c.cfg.MemoryBudget
	out["accounted_bytes"] = c.AccountedBytes()
	return out
}

// AccountedBytes is the heap the catalog accounts for, all of it long-lived:
// the HeapBytes and result cache of every generation it holds, serving or
// draining (a draining one's bytes stay live until its last reader returns),
// and every name's delta log. A daemon may pace its collector on the rest.
func (c *Catalog) AccountedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var b int64
	for _, e := range c.entries {
		e.settle()
		b += e.logBytes
		if e.gen != nil {
			b += e.gen.HeapBytes() + e.gen.Engine.CacheBytes()
		}
	}
	return b
}
