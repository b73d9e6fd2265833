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
	"repro/internal/dijkstra"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// ErrUnknownGraph marks queries that name a graph the catalog has never
// heard of; a serving layer should map it to 404.
var ErrUnknownGraph = errors.New("unknown graph")

// NotReadyError marks queries against a graph that exists but is not
// currently serving (still building, draining, evicted, or failed); a
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

// Load resolves the source — the one loader behind background builds and a
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
	// Workers is the number of background build workers (default 2).
	Workers int
	// MemoryBudget bounds the summed Bytes of ready graphs; exceeding it
	// evicts least-recently-used idle graphs. 0 means unlimited.
	MemoryBudget int64
	// QueryWorkers sizes each generation's parallel runtime (default 4).
	QueryWorkers int
	// Engine is the template engine configuration; Graph and Gen are
	// overwritten per generation.
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

	mu      sync.Mutex
	entries map[string]*entry
	clock   int64 // logical time for LRU ordering
	closed  bool

	jobs     chan string
	done     chan struct{}
	wg       sync.WaitGroup
	counters *obs.Group
}

// entry is the per-name lifecycle record. gen is non-nil exactly while the
// name is serving (ready, or draining its final generation).
type entry struct {
	name     string
	state    State
	src      Source
	gen      *Generation
	genSeq   uint64
	lastUsed int64
	err      error // most recent load failure
	pending  bool  // a build job is queued or running
	// deltas is the accepted-mutation replay log for this lineage: every
	// batch that produced a generation, in acceptance order. A reload replays
	// it over the source so the rebuilt generation reproduces the mutated
	// graph, not the base one. Load with a fresh source resets the log (new
	// lineage).
	deltas []*mutate.Batch
}

// setState validates the lifecycle edge; an invalid transition is an
// internal bug and panics.
func (e *entry) setState(next State) {
	if !validNext[e.state][next] {
		panic(fmt.Sprintf("catalog: invalid transition %s -> %s for %q", e.state, next, e.name))
	}
	e.state = next
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

// New creates a catalog and starts its build workers. Call Close to stop
// them.
func New(cfg Config) *Catalog {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueryWorkers <= 0 {
		cfg.QueryWorkers = 4
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	c := &Catalog{
		cfg:     cfg,
		logf:    logf,
		entries: make(map[string]*entry),
		jobs:    make(chan string, 64),
		done:    make(chan struct{}),
		counters: obs.NewGroup(cLoads, cReloads, cUnloads, cBuilds, cSwaps,
			cEvictions, cLoadFailures, cAcquires, cNotReady, cMutations, cHierarchyBuilds),
	}
	for i := 0; i < cfg.Workers; i++ {
		c.wg.Add(1)
		go c.worker()
	}
	return c
}

// Close stops the build workers. Pending jobs are abandoned; graphs already
// ready keep serving (Acquire still works) so a server can drain on its own
// schedule.
func (c *Catalog) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.done)
	c.wg.Wait()
}

func (c *Catalog) worker() {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			return
		case name := <-c.jobs:
			c.runJob(name)
		}
	}
}

// enqueue hands a name to the workers without racing Close: a closed catalog
// drops the job (the entry was already marked, but no worker will come).
func (c *Catalog) enqueue(name string) {
	select {
	case c.jobs <- name:
	case <-c.done:
	}
}

// AddPrebuilt installs an already-loaded instance synchronously as generation
// 1 — the path for a daemon's startup graph, which is loaded before the
// listener opens. A nil h stays unbuilt until a query demands a hierarchy.
// src is remembered for later reloads. When the instance was loaded
// via snapshot.Map, pass its mapping (nil otherwise): the generation takes
// ownership and unmaps it after its last query drains.
func (c *Catalog) AddPrebuilt(name string, src Source, g *graph.Graph, h *ch.Hierarchy, m *snapshot.Mapping) (*Generation, error) {
	gen := c.newGeneration(name, 1, g, h, m)

	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[name]; ok {
		// The rejected generation still owns the mapping; release it.
		gen.retire()
		return nil, fmt.Errorf("catalog: graph %q already exists", name)
	}
	e := &entry{name: name, state: StateReady, src: src, genSeq: 1}
	c.entries[name] = e
	c.installLocked(e, gen)
	return gen, nil
}

// installLocked is the swap: gen becomes e's serving generation, the pending
// build (if any) is over, the name counts as just used, and the memory
// budget is re-checked with this name exempt. It returns the generation gen
// replaced (nil for a first install), which the caller retires once it has
// dropped the lock.
func (c *Catalog) installLocked(e *entry, gen *Generation) (old *Generation) {
	old = e.gen
	e.gen = gen
	e.err = nil
	e.pending = false
	c.clock++
	e.lastUsed = c.clock
	c.counters.C(cSwaps).Inc()
	c.evictLocked(e.name)
	return old
}

// hierarchyBuilt is every generation's solver.Instance.OnBuild: a query that
// named a hierarchy solver has just built name@gen's, in its own request. The
// bytes count from now (Bytes reads them live): the budget is re-checked here.
func (c *Catalog) hierarchyBuilt(name string, gen uint64, h *ch.Hierarchy, ms float64) {
	c.counters.C(cHierarchyBuilds).Inc()
	c.mu.Lock()
	c.evictLocked(name)
	c.mu.Unlock()
	c.logf("catalog: hierarchy for %s gen %d built on demand: %d nodes in %.1f ms", name, gen, h.NumNodes(), ms)
}

// stIndexBuilt is every generation's solver.Instance.OnSTIndex: a targeted
// query has just built name@gen's s-t search index. As with a hierarchy, the
// bytes count from now and the budget is re-checked here.
func (c *Catalog) stIndexBuilt(name string, gen uint64, x *dijkstra.STIndex, ms float64) {
	c.mu.Lock()
	c.evictLocked(name)
	c.mu.Unlock()
	c.logf("catalog: s-t index for %s gen %d built on demand: %d bytes in %.1f ms", name, gen, x.Bytes(), ms)
}

// Load brings a named graph into service in the background. Loading an
// already-pending name is a no-op; loading a ready name is an error (use
// Reload); loading a failed or evicted name retries with the new source.
func (c *Catalog) Load(name string, src Source) error {
	if name == "" {
		return errors.New("catalog: empty graph name")
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errors.New("catalog: closed")
	}
	e, ok := c.entries[name]
	switch {
	case !ok:
		e = &entry{name: name, state: StateLoading, src: src, pending: true}
		c.entries[name] = e
	case e.pending:
		c.mu.Unlock()
		return nil // idempotent: a build for this name is already queued
	case e.state == StateReady:
		c.mu.Unlock()
		return fmt.Errorf("catalog: graph %q already loaded (use reload)", name)
	case e.state == StateDraining:
		c.mu.Unlock()
		return fmt.Errorf("catalog: graph %q is draining; retry when evicted", name)
	default: // failed or evicted: retry with the (possibly new) source
		e.setState(StateLoading)
		e.src = src
		e.err = nil
		e.pending = true
		e.deltas = nil // fresh lineage: the old replay log no longer applies
	}
	e.genSeq++ // pre-assign the generation this load will install
	c.counters.C(cLoads).Inc()
	c.mu.Unlock()
	c.enqueue(name)
	return nil
}

// Reload rebuilds a graph from its remembered source — replaying any accepted
// mutation deltas on top, so the rebuilt generation reproduces the graph's
// current logical state — and swaps the result in atomically. The old
// generation keeps serving until the swap, then drains. Returns the
// generation number the rebuild will install; reloading while a build is
// already pending returns that build's generation without queueing another.
func (c *Catalog) Reload(name string) (uint64, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, errors.New("catalog: closed")
	}
	e, ok := c.entries[name]
	if !ok {
		c.mu.Unlock()
		return 0, fmt.Errorf("catalog: %w: %q", ErrUnknownGraph, name)
	}
	if e.pending {
		gen := e.genSeq
		c.mu.Unlock()
		return gen, nil
	}
	switch e.state {
	case StateReady:
		// Stay ready: the new generation builds off to the side.
	case StateFailed, StateEvicted:
		e.setState(StateLoading)
		e.err = nil
	default:
		c.mu.Unlock()
		return 0, fmt.Errorf("catalog: graph %q is %s; cannot reload", name, e.state)
	}
	e.pending = true
	e.genSeq++ // pre-assign the generation this rebuild will install
	gen := e.genSeq
	c.counters.C(cReloads).Inc()
	c.mu.Unlock()
	c.enqueue(name)
	return gen, nil
}

// Unload takes a graph out of service: ready graphs drain their in-flight
// queries and become evicted; failed or evicted graphs are forgotten
// entirely. A graph mid-build cannot be unloaded.
func (c *Catalog) Unload(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return fmt.Errorf("catalog: %w: %q", ErrUnknownGraph, name)
	}
	if e.pending {
		return fmt.Errorf("catalog: graph %q has a build in progress; retry after it completes", name)
	}
	switch e.state {
	case StateReady:
		c.counters.C(cUnloads).Inc()
		c.retireLocked(e)
		return nil
	case StateFailed, StateEvicted:
		c.counters.C(cUnloads).Inc()
		delete(c.entries, name)
		return nil
	default:
		return fmt.Errorf("catalog: graph %q is %s; cannot unload", name, e.state)
	}
}

// retireLocked moves a ready entry to draining and on to evicted: at once when
// no query holds the generation (always so for evictLocked's victims), else
// once the last in-flight query releases.
func (c *Catalog) retireLocked(e *entry) {
	e.setState(StateDraining)
	gen := e.gen
	if gen.retire() {
		e.setState(StateEvicted)
		e.gen = nil
		return
	}
	go func() {
		<-gen.Drained()
		c.mu.Lock()
		if e.state == StateDraining && e.gen == gen {
			e.setState(StateEvicted)
			e.gen = nil
		}
		c.mu.Unlock()
	}()
}

// Acquire returns the current generation of a ready graph with a reference
// held, plus the release function the caller must invoke when its query is
// finished (idempotent). The reference pins the generation across swaps: a
// concurrent reload or unload never invalidates it.
func (c *Catalog) Acquire(name string) (*Generation, func(), error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
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

// runJob executes one background build: load the source, replay the delta
// log, construct a fresh engine, then swap it in — with the source's
// hierarchy if it carried one that still fits, else without.
// Initial loads walk the entry through loading→building→ready; reloads leave
// the serving state alone.
func (c *Catalog) runJob(name string) {
	c.mu.Lock()
	e, ok := c.entries[name]
	if !ok {
		c.mu.Unlock()
		return
	}
	src := e.src
	isReload := e.state == StateReady
	genNum := e.genSeq // pre-assigned by Load/Reload when the job was queued
	deltas := append([]*mutate.Batch(nil), e.deltas...)
	c.mu.Unlock()

	start := time.Now()
	g, h, m, _, err := src.Load(c.cfg.MMap, c.logf)
	if err != nil {
		c.failJob(name, fmt.Errorf("load %s: %w", src, err))
		return
	}
	loaded := time.Now()
	c.advance(name, StateBuilding, isReload)
	if len(deltas) > 0 {
		// Replay the accepted-mutation log so the rebuilt generation carries
		// the graph's logical state, not the base source. A snapshot-carried
		// hierarchy matches the base graph and is dropped.
		base := g
		for i, b := range deltas {
			g2, _, aerr := mutate.Apply(g, b)
			if aerr != nil {
				c.failJob(name, fmt.Errorf("replay delta %d/%d on %s: %w", i+1, len(deltas), src, aerr))
				return
			}
			g = g2
		}
		h = nil
		if m != nil && !g.AliasesArrays(base) {
			// The replay produced fresh arrays; the mapping backs nothing.
			m.Close()
			m = nil
		}
	}
	c.counters.C(cBuilds).Inc()

	gen := c.newGeneration(name, genNum, g, h, m)

	c.mu.Lock()
	e, ok = c.entries[name]
	if !ok || (e.state != StateBuilding && e.state != StateReady) {
		// The entry vanished or changed under us (e.g. unloaded mid-build of
		// a reload); discard the built generation.
		c.mu.Unlock()
		gen.retire()
		return
	}
	if e.state != StateReady {
		e.setState(StateReady)
	}
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
		name, genNum, src, g.NumVertices(), g.NumEdges(), gen.Bytes(), residence,
		loaded.Sub(start).Seconds()*1e3, time.Since(start).Round(time.Millisecond))
}

// advance moves an initial load to its next lifecycle phase; reloads keep
// serving in ready and skip the walk.
func (c *Catalog) advance(name string, next State, isReload bool) {
	if isReload {
		return
	}
	c.mu.Lock()
	if e, ok := c.entries[name]; ok && validNext[e.state][next] {
		e.setState(next)
	}
	c.mu.Unlock()
}

// failJob records a build failure. An initial load lands in failed; a failed
// reload keeps the old generation serving and only records the error.
func (c *Catalog) failJob(name string, err error) {
	c.counters.C(cLoadFailures).Inc()
	c.logf("catalog: %s load failed: %v", name, err)
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return
	}
	e.pending = false
	e.err = err
	if e.state != StateReady && validNext[e.state][StateFailed] {
		e.setState(StateFailed)
	}
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

// WaitReady blocks until the named graph is ready with no build pending, the
// load fails, or the timeout expires. A polling helper for startup paths and
// tests; the serving path uses Acquire directly.
func (c *Catalog) WaitReady(name string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		e, ok := c.entries[name]
		var state State
		var pending bool
		var lastErr error
		if ok {
			state, pending, lastErr = e.state, e.pending, e.err
		}
		c.mu.Unlock()
		switch {
		case !ok:
			return fmt.Errorf("catalog: %w: %q", ErrUnknownGraph, name)
		case state == StateReady && !pending:
			return nil
		case state == StateFailed && !pending:
			return lastErr
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("catalog: graph %q not ready after %s (state %s)", name, timeout, state)
		}
		time.Sleep(2 * time.Millisecond)
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
	// with one (snapshot, repair on a lineage that has demanded it).
	Hierarchy        string  `json:"hierarchy,omitempty"`
	HierarchyBuildMS float64 `json:"hierarchy_build_ms,omitempty"`
}

// Status lists every known graph, sorted by name.
func (c *Catalog) Status() []GraphStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]GraphStatus, 0, len(c.entries))
	for _, e := range c.entries {
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
			gs.MappedBytes = e.gen.MappedBytes
			gs.Bytes = gs.HeapBytes + gs.MappedBytes
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
		gs := obs.GraphState{Name: e.name, State: e.state.String()}
		if e.gen != nil {
			_, gs.Hierarchy, gs.HierarchyBuildMS = e.gen.Hierarchy()
		}
		states = append(states, gs)
		if e.state == StateReady && e.gen != nil {
			ready++
			heapBytes += e.gen.HeapBytes()
			mappedBytes += e.gen.MappedBytes
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
	out["build_workers"] = c.cfg.Workers
	return out
}
