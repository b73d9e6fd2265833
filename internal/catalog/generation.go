package catalog

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ch"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/snapshot"
	"repro/internal/solver"
)

// State is a graph's position in the catalog lifecycle:
//
//	loading ──▶ ready ──▶ draining ──▶ evicted
//	   │                                  │
//	   └──▶ failed ─────────(load)────────┘
//
// Load and Reload take an entry through loading inside the call. A reload of
// a ready graph does not leave ready: the new generation is built off to the
// side while the old one keeps serving, and the swap is a single pointer
// exchange. A mutation never leaves ready either. Draining becomes evicted
// under the catalog lock: at once when no query holds the generation, else at
// the first read of the entry after its last release.
type State int32

const (
	// StateLoading: the graph source (snapshot, DIMACS file, or generator) is
	// being read, its delta log replayed and its engine made. No Component
	// Hierarchy is built: one the source did not carry is built by the first
	// query that names a solver which reads it.
	StateLoading State = iota
	// StateReady: serving queries.
	StateReady
	// StateDraining: removed from service; in-flight queries on the final
	// generation are completing.
	StateDraining
	// StateEvicted: fully out of memory; the source is remembered so a load
	// can bring the graph back.
	StateEvicted
	// StateFailed: the last load or build errored; the error is retained and
	// a new load may retry.
	StateFailed
)

func (s State) String() string {
	switch s {
	case StateLoading:
		return "loading"
	case StateReady:
		return "ready"
	case StateDraining:
		return "draining"
	case StateEvicted:
		return "evicted"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// validNext encodes the lifecycle edges. Transitions are entirely internal to
// the package, so an invalid one is a programming error and panics rather
// than limping on with a corrupted lifecycle.
var validNext = map[State]map[State]bool{
	StateLoading:  {StateReady: true, StateFailed: true},
	StateReady:    {StateDraining: true},
	StateDraining: {StateEvicted: true},
	StateEvicted:  {StateLoading: true},
	StateFailed:   {StateLoading: true},
}

// Generation is one immutable graph installed under a name, with the
// Component Hierarchy its source carried or a query has built, if any, and
// its generation of the name's engine. Queries acquire a generation, run
// against it, and release it; a swap retires the old generation, which stays
// fully usable until its last in-flight query releases, then reports itself
// drained. No graph is ever mutated in place — a write or reload installs a
// new Generation; the engine, its counters, pooled solver states and result
// cache, is the name's and outlives the swap.
type Generation struct {
	// Name is the catalog name this generation serves.
	Name string
	// Gen is the monotonically increasing generation number within the name.
	Gen uint64
	// G is the graph. Engine runs queries on this generation (Query, Batch);
	// what it counts, pools and caches is the engine's, shared by every
	// generation of the name, and its cache answers for the serving one only.
	G      *graph.Graph
	Engine *engine.Gen
	// ParentGen and DeltaSize record delta lineage: a generation produced by
	// a mutation names the generation it was derived from and how many ops
	// the delta carried. Both are zero for generations built from source.
	ParentGen uint64
	DeltaSize int

	// mapping, when non-nil, owns the mmap'd file the arrays alias: the
	// generation is a snapshot as loaded. Only it reads the file (a write or
	// a reload's replay copies what it would share: apply), and it is closed
	// exactly once, after the generation is retired and the last in-flight
	// query has released — never while a query can still read the arrays.
	mapping *snapshot.Mapping

	// in is the solver instance under Engine: it alone knows whether a
	// hierarchy exists. heap is what the generation was made with on the
	// process heap (nothing of a mapped snapshot).
	in   *solver.Instance
	heap int64

	refs        atomic.Int64
	retired     atomic.Bool
	drainedOnce sync.Once
	drained     chan struct{}
}

// newGeneration wraps g, the hierarchy that came with it (nil: none, and none
// is built until a query demands it) and a generation over them of from's
// engine, which serves it from its Swap (from nil: of a new engine, which
// serves it). What the instance builds on demand reports to builtOnDemand.
func (c *Catalog) newGeneration(name string, gen uint64, from *Generation, g *graph.Graph, h *ch.Hierarchy, m *snapshot.Mapping) *Generation {
	in := solver.NewInstanceWithHierarchy(g, c.rt, h)
	gn := &Generation{
		Name:    name,
		Gen:     gen,
		G:       g,
		mapping: m,
		in:      in,
		drained: make(chan struct{}),
	}
	if from == nil {
		gn.Engine = engine.New(in, c.cfg.Engine)
	} else {
		gn.Engine = from.Engine.Next(in)
	}
	// The hook must not hold gn: a drained generation is garbage at once.
	in.OnDerived = func(kind string, bytes int64, ms float64) { c.builtOnDemand(name, gen, kind, bytes, ms) }
	if m == nil {
		gn.heap = g.MemoryBytes()
		if h != nil {
			gn.heap += h.Bytes()
		}
	}
	return gn
}

// Hierarchy is solver.Instance.HierarchyState: the hierarchy as it stands, its
// state ("unbuilt", "carried", "built") and build ms; it never builds or waits.
func (g *Generation) Hierarchy() (*ch.Hierarchy, string, float64) { return g.in.HierarchyState() }

// Built is solver.Instance.Built: what a query has built on demand on this
// generation so far; it never builds or waits.
func (g *Generation) Built() map[string]int64 { return g.in.Built() }

// HeapBytes is what the generation costs in process heap right now: what it
// was made with that does not alias a file mapping, plus whatever a query has
// built on demand, counted from the moment the build lands.
func (g *Generation) HeapBytes() int64 {
	b := g.heap
	for _, bytes := range g.Built() {
		b += bytes
	}
	return b
}

// MappedBytes is the size of the snapshot file the generation serves from
// (zero for a heap-backed one). Mapped pages are reclaimable page cache, not
// heap, but still count against the budget: they are the working set a query
// touches.
func (g *Generation) MappedBytes() int64 { return g.mapping.Bytes() }

// Bytes is what the memory budget is charged: HeapBytes + MappedBytes.
func (g *Generation) Bytes() int64 { return g.HeapBytes() + g.MappedBytes() }

// Mapped reports whether this generation serves straight from an mmap'd
// snapshot.
func (g *Generation) Mapped() bool { return g.mapping != nil }

// finishDrain runs the end-of-life sequence exactly once: unmap the backing
// file (no query can hold the arrays anymore — the last reference is gone
// and the generation is retired), then announce drained. What the generation
// holds on the heap, its graph and what its queries derived, is garbage from
// here, and the collector's own pacing reclaims it (DESIGN.md §9).
func (g *Generation) finishDrain() {
	g.drainedOnce.Do(func() {
		g.mapping.Close()
		close(g.drained)
	})
}

// acquire takes a reference. Callers hold the catalog lock, which is what
// orders acquire against retire: a generation is only handed out while it is
// the entry's current one, and retire happens after the swap.
func (g *Generation) acquire() { g.refs.Add(1) }

// release drops a reference; the last release of a retired generation unmaps
// its backing file and closes the drained channel.
func (g *Generation) release() {
	if g.refs.Add(-1) == 0 && g.retired.Load() {
		g.finishDrain()
	}
}

// retire marks the generation as no longer current. In-flight queries keep
// their references and finish normally; once the count reaches zero the
// mapping is unmapped and the drained channel closes. Idempotent.
func (g *Generation) retire() {
	g.retired.Store(true)
	if g.refs.Load() == 0 {
		g.finishDrain()
	}
}

// Drained is closed once the generation is retired, its last in-flight
// query has released, and any backing mapping is unmapped.
func (g *Generation) Drained() <-chan struct{} { return g.drained }

// InFlight reports the current reference count.
func (g *Generation) InFlight() int64 { return g.refs.Load() }
