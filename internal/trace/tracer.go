package trace

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Config parameterizes a Tracer.
type Config struct {
	// SampleN tail-samples 1 in N finished traces into the ring buffer on top
	// of the slow and explicit-ID retention rules. 0 disables the tracer
	// entirely (StartRequest returns nil and nothing is recorded); 1 retains
	// every trace.
	SampleN int
	// RingSize is the retained-trace ring capacity (default 256).
	RingSize int
	// SlowQuery is the slow-query threshold: a finished trace at least this
	// slow is always retained and logged through Logf. 0 disables the slow
	// path.
	SlowQuery time.Duration
	// Logf receives slow-query lines (default: drop them).
	Logf func(format string, args ...any)
}

// Counter names of Tracer.StatsSnapshot, in snapshot order.
const (
	cStarted      = "traces_started"
	cRetained     = "traces_retained"
	cSampled      = "traces_sampled"
	cSlow         = "slow_queries"
	cDroppedSpans = "spans_dropped"
)

// Tracer records request traces: always-on span recording (cheap per
// request), tail-based retention into a bounded lock-free ring, a slow-query
// log, and per-stage latency histograms aggregated over every finished trace.
// A nil *Tracer is valid and disabled. Safe for concurrent use.
type Tracer struct {
	cfg      Config
	idBase   uint64        // random per-process base XOR'd into generated IDs
	idSeq    atomic.Uint64 // generated-ID sequence
	tailSeq  atomic.Uint64 // finished-trace counter for 1-in-N sampling
	ring     ring
	counters *obs.Group

	stageMu sync.RWMutex
	stages  map[string]*obs.Histogram
}

// New creates a tracer. A SampleN of 0 returns a disabled (but non-nil)
// tracer, which keeps wiring uniform: StartRequest just returns nil traces.
func New(cfg Config) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 256
	}
	t := &Tracer{
		cfg:      cfg,
		counters: obs.NewGroup(cStarted, cRetained, cSampled, cSlow, cDroppedSpans),
		stages:   make(map[string]*obs.Histogram),
	}
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		t.idBase = binary.LittleEndian.Uint64(b[:])
	}
	t.ring.slots = make([]atomic.Pointer[Trace], cfg.RingSize)
	return t
}

// Enabled reports whether the tracer records anything at all.
func (t *Tracer) Enabled() bool { return t != nil && t.cfg.SampleN > 0 }

// NewID returns a fresh 16-hex-digit trace ID: a per-process random base
// XOR'd with a sequence number — unique within the process, no per-request
// entropy read. Hand-rolled hex keeps this off the fmt slow path; it runs
// once per traced request.
func (t *Tracer) NewID() string {
	const hexdigits = "0123456789abcdef"
	v := t.idBase ^ t.idSeq.Add(1)
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// ValidID reports whether a client-supplied X-Trace-Id is acceptable:
// non-empty, at most 64 bytes, and limited to [A-Za-z0-9._-]. Anything else
// is ignored and a fresh ID generated, so a hostile header can neither grow
// memory nor corrupt the log format.
func ValidID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// StartRequest begins a trace for one request. id is the client-supplied
// X-Trace-Id ("" or invalid generates one); client-supplied IDs mark the
// trace for unconditional retention — a client that sends an ID is debugging.
// Returns nil when the tracer is disabled; every downstream recording call is
// nil-safe.
func (t *Tracer) StartRequest(id, endpoint string) *Trace {
	if !t.Enabled() {
		return nil
	}
	explicit := ValidID(id)
	if !explicit {
		id = t.NewID()
	}
	t.counters.C(cStarted).Inc()
	return newTrace(id, endpoint, explicit)
}

// Finish seals a finished request's trace, feeds the stage histograms, and
// applies the tail retention rules: slow traces are logged and retained,
// explicit-ID traces are retained, and 1 in SampleN of everything else is
// retained. Idempotent; a nil trace is a no-op.
func (t *Tracer) Finish(tr *Trace, status int) {
	if t == nil || tr == nil || !tr.finish(status) {
		return
	}
	slow := t.cfg.SlowQuery > 0 && tr.durUS >= t.cfg.SlowQuery.Microseconds()
	tr.visit(func(s *Span) {
		t.stage(s.name).Observe(time.Duration(s.durUS) * time.Microsecond)
	})
	if tr.dropped > 0 {
		t.counters.C(cDroppedSpans).Add(tr.dropped)
	}
	sampled := t.tailSeq.Add(1)%uint64(t.cfg.SampleN) == 0
	if sampled {
		t.counters.C(cSampled).Inc()
	}
	if slow {
		t.counters.C(cSlow).Inc()
		if t.cfg.Logf != nil {
			t.cfg.Logf("slowquery trace=%s endpoint=%s graph=%q solver=%s status=%d dur=%s stages=[%s]",
				tr.id, tr.endpoint, tr.graph, tr.solver, status,
				(time.Duration(tr.durUS) * time.Microsecond).String(), stageLine(tr))
		}
	}
	if slow || sampled || tr.explicit {
		t.counters.C(cRetained).Inc()
		t.ring.put(tr)
	}
}

// stageLine renders the root's direct children as "name=dur" pairs for the
// slow-query log line.
func stageLine(tr *Trace) string {
	var b strings.Builder
	tr.mu.Lock()
	for i, c := range tr.root.children {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", c.name, time.Duration(c.durUS)*time.Microsecond)
	}
	tr.mu.Unlock()
	return b.String()
}

// stage returns the histogram for a span name, creating it on first use. The
// name set is small and fixed by the instrumentation sites, so the lazy map
// stays tiny; lookups take the read lock only.
func (t *Tracer) stage(name string) *obs.Histogram {
	t.stageMu.RLock()
	h, ok := t.stages[name]
	t.stageMu.RUnlock()
	if ok {
		return h
	}
	t.stageMu.Lock()
	defer t.stageMu.Unlock()
	if h, ok = t.stages[name]; ok {
		return h
	}
	h = obs.NewHistogram(nil)
	t.stages[name] = h
	return h
}

// Filter selects traces for Traces: zero values match everything.
type Filter struct {
	// MinDur keeps traces at least this slow.
	MinDur time.Duration
	// Graph keeps traces that resolved to this catalog graph.
	Graph string
	// Solver keeps traces whose (last) solver matches.
	Solver string
	// Backend keeps traces a routing tier sent to this backend.
	Backend string
	// Limit caps the result count (0 = all retained traces).
	Limit int
}

// Traces returns the retained traces matching f, newest first, exported to
// their JSON form.
func (t *Tracer) Traces(f Filter) []*TraceJSON {
	if t == nil {
		return nil
	}
	all := t.ring.snapshot()
	sort.Slice(all, func(i, j int) bool { return all[i].start.After(all[j].start) })
	out := make([]*TraceJSON, 0, len(all))
	for _, tr := range all {
		if f.MinDur > 0 && tr.durUS < f.MinDur.Microseconds() {
			continue
		}
		if f.Graph != "" && tr.graph != f.Graph {
			continue
		}
		if f.Solver != "" && tr.solver != f.Solver {
			continue
		}
		if f.Backend != "" && tr.backend != f.Backend {
			continue
		}
		out = append(out, tr.Export())
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// Retained reports how many traces the ring currently holds (≤ RingSize).
func (t *Tracer) Retained() int {
	if t == nil {
		return 0
	}
	return len(t.ring.snapshot())
}

// Counter returns the named tracer counter (see the c* snapshot names).
// Unknown names panic.
func (t *Tracer) Counter(name string) int64 { return t.counters.C(name).Value() }

// StatsSnapshot returns the tracer's observable state for a /metrics
// endpoint: retention counters, configuration, and the per-stage latency
// histograms every finished trace fed.
func (t *Tracer) StatsSnapshot() map[string]any {
	if t == nil {
		return map[string]any{"enabled": false}
	}
	out := make(map[string]any, 8)
	for k, v := range t.counters.Snapshot() {
		out[k] = v
	}
	out["enabled"] = t.Enabled()
	out["sample_n"] = t.cfg.SampleN
	out["ring_size"] = t.cfg.RingSize
	out["ring_held"] = t.Retained()
	out["slow_query_ms"] = float64(t.cfg.SlowQuery) / 1e6
	stages := make(map[string]obs.HistogramSnapshot, 8)
	t.stageMu.RLock()
	for name, h := range t.stages {
		stages[name] = h.Snapshot()
	}
	t.stageMu.RUnlock()
	out["stages"] = stages
	return out
}

// ring is a bounded lock-free overwrite buffer: writers claim a slot with one
// atomic add and store unconditionally; the newest RingSize traces survive.
// Concurrent writers can never grow it past its bound because the slot array
// is fixed at construction.
type ring struct {
	seq   atomic.Uint64
	slots []atomic.Pointer[Trace]
}

func (r *ring) put(t *Trace) {
	i := r.seq.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(t)
}

func (r *ring) snapshot() []*Trace {
	out := make([]*Trace, 0, len(r.slots))
	for i := range r.slots {
		if t := r.slots[i].Load(); t != nil {
			out = append(out, t)
		}
	}
	return out
}
