package trace

import (
	"context"
	"sync"
	"time"
)

// maxSpans bounds one trace's span tree. A /batch request may carry thousands
// of items; beyond the cap further spans are counted as dropped instead of
// attached, so a single request can never hold unbounded trace memory.
const maxSpans = 512

// Trace is one request's span tree. It is created by Tracer.StartRequest,
// carried through the request in its context.Context, populated by the layers
// the request crosses, and sealed by Tracer.Finish. All methods are safe for
// concurrent use (batch workers record spans concurrently) and nil-safe, so
// instrumentation sites never branch on whether tracing is enabled.
type Trace struct {
	id       string
	endpoint string
	explicit bool // ID was supplied by the client (always retained)
	start    time.Time

	mu       sync.Mutex
	root     *Span
	nspans   int
	dropped  int64
	graph    string
	solver   string
	backend  string
	status   int
	durUS    int64
	finished bool
}

// Span is one timed stage of a trace. A span is created with StartChild (or
// Trace.StartSpan for a child of the root), optionally annotated with
// SetAttr, and attached to the tree by End; a span that is never ended never
// appears. Once attached a span is immutable.
type Span struct {
	trace    *Trace
	parent   *Span
	name     string
	start    time.Time
	startUS  int64
	durUS    int64
	attrs    map[string]any
	children []*Span
	ended    bool
}

// newTrace builds an unfinished trace with its root span attached.
func newTrace(id, endpoint string, explicit bool) *Trace {
	t := &Trace{id: id, endpoint: endpoint, explicit: explicit, start: time.Now()}
	t.root = &Span{trace: t, name: endpoint, start: t.start}
	t.nspans = 1
	return t
}

// ID returns the trace identifier ("" for a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root returns the root span (nil for a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// StartSpan starts a child of the root span.
func (t *Trace) StartSpan(name string) *Span { return t.Root().StartChild(name) }

// SetGraph records the catalog graph this request resolved to, for
// /debug/traces?graph= filtering.
func (t *Trace) SetGraph(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.finished {
		t.graph = name
	}
	t.mu.Unlock()
}

// SetSolver records the solver the engine picked, for
// /debug/traces?solver= filtering. A batch of mixed solvers keeps the last
// one recorded; per-item solvers live on the item spans.
func (t *Trace) SetSolver(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.finished {
		t.solver = name
	}
	t.mu.Unlock()
}

// SetBackend records the backend a routing tier sent this request to, for
// /debug/traces?backend= filtering. A retried request keeps the last
// (answering) backend; per-attempt backends live on the attempt spans.
func (t *Trace) SetBackend(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.finished {
		t.backend = name
	}
	t.mu.Unlock()
}

// StartChild starts a new span under s. The span is not part of the trace
// until End is called, so an abandoned span (e.g. a singleflight wait that
// turned out to be the leader's own execution) simply never appears.
func (s *Span) StartChild(name string) *Span {
	if s == nil || s.trace == nil {
		return nil
	}
	return &Span{
		trace:   s.trace,
		parent:  s,
		name:    name,
		start:   time.Now(),
		startUS: time.Since(s.trace.start).Microseconds(),
	}
}

// SetAttr annotates the span. Must be called before End; attributes are
// immutable once the span is attached.
func (s *Span) SetAttr(key string, v any) {
	if s == nil || s.ended {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = v
}

// Trace returns the trace this span records into (nil-safe).
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.trace
}

// End stamps the span's duration and attaches it to its parent. Spans ending
// after the trace is finished or beyond the per-trace span cap are counted as
// dropped rather than attached, which keeps finished traces immutable.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.durUS = time.Since(s.start).Microseconds()
	t := s.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finished || t.nspans >= maxSpans {
		t.dropped++
		return
	}
	t.nspans++
	s.parent.children = append(s.parent.children, s)
}

// finish seals the trace: stamps the total duration and status and refuses
// all later span attachment. Returns false if already finished.
func (t *Trace) finish(status int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finished {
		return false
	}
	t.finished = true
	t.status = status
	t.durUS = time.Since(t.start).Microseconds()
	t.root.durUS = t.durUS
	t.root.ended = true
	return true
}

// TraceJSON is the wire form of one finished trace, as served by
// GET /debug/traces.
type TraceJSON struct {
	ID           string    `json:"id"`
	Endpoint     string    `json:"endpoint"`
	Graph        string    `json:"graph,omitempty"`
	Solver       string    `json:"solver,omitempty"`
	Backend      string    `json:"backend,omitempty"`
	Status       int       `json:"status"`
	Start        time.Time `json:"start"`
	DurMS        float64   `json:"dur_ms"`
	DroppedSpans int64     `json:"dropped_spans,omitempty"`
	Spans        *SpanJSON `json:"spans"`
}

// SpanJSON is the wire form of one span. StartUS is the offset from the
// trace's start; children appear in the order they ended.
type SpanJSON struct {
	Name     string         `json:"name"`
	StartUS  int64          `json:"start_us"`
	DurUS    int64          `json:"dur_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*SpanJSON    `json:"children,omitempty"`
}

// Export deep-copies the trace into its JSON form. Safe to call on a live
// trace (the copy is taken under the trace lock), though the ring only ever
// holds finished ones.
func (t *Trace) Export() *TraceJSON {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return &TraceJSON{
		ID:           t.id,
		Endpoint:     t.endpoint,
		Graph:        t.graph,
		Solver:       t.solver,
		Backend:      t.backend,
		Status:       t.status,
		Start:        t.start,
		DurMS:        float64(t.durUS) / 1e3,
		DroppedSpans: t.dropped,
		Spans:        t.root.export(),
	}
}

func (s *Span) export() *SpanJSON {
	out := &SpanJSON{Name: s.name, StartUS: s.startUS, DurUS: s.durUS}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for k, v := range s.attrs {
			out.Attrs[k] = v
		}
	}
	for _, c := range s.children {
		out.Children = append(out.Children, c.export())
	}
	return out
}

// visit walks the attached span tree under the trace lock. Used by the tracer
// to feed stage histograms at finish time.
func (t *Trace) visit(f func(s *Span)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var walk func(*Span)
	walk = func(s *Span) {
		f(s)
		for _, c := range s.children {
			walk(c)
		}
	}
	walk(t.root)
}

// ctxKey keys the current span in a context.
type ctxKey struct{}

// NewContext returns ctx carrying the trace's root span as the current span.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t.root)
}

// WithSpan returns ctx with sp as the current span, so downstream layers
// (engine batch items, nested stages) parent their spans under it.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// SpanFromContext returns the current span, or nil when the request is not
// traced. All Span methods are nil-safe, so callers use the result directly.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// FromContext returns the trace the current span records into, or nil.
func FromContext(ctx context.Context) *Trace { return SpanFromContext(ctx).Trace() }
