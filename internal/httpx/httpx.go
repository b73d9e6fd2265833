// Package httpx is the HTTP serving skeleton cmd/ssspd and internal/router
// (cmd/ssspr) share: the status-capturing response writer, the JSON and error
// writers, the per-request middleware, the /debug/traces parameter parsing,
// and the listen/drain/shutdown loop. It holds only what is identical in both
// daemons and never branches on which one called it; what differs —
// ssspd's semaphore admission, the router's "any 503 is a shed" — stays with
// its owner as an inner handler around the wrapped one.
package httpx

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Recorder captures the status code and body size of a response. The first
// WriteHeader wins; a body written without one is an implicit 200.
type Recorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *Recorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *Recorder) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Status is the response's status code (200 until something else is written).
func (w *Recorder) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// Bytes is the number of body bytes written so far.
func (w *Recorder) Bytes() int64 { return w.bytes }

// Unwrap lets http.ResponseController reach the connection under the
// Recorder (a handler's write deadline, for one).
func (w *Recorder) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// WriteJSON answers with v as a JSON body. The content type is set before the
// status line goes out, so non-200 answers are typed too.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("httpx: encode: %v", err)
	}
}

// Error answers with the daemons' common error body, {"error": msg}.
func Error(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, map[string]string{"error": msg})
}

// DecodeStrict decodes a request body holding exactly one JSON value into v:
// an unknown field, or anything but white space after the value, is an error.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// Middleware is the per-request skeleton around every endpoint of a daemon.
type Middleware struct {
	Metrics *obs.Registry
	Tracer  *trace.Tracer
	// Timeout is the per-request deadline of query endpoints (0 disables).
	Timeout time.Duration
	// AccessLog, when set, is called once per finished request.
	AccessLog func(endpoint string, r *http.Request, w *Recorder, d time.Duration)
}

// Wrap instruments h as the named endpoint: in-flight gauge, request count,
// latency histogram, status classes, the timeout counter (504s) and the
// access-log hook. A query endpoint additionally gets a trace — started
// under the client's X-Trace-Id when one is supplied, the resolved ID echoed
// in the response header either way, finished and handed to the tracer when h
// returns — and the Timeout deadline on its context. h is handed the
// *Recorder as its ResponseWriter.
func (m *Middleware) Wrap(name string, query bool, h http.HandlerFunc) http.HandlerFunc {
	ep := m.Metrics.Endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ep.InFlight.Inc()
		defer ep.InFlight.Dec()
		rw := &Recorder{ResponseWriter: w}
		var tr *trace.Trace
		if query {
			tr = m.Tracer.StartRequest(r.Header.Get("X-Trace-Id"), name)
			if tr != nil {
				rw.Header().Set("X-Trace-Id", tr.ID())
				r = r.WithContext(trace.NewContext(r.Context(), tr))
			}
			if m.Timeout > 0 {
				ctx, cancel := context.WithTimeout(r.Context(), m.Timeout)
				defer cancel()
				r = r.WithContext(ctx)
			}
		}
		h(rw, r)
		d := time.Since(start)
		ep.Requests.Inc()
		ep.Latency.Observe(d)
		ep.RecordStatus(rw.Status())
		if rw.Status() == http.StatusGatewayTimeout {
			ep.Timeout.Inc()
		}
		m.Tracer.Finish(tr, rw.Status())
		if m.AccessLog != nil {
			m.AccessLog(name, r, rw, d)
		}
	}
}

// TraceFilter parses the /debug/traces parameters both daemons accept:
// ?graph= matches the trace's resolved graph, ?min_ms= keeps traces at least
// that slow, ?limit= caps the count (default 50). The caller completes the
// filter with its own dimension (Solver or Backend). On a malformed parameter
// the 400 is already written and ok is false.
func TraceFilter(w http.ResponseWriter, r *http.Request) (f trace.Filter, ok bool) {
	q := r.URL.Query()
	f = trace.Filter{Graph: q.Get("graph"), Limit: 50}
	if raw := q.Get("min_ms"); raw != "" {
		ms, err := strconv.ParseFloat(raw, 64)
		if err != nil || ms < 0 {
			Error(w, http.StatusBadRequest, "min_ms must be a non-negative number of milliseconds")
			return f, false
		}
		f.MinDur = time.Duration(ms * float64(time.Millisecond))
	}
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			Error(w, http.StatusBadRequest, "limit must be a positive integer")
			return f, false
		}
		f.Limit = n
	}
	return f, true
}

// WriteTraces answers /debug/traces: the tracer's retained traces matching f,
// newest first.
func WriteTraces(w http.ResponseWriter, t *trace.Tracer, f trace.Filter) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"enabled": t.Enabled(),
		"held":    t.Retained(),
		"traces":  t.Traces(f),
	})
}

// Serve runs handler on addr until ctx is cancelled, then shuts the server
// down gracefully, giving in-flight requests up to drain to complete. A
// listen failure returns at once. queryTimeout is the daemon's per-request
// query deadline: the write timeout must outlive the slowest admitted query
// plus the serialisation of a full=1 distance vector (megabytes), and is
// unlimited when queries are — Shutdown's drain budget bounds them instead.
func Serve(ctx context.Context, addr string, handler http.Handler, queryTimeout, drain time.Duration, logPrefix string) error {
	hs := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	if queryTimeout > 0 {
		hs.WriteTimeout = queryTimeout + 30*time.Second
	}
	errc := make(chan error, 1)
	go func() {
		if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()
	select {
	case err := <-errc:
		return err // listen failed before any shutdown signal
	case <-ctx.Done():
	}
	log.Printf("%s: shutdown signal, draining in-flight requests (budget %s)", logPrefix, drain)
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return <-errc
}
