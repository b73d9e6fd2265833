package httpx

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

func TestRecorder(t *testing.T) {
	t.Run("implicit 200 and byte count", func(t *testing.T) {
		rec := httptest.NewRecorder()
		w := &Recorder{ResponseWriter: rec}
		if w.Status() != http.StatusOK || w.Bytes() != 0 {
			t.Fatalf("fresh recorder: status %d bytes %d", w.Status(), w.Bytes())
		}
		w.Write([]byte("hello"))
		w.Write([]byte(", world"))
		if w.Status() != http.StatusOK || w.Bytes() != 12 || rec.Code != http.StatusOK {
			t.Fatalf("after writes: status %d bytes %d wire %d", w.Status(), w.Bytes(), rec.Code)
		}
		// A WriteHeader after the body started cannot change what was sent.
		w.WriteHeader(http.StatusTeapot)
		if w.Status() != http.StatusOK {
			t.Fatalf("late WriteHeader changed the recorded status to %d", w.Status())
		}
	})
	t.Run("first WriteHeader wins", func(t *testing.T) {
		rec := httptest.NewRecorder()
		w := &Recorder{ResponseWriter: rec}
		w.WriteHeader(http.StatusAccepted)
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte("x"))
		if w.Status() != http.StatusAccepted || rec.Code != http.StatusAccepted || w.Bytes() != 1 {
			t.Fatalf("status %d wire %d bytes %d, want 202/202/1", w.Status(), rec.Code, w.Bytes())
		}
	})
}

// The content type must be on the wire with the status line, whatever the
// status: a header set after WriteHeader is silently dropped by net/http.
func TestWriteJSONTypesEveryStatus(t *testing.T) {
	for _, status := range []int{http.StatusOK, http.StatusAccepted, http.StatusServiceUnavailable} {
		rec := httptest.NewRecorder()
		WriteJSON(rec, status, map[string]int{"a": 1})
		if rec.Code != status || rec.Header().Get("Content-Type") != "application/json" ||
			strings.TrimSpace(rec.Body.String()) != `{"a":1}` {
			t.Fatalf("status %d: got %d %q %q", status, rec.Code, rec.Header().Get("Content-Type"), rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	Error(rec, http.StatusNotFound, "no such thing")
	if rec.Code != http.StatusNotFound || rec.Header().Get("Content-Type") != "application/json" ||
		strings.TrimSpace(rec.Body.String()) != `{"error":"no such thing"}` {
		t.Fatalf("Error: got %d %q %q", rec.Code, rec.Header().Get("Content-Type"), rec.Body)
	}
}

func TestTraceFilter(t *testing.T) {
	accepted := []struct {
		query string
		want  trace.Filter
	}{
		{"", trace.Filter{Limit: 50}},
		{"graph=g1", trace.Filter{Graph: "g1", Limit: 50}},
		{"min_ms=2.5&limit=3", trace.Filter{MinDur: 2500 * time.Microsecond, Limit: 3}},
		{"min_ms=0", trace.Filter{Limit: 50}},
		// The daemons' own dimensions are not this parser's business.
		{"solver=delta&backend=b1", trace.Filter{Limit: 50}},
	}
	for _, tc := range accepted {
		rec := httptest.NewRecorder()
		f, ok := TraceFilter(rec, httptest.NewRequest("GET", "/debug/traces?"+tc.query, nil))
		if !ok || f != tc.want {
			t.Errorf("?%s: got %+v ok=%v, want %+v", tc.query, f, ok, tc.want)
		}
	}
	for _, query := range []string{"min_ms=-1", "min_ms=abc", "limit=0", "limit=-4", "limit=x", "limit=1.5"} {
		rec := httptest.NewRecorder()
		if _, ok := TraceFilter(rec, httptest.NewRequest("GET", "/debug/traces?"+query, nil)); ok {
			t.Errorf("?%s accepted", query)
		}
		if rec.Code != http.StatusBadRequest || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("?%s: answered %d %q, want a JSON 400", query, rec.Code, rec.Header().Get("Content-Type"))
		}
	}
}

// The middleware's contract with its inner handler and its hook: the handler
// is handed the Recorder, a query endpoint carries a trace and a deadline and
// a plain one neither, and the hook fires once with the final status.
func TestWrap(t *testing.T) {
	var logged []string
	mw := &Middleware{
		Metrics: obs.NewRegistry("plain", "query"),
		Tracer:  trace.New(trace.Config{SampleN: 1, RingSize: 4}),
		Timeout: time.Minute,
		AccessLog: func(name string, r *http.Request, w *Recorder, d time.Duration) {
			logged = append(logged, name+" "+http.StatusText(w.Status()))
		},
	}
	inner := func(w http.ResponseWriter, r *http.Request) {
		if _, ok := w.(*Recorder); !ok {
			t.Errorf("%s: handler got a %T, want *Recorder", r.URL.Path, w)
		}
		_, hasDeadline := r.Context().Deadline()
		traced := trace.FromContext(r.Context()) != nil
		if want := r.URL.Path == "/query"; hasDeadline != want || traced != want {
			t.Errorf("%s: deadline=%v traced=%v, want both %v", r.URL.Path, hasDeadline, traced, want)
		}
		Error(w, http.StatusGatewayTimeout, "too slow")
	}
	for _, name := range []string{"plain", "query"} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", "/"+name, nil)
		req.Header.Set("X-Trace-Id", "client-chosen")
		mw.Wrap(name, name == "query", inner)(rec, req)
		if echoed := rec.Header().Get("X-Trace-Id"); (echoed == "client-chosen") != (name == "query") {
			t.Errorf("%s: X-Trace-Id echo %q", name, echoed)
		}
		snap := mw.Metrics.Snapshot()[name]
		if snap.Requests != 1 || snap.Timeout != 1 || snap.Shed != 0 || snap.InFlight != 0 {
			t.Errorf("%s: metrics %+v, want 1 request, 1 timeout, 0 shed, 0 in flight", name, snap)
		}
	}
	if len(logged) != 2 || logged[0] != "plain Gateway Timeout" || logged[1] != "query Gateway Timeout" {
		t.Fatalf("access hook calls: %q", logged)
	}
	if mw.Tracer.Retained() != 1 {
		t.Fatalf("retained %d traces, want the query endpoint's one", mw.Tracer.Retained())
	}
}

// freeAddr returns a loopback address nothing is listening on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// Clean drain returns nil.
func TestServeHelperShutsDownCleanly(t *testing.T) {
	addr := freeAddr(t)
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- Serve(ctx, addr, handler, time.Minute, 5*time.Second, "httpx-test")
	}()
	// Wait until the server answers, proving ListenAndServe is up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
}

// A listen failure returns at once, without waiting for a shutdown signal.
func TestServeListenFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() // keeps the port taken
	done := make(chan error, 1)
	go func() {
		done <- Serve(context.Background(), ln.Addr().String(), http.NotFoundHandler(), 0, time.Second, "httpx-test")
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Serve on a taken port returned nil")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not report the listen failure")
	}
}
