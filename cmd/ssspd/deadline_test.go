package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/solver"
)

// slowSolver never finishes on its own: it works in steps of one check
// interval and looks at its context between them, as the exec kernels do
// between bucket phases, and stops once the context has ended. It signals
// when its execution context ended and records when the run stopped.
type slowSolver struct {
	interval  time.Duration
	started   chan struct{}
	cancelled chan struct{}  // the execution context ended
	stopped   chan time.Time // when the run returned
	runs      atomic.Int64
}

func newSlowSolver(interval time.Duration) *slowSolver {
	return &slowSolver{interval: interval, started: make(chan struct{}, 1),
		cancelled: make(chan struct{}, 1), stopped: make(chan time.Time, 1)}
}

func (s *slowSolver) register() solver.Solver {
	return solver.Solver{Name: "slow", NewState: func() solver.State {
		return solver.StateFunc(func(ctx context.Context, _ *solver.Instance, _ []int32) []int64 {
			s.runs.Add(1)
			stop := context.AfterFunc(ctx, func() { s.cancelled <- struct{}{} })
			defer stop()
			s.started <- struct{}{}
			for ctx.Err() == nil {
				time.Sleep(s.interval) // one step of work
			}
			s.stopped <- time.Now()
			return nil
		})
	}}
}

// serve runs one request through the daemon's handlers on the caller's
// goroutine — no listener, so every goroutine the test sees is the server's.
func serve(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, target, strings.NewReader(body)))
	return w
}

// A query past its -timeout stops its solve within one check interval of the
// deadline, and until then holds its admission slot: with -max-inflight 1 a
// request arriving after the deadline but before the solve has stopped is
// shed, the next one after it is admitted, and no goroutine is left behind.
func TestDeadlineStopsTheSolve(t *testing.T) {
	const timeout, interval = 50 * time.Millisecond, 300 * time.Millisecond
	slow := newSlowSolver(interval)
	g, h := testGraph()
	srv := newServer(g, h, "test-instance", catalog.Source{}, serverOptions{
		workers: 2, maxInflight: 1, timeout: timeout,
		engine: engine.Config{CacheEntries: 64, Solvers: append(solver.All(), slow.register())},
	})
	t.Cleanup(srv.cat.Close)
	mux := srv.mux()
	if w := serve(mux, http.MethodGet, "/sssp?src=2", ""); w.Code != http.StatusOK { // warm pools and lazies
		t.Fatalf("warm-up: %d %s", w.Code, w.Body)
	}
	baseline := runtime.NumGoroutine()

	answered := make(chan *httptest.ResponseRecorder, 1)
	start := time.Now() // the request's deadline is at least timeout after this
	go func() { answered <- serve(mux, http.MethodGet, "/sssp?src=1&solver=slow", "") }()
	<-slow.started
	if w := serve(mux, http.MethodGet, "/sssp?src=3", ""); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("a second query while the first solves: %d, want 503", w.Code)
	}
	<-slow.cancelled // the only waiter's deadline has passed
	if w := serve(mux, http.MethodGet, "/sssp?src=3", ""); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("a query after the deadline, before the solve stopped: %d, want 503", w.Code)
	}
	w := <-answered
	stopped := <-slow.stopped
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("the slow query answered %d, want 504", w.Code)
	}
	if lag := stopped.Sub(start.Add(timeout)); lag > interval+100*time.Millisecond {
		t.Fatalf("the solve stopped %v after its only waiter's deadline; the check interval is %v", lag, interval)
	}
	if w := serve(mux, http.MethodGet, "/sssp?src=3", ""); w.Code != http.StatusOK {
		t.Fatalf("the query after the solve stopped: %d, want 200", w.Code)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the slow query", runtime.NumGoroutine(), baseline)
		}
	}
	if n := slow.runs.Load(); n != 1 {
		t.Fatalf("%d slow runs, want 1", n)
	}
}

// A /batch whose deadline passes while an item is solving answers 200: the
// items that finished carry their answers, the one that did not its own 504.
func TestBatchDeadlineMidItem(t *testing.T) {
	slow := newSlowSolver(5 * time.Millisecond)
	g, h := testGraph()
	srv := newServer(g, h, "test-instance", catalog.Source{}, serverOptions{
		workers: 2, maxInflight: 4, timeout: 100 * time.Millisecond,
		engine: engine.Config{CacheEntries: 64, Solvers: append(solver.All(), slow.register())},
	})
	t.Cleanup(srv.cat.Close)
	w := serve(srv.mux(), http.MethodPost, "/batch", `{"queries":[{"src":1},{"src":2,"solver":"slow"},{"src":3}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("code %d, want 200: %s", w.Code, w.Body)
	}
	var resp batchResp
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("%d results, want 3", len(resp.Results))
	}
	for _, i := range []int{0, 2} {
		if it := resp.Results[i]; it.Error != "" || it.Reached == 0 {
			t.Fatalf("item %d: %+v, want an answer", i, it)
		}
	}
	if it := resp.Results[1]; it.Error != "query deadline exceeded" || it.Status != http.StatusGatewayTimeout {
		t.Fatalf("item 1: %+v, want its own 504", it)
	}
}
