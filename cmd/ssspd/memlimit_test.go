package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/gen"
)

// pacedGoal is the heap goal the runtime's pacer sets under a memory limit
// when overhead bytes of it are not heap (memoryLimitHeapGoal in the
// runtime's mgcpacer.go): the rest less 3% of it, at least 1 MiB, and never
// below the live heap.
func pacedGoal(limit, overhead, live int64) int64 {
	goal := limit - overhead
	headroom := max(goal/100*3, 1<<20)
	if goal < 2*headroom {
		goal = headroom
	} else {
		goal -= headroom
	}
	return max(goal, live)
}

func TestMemoryLimitRule(t *testing.T) {
	const mib = 1 << 20
	for _, tc := range []struct {
		name            string
		live, accounted int64
		want            int64 // the heap goal
	}{
		{"accounted below live", 200 * mib, 100 * mib, 300 * mib},
		{"accounted above live", 50 * mib, 80 * mib, 112 * mib},
		{"other below the floor", 70 * mib, 64 * mib, 96 * mib},
		{"nothing accounted", 40 * mib, 0, 80 * mib},
		{"empty heap", 0, 0, 32 * mib},
		{"large catalog", 4<<30 + 8*mib, 4 << 30, 4<<30 + 32*mib},
		{"large catalog, large other", 6 << 30, 4 << 30, 8 << 30},
	} {
		if got := heapGoal(tc.live, tc.accounted); got != tc.want {
			t.Errorf("%s: heapGoal(%d MiB, %d MiB) = %d MiB, want %d MiB", tc.name, tc.live/mib, tc.accounted/mib, got/mib, tc.want/mib)
		}
		for _, overhead := range []int64{0, 8 * mib, tc.live / 20, 512 * mib} {
			limit := memoryLimit(tc.live, tc.accounted, overhead)
			goal := pacedGoal(limit, overhead, tc.live)
			if goal < tc.live+memFloor || goal < tc.want || goal > tc.want+tc.want/256+mib {
				t.Errorf("%s, overhead %d MiB: limit %d MiB paces the heap at %.1f MiB over live %d MiB, want %d MiB",
					tc.name, overhead/mib, limit/mib, float64(goal)/mib, tc.live/mib, tc.want/mib)
			}
		}
	}
}

// hookLimit installs the memory-limit hook over accounted as main does, and
// returns a channel that receives every limit it sets. The hook is stopped and
// the limit lifted when the test ends.
func hookLimit(t *testing.T, accounted func() int64) <-chan int64 {
	t.Helper()
	t.Setenv("GOGC", "")
	t.Setenv("GOMEMLIMIT", "")
	set := make(chan int64, 1)
	stop := limitMemory(accounted, func(limit int64) int64 {
		old := debug.SetMemoryLimit(limit)
		select {
		case set <- limit:
		default:
		}
		return old
	})
	if stop == nil {
		t.Fatal("no hook installed with GOGC and GOMEMLIMIT unset")
	}
	t.Cleanup(func() {
		stop()
		debug.SetMemoryLimit(math.MaxInt64)
	})
	return set
}

// forceLimit runs a GC cycle and waits for the hook's run after it, until the
// limit in force is the rule for the live heap that cycle measured, what
// accounted says now and the runtime's overhead give or take drift (the
// overhead moves by a few spans between the hook's sample and this one). A
// second round happens only when an earlier cycle's run was still queued when
// this one began; none waits on a clock.
func forceLimit(t *testing.T, set <-chan int64, accounted func() int64) (limit, live, acc int64) {
	t.Helper()
	const drift = 1 << 20
	var overhead int64
	for round := 0; round < 5; round++ {
		select {
		case <-set:
		default:
		}
		runtime.GC()
		select {
		case <-set:
		case <-time.After(time.Minute):
			t.Fatal("the hook did not run after a forced GC cycle")
		}
		live, overhead = memSample()
		acc, limit = accounted(), debug.SetMemoryLimit(-1)
		if d := limit - memoryLimit(live, acc, overhead); -drift <= d && d <= drift {
			return limit, live, acc
		}
	}
	t.Fatalf("limit %d, want memoryLimit(live %d, accounted %d, overhead %d) = %d", limit, live, acc, overhead, memoryLimit(live, acc, overhead))
	return
}

func TestMemoryLimitHook(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // only forced cycles: each run follows one
	_, srv, _ := testServerOpts(t, 8, time.Minute)

	var stray atomic.Int64
	for _, env := range []string{"GOGC", "GOMEMLIMIT"} {
		t.Run(env, func(t *testing.T) {
			t.Setenv(env, map[string]string{"GOGC": "100", "GOMEMLIMIT": "1GiB"}[env])
			if stop := limitMemory(srv.cat.AccountedBytes, func(int64) int64 { stray.Add(1); return 0 }); stop != nil {
				stop()
				t.Fatalf("%s set: a hook was installed", env)
			}
		})
	}

	set := hookLimit(t, srv.cat.AccountedBytes)
	limit, live, acc := forceLimit(t, set, srv.cat.AccountedBytes)
	if acc <= 0 || limit < live+memFloor+(1<<20) {
		t.Fatalf("accounted %d, limit %d for live %d", acc, limit, live)
	}
	if n := stray.Load(); n != 0 {
		t.Fatalf("a hook refused by the environment set the limit %d times", n)
	}
}

// The hook runs on the runtime's finalizer goroutine, at the same time as
// swaps and /metrics scrapes read and change what it sums.
func TestMemoryLimitHookUnderSwaps(t *testing.T) {
	ts, srv, g := testServerOpts(t, 8, time.Minute)
	set := hookLimit(t, srv.cat.AccountedBytes)

	const rounds = 8
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			for _, path := range []string{"/metrics", "/graphs", fmt.Sprintf("/sssp?src=%d&full=1", i)} {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			runtime.GC()
			select {
			case <-set:
			case <-time.After(time.Minute):
				t.Error("the hook did not run after a forced GC cycle")
				return
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		body := mutateBody(t, pickEdges(g, 2, uint32(i+1)))
		if code := postJSON(t, ts.URL+"/graphs/test-instance/mutate", body, &map[string]any{}); code != 200 {
			t.Errorf("mutate %d: %d", i, code)
			break
		}
	}
	wg.Wait()
	var m struct {
		Runtime struct {
			MemoryLimit int64 `json:"memory_limit_bytes"`
		} `json:"runtime"`
		Catalog struct {
			Accounted int64 `json:"accounted_bytes"`
		} `json:"catalog"`
	}
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Runtime.MemoryLimit == math.MaxInt64 || m.Catalog.Accounted <= 0 {
		t.Fatalf("/metrics after the hook ran: runtime.memory_limit_bytes %d, catalog.accounted_bytes %d",
			m.Runtime.MemoryLimit, m.Catalog.Accounted)
	}
}

// A full result cache is paced at its size, not twice it: with the hook, the
// heap goal after a cycle sits below the 2 x live heap GOGC=100 alone would
// give, and at the rule's heap goal, which leaves at least memFloor over live.
func TestAccountedHeapIsNotDoubled(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	g := gen.Random(1<<12, 4<<12, 1<<10, gen.UWD, 3)
	srv := newServer(g, nil, "rand12", catalog.Source{}, serverOptions{
		workers: 2, maxInflight: 4, timeout: time.Minute,
		engine: engine.Config{CacheEntries: 1 << 20, CacheBytes: 32 << 20},
	})
	t.Cleanup(srv.cat.Close)
	mux := srv.mux()
	set := hookLimit(t, srv.cat.AccountedBytes)

	// solve answers srcs in one /batch with the vectors: each item is its own
	// cache entry, JSON included, as a /sssp?full=1 is.
	solve := func(srcs ...int) {
		items := make([]string, len(srcs))
		for i, src := range srcs {
			items[i] = fmt.Sprintf(`{"src":%d}`, src)
		}
		body := `{"full":true,"queries":[` + strings.Join(items, ",") + `]}`
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest("POST", "/batch", strings.NewReader(body)))
		if w.Code != 200 {
			t.Fatalf("batch of %d from %d: %d", len(srcs), srcs[0], w.Code)
		}
	}
	solve(0)
	gn, release, err := srv.cat.Acquire("rand12")
	if err != nil {
		t.Fatal(err)
	}
	perEntry := gn.Engine.CacheBytes()
	release()
	sources := 3 * int(32<<20/perEntry)
	if sources > g.NumVertices() {
		t.Fatalf("%d sources of %d bytes each do not fit a %d-vertex graph", sources, perEntry, g.NumVertices())
	}
	for src := 1; src < sources; src += 64 {
		batch := make([]int, 0, 64)
		for v := src; v < min(src+64, sources); v++ {
			batch = append(batch, v)
		}
		solve(batch...)
	}

	limit, live, acc := forceLimit(t, set, srv.cat.AccountedBytes)
	s := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
	metrics.Read(s)
	goal := int64(s[0].Value.Uint64())
	t.Logf("live %d MiB, accounted %d MiB, limit %d MiB, heap goal %d MiB", live>>20, acc>>20, limit>>20, goal>>20)
	if acc < 24<<20 {
		t.Fatalf("accounted %d bytes: the cache did not fill", acc)
	}
	const slack = 4 << 20
	if want := heapGoal(live, acc); goal >= 2*live || goal < want-slack || goal > want+slack {
		t.Fatalf("heap goal %d, want below 2 x live (%d) and the rule's %d ± %d", goal, 2*live, want, slack)
	}
	if goal < live+memFloor-slack {
		t.Fatalf("heap goal %d leaves %d bytes over live %d", goal, goal-live, live)
	}
}
