package main

import (
	"fmt"
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

func TestMemoryLimitRule(t *testing.T) {
	const mib = 1 << 20
	for _, tc := range []struct {
		name            string
		live, accounted int64
		want            int64 // the heap goal
		percent         int
	}{
		{"accounted below live", 200 * mib, 100 * mib, 300 * mib, 50},
		{"accounted above live", 50 * mib, 80 * mib, 88 * mib, 76},
		{"other below the floor", 70 * mib, 67 * mib, 75 * mib, 8},
		{"graph and s-t index, no cache", 12 * mib, 9 * mib, 17 * mib, 42},
		{"nothing accounted", 40 * mib, 0, 80 * mib, 100},
		{"small heap", 2 * mib, 0, 8 * mib, 100},
		{"empty heap", 0, 0, 8 * mib, 100},
		{"large catalog", 4<<30 + 8*mib, 4 << 30, 4<<30 + 16*mib, 1},
		{"large catalog, large other", 6 << 30, 4 << 30, 8 << 30, 34},
	} {
		if got := heapGoal(tc.live, tc.accounted); got != tc.want {
			t.Errorf("%s: heapGoal(%d MiB, %d MiB) = %d MiB, want %d MiB", tc.name, tc.live/mib, tc.accounted/mib, got/mib, tc.want/mib)
		}
		p := gcPercent(tc.live, tc.accounted)
		if p != tc.percent {
			t.Errorf("%s: gcPercent = %d, want %d", tc.name, p, tc.percent)
		}
		// The runtime paces at live·(1 + p/100): on the rule's goal, over it by
		// at most 1% of live where p rounds up, and under it where 100 caps p.
		paced := tc.live + tc.live*int64(p)/100
		if p < 100 && (paced < tc.want || paced > tc.want+tc.live/100) || p == 100 && paced > tc.want {
			t.Errorf("%s: GOGC=%d paces live %d MiB at %.1f MiB, want %d MiB", tc.name, p, tc.live/mib, float64(paced)/mib, tc.want/mib)
		}
	}
}

// hookPercent installs the pacing hook over accounted as main does, and
// returns a channel that receives every percent it sets. The hook is stopped
// and the percent it found restored when the test ends.
func hookPercent(t *testing.T, accounted func() int64) <-chan int {
	t.Helper()
	t.Setenv("GOGC", "")
	t.Setenv("GOMEMLIMIT", "")
	found := debug.SetGCPercent(100)
	debug.SetGCPercent(found)
	set := make(chan int, 1)
	stop := paceHeap(accounted, func(percent int) int {
		old := debug.SetGCPercent(percent)
		select {
		case set <- percent:
		default:
		}
		return old
	})
	if stop == nil {
		t.Fatal("no hook installed with GOGC and GOMEMLIMIT unset")
	}
	t.Cleanup(func() {
		stop()
		debug.SetGCPercent(found)
	})
	return set
}

// gcPercentInForce is the GOGC percent the runtime paces at now.
func gcPercentInForce() int {
	s := []metrics.Sample{{Name: "/gc/gogc:percent"}}
	metrics.Read(s)
	return int(int64(s[0].Value.Uint64()))
}

// forcePercent runs a GC cycle and waits for the hook's run after it, until
// the percent in force is the rule's for the live heap that cycle marked and
// what accounted says now. A second round happens only when an earlier cycle's
// run was still queued when this one began, or a cycle the runtime started
// itself came between; none waits on a clock.
func forcePercent(t *testing.T, set <-chan int, accounted func() int64) (percent int, live, acc int64) {
	t.Helper()
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
		live, acc, percent = liveHeap(), accounted(), gcPercentInForce()
		if percent == gcPercent(live, acc) {
			return percent, live, acc
		}
	}
	t.Fatalf("GOGC=%d, want gcPercent(live %d, accounted %d) = %d", percent, live, acc, gcPercent(live, acc))
	return
}

func TestMemoryLimitHook(t *testing.T) {
	_, srv, _ := testServerOpts(t, 8, time.Minute)

	var stray atomic.Int64
	for _, env := range []string{"GOGC", "GOMEMLIMIT"} {
		t.Run(env, func(t *testing.T) {
			t.Setenv(env, map[string]string{"GOGC": "100", "GOMEMLIMIT": "1GiB"}[env])
			if stop := paceHeap(srv.cat.AccountedBytes, func(int) int { stray.Add(1); return 0 }); stop != nil {
				stop()
				t.Fatalf("%s set: a hook was installed", env)
			}
		})
	}

	set := hookPercent(t, srv.cat.AccountedBytes)
	if _, _, acc := forcePercent(t, set, srv.cat.AccountedBytes); acc <= 0 {
		t.Fatalf("accounted %d", acc)
	}
	if n := stray.Load(); n != 0 {
		t.Fatalf("a hook refused by the environment set the percent %d times", n)
	}
}

// The hook runs on the runtime's finalizer goroutine, at the same time as
// swaps and /metrics scrapes read and change what it sums.
func TestMemoryLimitHookUnderSwaps(t *testing.T) {
	ts, srv, g := testServerOpts(t, 8, time.Minute)
	old := debug.SetGCPercent(250) // the hook sets 1–100: a percent /metrics shows in that range is its
	t.Cleanup(func() { debug.SetGCPercent(old) })
	set := hookPercent(t, srv.cat.AccountedBytes)

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
			GCPercent int `json:"gc_percent"`
		} `json:"runtime"`
		Catalog struct {
			Accounted int64 `json:"accounted_bytes"`
		} `json:"catalog"`
	}
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Runtime.GCPercent < 1 || m.Runtime.GCPercent > 100 || m.Catalog.Accounted <= 0 {
		t.Fatalf("/metrics after the hook ran: runtime.gc_percent %d, catalog.accounted_bytes %d",
			m.Runtime.GCPercent, m.Catalog.Accounted)
	}
}

// What the catalog accounts for is paced at its size, not twice it: with the
// hook, the heap goal after a cycle is the rule's, within 1 MiB, and below the
// 2 x live heap GOGC=100 alone would give — for a full result cache, and for
// a 2^16-vertex graph whose CSR and s-t index are accounted and whose engine
// caches nothing, as the benchmark's daemons serve between their caches'
// fills.
func TestAccountedHeapIsNotDoubled(t *testing.T) {
	t.Run("full cache", func(t *testing.T) {
		g := gen.Random(1<<12, 4<<12, 1<<10, gen.UWD, 3)
		srv := newServer(g, nil, "rand12", catalog.Source{}, serverOptions{
			workers: 2, maxInflight: 4, timeout: time.Minute,
			engine: engine.Config{CacheEntries: 1 << 20, CacheBytes: 32 << 20},
		})
		t.Cleanup(srv.cat.Close)
		mux := srv.mux()
		set := hookPercent(t, srv.cat.AccountedBytes)

		// solve answers srcs in one /batch with the vectors: each item is its
		// own cache entry, JSON included, as a /sssp?full=1 is.
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
		if _, acc := pacedAtTheRule(t, set, srv.cat.AccountedBytes); acc < 24<<20 {
			t.Fatalf("accounted %d bytes: the cache did not fill", acc)
		}
	})
	t.Run("graph and s-t index, no cache", func(t *testing.T) {
		const n = 1 << 16
		g := gen.Random(n, 4*n, n, gen.UWD, 1)
		srv := newServer(g, nil, "rand16", catalog.Source{}, serverOptions{
			workers: 2, maxInflight: 4, timeout: time.Minute,
		})
		t.Cleanup(srv.cat.Close)
		w := httptest.NewRecorder()
		srv.mux().ServeHTTP(w, httptest.NewRequest("GET", fmt.Sprintf("/dist?src=3&dst=%d", nearest(g, 3)), nil))
		if w.Code != 200 {
			t.Fatalf("/dist: %d %s", w.Code, w.Body)
		}
		set := hookPercent(t, srv.cat.AccountedBytes)
		live, acc := pacedAtTheRule(t, set, srv.cat.AccountedBytes)
		if acc < int64(8*g.NumArcs()) {
			t.Fatalf("accounted %d bytes: no s-t index beside the CSR", acc)
		}
		if live >= acc+16<<20 { // where a 16 MiB floor never bound
			t.Fatalf("live %d bytes: more than 16 MiB of it is not the graph's", live)
		}
	})
}

// pacedAtTheRule forces a cycle and checks the heap goal the runtime then
// paces at against the rule's: within 1 MiB, and below 2 x live. It returns
// the live heap and the accounted bytes the rule was applied to.
func pacedAtTheRule(t *testing.T, set <-chan int, accounted func() int64) (live, acc int64) {
	t.Helper()
	var percent int
	percent, live, acc = forcePercent(t, set, accounted)
	s := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
	metrics.Read(s)
	goal := int64(s[0].Value.Uint64())
	t.Logf("live %.1f MiB, accounted %.1f MiB, GOGC=%d, heap goal %.1f MiB", float64(live)/(1<<20), float64(acc)/(1<<20), percent, float64(goal)/(1<<20))
	const slack = 1 << 20
	if want := heapGoal(live, acc); goal >= 2*live || goal < want-slack || goal > want+slack {
		t.Fatalf("heap goal %d, want below 2 x live (%d) and the rule's %d ± %d", goal, 2*live, want, slack)
	}
	return live, acc
}
