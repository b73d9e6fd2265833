package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestExecForCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		rt := NewExec(workers)
		const n = 10000
		hits := make([]int32, n)
		rt.For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, h)
			}
		}
	}
}

func TestExecForEmpty(t *testing.T) {
	rt := NewExec(4)
	ran := false
	rt.For(0, func(int) { ran = true })
	rt.For(-3, func(int) { ran = true })
	if ran {
		t.Fatal("body ran for empty loop")
	}
}

func TestExecNestedLoops(t *testing.T) {
	rt := NewExec(4)
	const outer, inner = 50, 200
	var total int64
	rt.For(outer, func(i int) {
		rt.For(inner, func(j int) {
			atomic.AddInt64(&total, 1)
		})
	})
	if total != outer*inner {
		t.Fatalf("nested total = %d, want %d", total, outer*inner)
	}
}

func TestExecDeepNesting(t *testing.T) {
	// Deeply nested parallel loops must not deadlock even with few tokens.
	rt := NewExec(2)
	var total int64
	var rec func(depth int)
	rec = func(depth int) {
		if depth == 0 {
			atomic.AddInt64(&total, 1)
			return
		}
		rt.For(3, func(int) { rec(depth - 1) })
	}
	rec(6)
	if total != 729 {
		t.Fatalf("total = %d, want 3^6", total)
	}
}

func TestExecForModeSerialInOrder(t *testing.T) {
	rt := NewExec(8)
	var order []int
	rt.ForMode(Serial, 100, func(i int) { order = append(order, i) })
	for i, v := range order {
		if i != v {
			t.Fatalf("serial mode out of order at %d: %d", i, v)
		}
	}
}

func TestNewExecPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewExec(0) did not panic")
		}
	}()
	NewExec(0)
}

func TestCASMin(t *testing.T) {
	v := int64(100)
	if !CASMin(&v, 50) || v != 50 {
		t.Fatalf("CASMin failed to lower: %d", v)
	}
	if CASMin(&v, 50) {
		t.Fatal("CASMin reported change for equal value")
	}
	if CASMin(&v, 80) || v != 50 {
		t.Fatalf("CASMin raised the value: %d", v)
	}
}

func TestCASMinConcurrent(t *testing.T) {
	var v int64 = 1 << 60
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				CASMin(&v, int64(w*10000+i))
			}
		}(w)
	}
	wg.Wait()
	if v != 0 {
		t.Fatalf("concurrent CASMin settled at %d, want 0", v)
	}
}

// Property: exec-mode For computes the same reduction as a serial loop.
func TestQuickExecMatchesSerial(t *testing.T) {
	rt := NewExec(4)
	f := func(n uint16) bool {
		m := int(n % 5000)
		var got int64
		rt.For(m, func(i int) { atomic.AddInt64(&got, int64(i*i)) })
		var want int64
		for i := 0; i < m; i++ {
			want += int64(i * i)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkExecForOverhead(b *testing.B) {
	rt := NewExec(4)
	for i := 0; i < b.N; i++ {
		rt.For(64, func(int) {})
	}
}

func TestExecForPanicPropagates(t *testing.T) {
	rt := NewExec(4)
	for _, n := range []int{1, 100, 10000} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("n=%d: panic swallowed", n)
				}
				if s, ok := r.(string); !ok || s != "boom" {
					t.Fatalf("n=%d: wrong panic value %v", n, r)
				}
			}()
			rt.For(n, func(i int) {
				if i == n/2 {
					panic("boom")
				}
			})
		}()
	}
	// The runtime must remain usable afterwards (tokens returned).
	var total int64
	rt.For(1000, func(i int) { atomic.AddInt64(&total, 1) })
	if total != 1000 {
		t.Fatalf("runtime broken after panic: %d", total)
	}
}

func TestModeFor(t *testing.T) {
	th := Thresholds{Single: 10, Multi: 100}
	cases := map[int]LoopMode{
		0: Serial, 9: Serial,
		10: SinglePar, 99: SinglePar,
		100: MultiPar, 1 << 20: MultiPar,
	}
	for n, want := range cases {
		if got := th.Mode(n); got != want {
			t.Errorf("Mode(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestExecFuturesMode(t *testing.T) {
	rt := NewExec(4)
	var total int64
	rt.ForMode(Futures, 500, func(i int) { atomic.AddInt64(&total, int64(i)) })
	if total != 124750 {
		t.Fatalf("futures loop total %d", total)
	}
}

// One Exec serves every caller: however many goroutines run nested loops on
// it at once, the bodies running at the same moment never outnumber the
// callers plus the workers-1 helpers its tokens admit, and every token comes
// back.
func TestExecTokenBound(t *testing.T) {
	const workers, callers = 3, 4
	rt := NewExec(workers)
	var running, peak atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.For(8, func(int) {
				rt.ForMode(MultiPar, 16, func(int) {
					now := running.Add(1)
					for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
					}
					time.Sleep(20 * time.Microsecond)
					running.Add(-1)
				})
			})
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > callers+workers-1 {
		t.Fatalf("%d bodies ran at once, bound is %d callers + %d helpers", p, callers, workers-1)
	}
	if len(rt.tokens) != workers-1 {
		t.Fatalf("%d of %d tokens returned", len(rt.tokens), workers-1)
	}
}
