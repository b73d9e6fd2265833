package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/mta"
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
	rt.ForSerial(100, func(i int) { order = append(order, i) })
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

func TestSimForDeterministicAndSerial(t *testing.T) {
	rt := NewSim(mta.MTA2(40))
	var order []int
	rt.For(50, func(i int) { order = append(order, i) })
	for i, v := range order {
		if i != v {
			t.Fatalf("sim execution out of order at %d: %d", i, v)
		}
	}
}

func TestSimAccountingFlatLoop(t *testing.T) {
	m := mta.MTA2(40)
	rt := NewSim(m)
	const n = 100000
	rt.For(n, func(i int) { rt.Charge(9) }) // 10 units per iteration total
	c := rt.SimCost()
	wantWork := m.ForkCost(mta.MultiPar) + n*10
	if c.Work != wantWork {
		t.Errorf("work = %d, want %d", c.Work, wantWork)
	}
	wantSpan := m.ForkCost(mta.MultiPar) + (n*10)/m.Lanes(mta.MultiPar) + 10
	if c.Span != wantSpan {
		t.Errorf("span = %d, want %d", c.Span, wantSpan)
	}
}

func TestSimSpeedupGrowsWithProcs(t *testing.T) {
	span := func(p int) int64 {
		rt := NewSim(mta.MTA2(p))
		rt.For(1<<22, func(i int) { rt.Charge(49) })
		return rt.SimCost().Span
	}
	s1, s8, s40 := span(1), span(8), span(40)
	if !(s40 < s8 && s8 < s1) {
		t.Fatalf("spans not decreasing: p1=%d p8=%d p40=%d", s1, s8, s40)
	}
	speedup := float64(s1) / float64(s40)
	if speedup < 15 {
		t.Fatalf("40-proc speedup only %.1f on a large flat loop", speedup)
	}
}

func TestSimTinyLoopPrefersSerial(t *testing.T) {
	// For a tiny loop, MultiPar must cost more span than Serial (fork
	// dominates) — the effect behind the paper's Table 6.
	spanOf := func(mode mta.LoopMode) int64 {
		rt := NewSim(mta.MTA2(40))
		rt.ForMode(mode, 8, func(i int) { rt.Charge(3) })
		return rt.SimCost().Span
	}
	if spanOf(mta.MultiPar) <= spanOf(mta.Serial) {
		t.Fatal("multi-proc fork cost did not dominate a tiny loop")
	}
}

func TestForAutoSelectsRegime(t *testing.T) {
	th := Thresholds{Single: 10, Multi: 100}
	m := mta.MTA2(40)

	costAt := func(n int) mta.Cost {
		rt := NewSim(m)
		rt.ForAuto(th, n, func(int) {})
		return rt.SimCost()
	}
	// Serial regime: no fork cost at all.
	if c := costAt(5); c.Work != 5 {
		t.Errorf("n=5: work %d, want 5 (serial)", c.Work)
	}
	// Single-processor regime: single fork cost.
	if c := costAt(50); c.Work != m.ForkCost(mta.SinglePar)+50 {
		t.Errorf("n=50: work %d, want single-proc fork", c.Work)
	}
	// Multi-processor regime.
	if c := costAt(500); c.Work != m.ForkCost(mta.MultiPar)+500 {
		t.Errorf("n=500: work %d, want multi-proc fork", c.Work)
	}
}

func TestResetCost(t *testing.T) {
	rt := NewSim(mta.MTA2(4))
	rt.For(100, func(int) {})
	if rt.SimCost().Work == 0 {
		t.Fatal("no cost recorded")
	}
	rt.ResetCost()
	if c := rt.SimCost(); c.Work != 0 || c.Span != 0 {
		t.Fatalf("cost after reset: %+v", c)
	}
}

func TestNestedSimAccounting(t *testing.T) {
	// An outer serial loop of parallel inner loops: outer span must be the
	// sum of inner spans.
	m := mta.MTA2(40)
	rt := NewSim(m)
	const outer, inner = 10, 100000
	rt.ForSerial(outer, func(int) {
		rt.For(inner, func(int) { rt.Charge(1) })
	})
	innerSpan := m.ForkCost(mta.MultiPar) + (inner*2)/m.Lanes(mta.MultiPar) + 2
	wantSpan := outer * (1 + innerSpan) // +1 base charge per outer iteration
	if got := rt.SimCost().Span; got != wantSpan {
		t.Errorf("span = %d, want %d", got, wantSpan)
	}
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

// For loops with enough work to amortise the per-processor fork cost, the
// simulated span is monotone non-increasing in processor count. (For tiny
// loops more processors can legitimately hurt — team forks cost more on a
// bigger machine, the effect behind the paper's small-instance results — so
// monotonicity is only promised in the work-dominated regime.)
func TestSimMonotoneInProcsForLargeLoops(t *testing.T) {
	const n = 1 << 20
	for _, cost := range []int64{1, 3, 7} {
		span := func(p int) int64 {
			rt := NewSim(mta.MTA2(p))
			rt.For(n, func(int) { rt.Charge(cost) })
			return rt.SimCost().Span
		}
		last := span(1)
		for _, p := range []int{2, 4, 8, 16, 40} {
			s := span(p)
			if s > last {
				t.Fatalf("cost %d: span grew from %d to %d at p=%d", cost, last, s, p)
			}
			last = s
		}
	}
}

// Tiny loops on a bigger machine may cost more span — the fork effect.
func TestSimTinyLoopForkPenaltyGrowsWithProcs(t *testing.T) {
	span := func(p int) int64 {
		rt := NewSim(mta.MTA2(p))
		rt.For(8, func(int) { rt.Charge(1) })
		return rt.SimCost().Span
	}
	if span(40) <= span(1) {
		t.Fatal("expected the 40-processor fork cost to dominate a tiny loop")
	}
}

func BenchmarkExecForOverhead(b *testing.B) {
	rt := NewExec(4)
	for i := 0; i < b.N; i++ {
		rt.For(64, func(int) {})
	}
}

func BenchmarkSimForOverhead(b *testing.B) {
	rt := NewSim(mta.MTA2(40))
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

func TestChargeLoopAccounting(t *testing.T) {
	m := mta.MTA2(40)
	rt := NewSim(m)
	rt.ChargeLoop(mta.MultiPar, 100000, 2) // 3 units x 100k iterations
	c := rt.SimCost()
	wantWork := m.ForkCost(mta.MultiPar) + 300000
	if c.Work != wantWork {
		t.Fatalf("work %d, want %d", c.Work, wantWork)
	}
	wantSpan := m.ForkCost(mta.MultiPar) + 300000/m.Lanes(mta.MultiPar) + 3
	if c.Span != wantSpan {
		t.Fatalf("span %d, want %d", c.Span, wantSpan)
	}
	// No-ops.
	rt2 := NewSim(m)
	rt2.ChargeLoop(mta.Serial, 0, 5)
	if rt2.SimCost().Work != 0 {
		t.Fatal("empty ChargeLoop charged")
	}
	NewExec(2).ChargeLoop(mta.MultiPar, 100, 1) // exec: must not panic
}

func TestModeFor(t *testing.T) {
	rt := NewSim(mta.MTA2(4))
	th := Thresholds{Single: 10, Multi: 100}
	cases := map[int]mta.LoopMode{
		0: mta.Serial, 9: mta.Serial,
		10: mta.SinglePar, 99: mta.SinglePar,
		100: mta.MultiPar, 1 << 20: mta.MultiPar,
	}
	for n, want := range cases {
		if got := rt.ModeFor(th, n); got != want {
			t.Errorf("ModeFor(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestExecFuturesMode(t *testing.T) {
	rt := NewExec(4)
	var total int64
	rt.ForMode(mta.Futures, 500, func(i int) { atomic.AddInt64(&total, int64(i)) })
	if total != 124750 {
		t.Fatalf("futures loop total %d", total)
	}
}

func TestSimFuturesCheaperThanMultiForSmallLoops(t *testing.T) {
	m := mta.MTA2(40)
	span := func(mode mta.LoopMode) int64 {
		rt := NewSim(m)
		rt.ForMode(mode, 4, func(int) { rt.Charge(2) })
		return rt.SimCost().Span
	}
	if span(mta.Futures) >= span(mta.MultiPar) {
		t.Fatal("futures fork not cheaper than team fork")
	}
}

func TestChargeContended(t *testing.T) {
	m := mta.MTA2(40)
	rt := NewSim(m)
	// 100 contended ops on one word inside one parallel loop: the loop pays
	// a 100-cycle serial chain on top of its normal cost.
	rt.For(100, func(i int) { rt.ChargeContended(7) })
	withHot := rt.SimCost().Span
	if rt.HotSerialization() != 100 {
		t.Fatalf("hot serialization %d, want 100", rt.HotSerialization())
	}
	rt2 := NewSim(m)
	rt2.For(100, func(i int) { rt2.Charge(1) })
	if withHot-rt2.SimCost().Span != 100 {
		t.Fatalf("contended span delta %d, want 100", withHot-rt2.SimCost().Span)
	}
	// Spread across distinct words: chain length 1.
	rt3 := NewSim(m)
	rt3.For(100, func(i int) { rt3.ChargeContended(uint64(i)) })
	if rt3.HotSerialization() != 1 {
		t.Fatalf("spread ops serialized: %d", rt3.HotSerialization())
	}
	// Outside any loop and in exec mode: no-ops.
	rt4 := NewSim(m)
	rt4.ChargeContended(1)
	if rt4.HotSerialization() != 0 {
		t.Fatal("loop-less op tallied")
	}
	NewExec(2).ChargeContended(1)
	// Reset clears the tally.
	rt.ResetCost()
	if rt.HotSerialization() != 0 {
		t.Fatal("reset did not clear hot tally")
	}
}

func TestSerialLoopsHaveNoContention(t *testing.T) {
	rt := NewSim(mta.MTA2(8))
	rt.ForSerial(50, func(i int) { rt.ChargeContended(3) })
	if rt.HotSerialization() != 0 {
		t.Fatalf("serial loop tallied contention: %d", rt.HotSerialization())
	}
}
