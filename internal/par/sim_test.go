// The loop modes' prices, checked through the simulator that charges them:
// mta.Sim is the par.Runtime that accounts every loop against a modelled
// MTA-2. These tests live beside the modes they price, in the external test
// package because mta imports par.
package par_test

import (
	"testing"

	"repro/internal/mta"
	"repro/internal/par"
)

func TestSimForDeterministicAndSerial(t *testing.T) {
	rt := mta.NewSim(mta.MTA2(40))
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
	rt := mta.NewSim(m)
	const n = 100000
	rt.For(n, func(i int) { rt.Charge(9) }) // 10 units per iteration total
	c := rt.SimCost()
	wantWork := m.ForkCost(par.MultiPar) + n*10
	if c.Work != wantWork {
		t.Errorf("work = %d, want %d", c.Work, wantWork)
	}
	wantSpan := m.ForkCost(par.MultiPar) + (n*10)/m.Lanes(par.MultiPar) + 10
	if c.Span != wantSpan {
		t.Errorf("span = %d, want %d", c.Span, wantSpan)
	}
}

func TestSimSpeedupGrowsWithProcs(t *testing.T) {
	span := func(p int) int64 {
		rt := mta.NewSim(mta.MTA2(p))
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
	spanOf := func(mode par.LoopMode) int64 {
		rt := mta.NewSim(mta.MTA2(40))
		rt.ForMode(mode, 8, func(i int) { rt.Charge(3) })
		return rt.SimCost().Span
	}
	if spanOf(par.MultiPar) <= spanOf(par.Serial) {
		t.Fatal("multi-proc fork cost did not dominate a tiny loop")
	}
}

func TestForAutoSelectsRegime(t *testing.T) {
	th := par.Thresholds{Single: 10, Multi: 100}
	m := mta.MTA2(40)

	costAt := func(n int) mta.Cost {
		rt := mta.NewSim(m)
		rt.ForAuto(th, n, func(int) {})
		return rt.SimCost()
	}
	// Serial regime: no fork cost at all.
	if c := costAt(5); c.Work != 5 {
		t.Errorf("n=5: work %d, want 5 (serial)", c.Work)
	}
	// Single-processor regime: single fork cost.
	if c := costAt(50); c.Work != m.ForkCost(par.SinglePar)+50 {
		t.Errorf("n=50: work %d, want single-proc fork", c.Work)
	}
	// Multi-processor regime.
	if c := costAt(500); c.Work != m.ForkCost(par.MultiPar)+500 {
		t.Errorf("n=500: work %d, want multi-proc fork", c.Work)
	}
}

func TestResetCost(t *testing.T) {
	rt := mta.NewSim(mta.MTA2(4))
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
	rt := mta.NewSim(m)
	const outer, inner = 10, 100000
	rt.ForMode(par.Serial, outer, func(int) {
		rt.For(inner, func(int) { rt.Charge(1) })
	})
	innerSpan := m.ForkCost(par.MultiPar) + (inner*2)/m.Lanes(par.MultiPar) + 2
	wantSpan := outer * (1 + innerSpan) // +1 base charge per outer iteration
	if got := rt.SimCost().Span; got != wantSpan {
		t.Errorf("span = %d, want %d", got, wantSpan)
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
			rt := mta.NewSim(mta.MTA2(p))
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
		rt := mta.NewSim(mta.MTA2(p))
		rt.For(8, func(int) { rt.Charge(1) })
		return rt.SimCost().Span
	}
	if span(40) <= span(1) {
		t.Fatal("expected the 40-processor fork cost to dominate a tiny loop")
	}
}

func BenchmarkSimForOverhead(b *testing.B) {
	rt := mta.NewSim(mta.MTA2(40))
	for i := 0; i < b.N; i++ {
		rt.For(64, func(int) {})
	}
}

func TestChargeLoopAccounting(t *testing.T) {
	m := mta.MTA2(40)
	rt := mta.NewSim(m)
	rt.ChargeLoop(par.MultiPar, 100000, 2) // 3 units x 100k iterations
	c := rt.SimCost()
	wantWork := m.ForkCost(par.MultiPar) + 300000
	if c.Work != wantWork {
		t.Fatalf("work %d, want %d", c.Work, wantWork)
	}
	wantSpan := m.ForkCost(par.MultiPar) + 300000/m.Lanes(par.MultiPar) + 3
	if c.Span != wantSpan {
		t.Fatalf("span %d, want %d", c.Span, wantSpan)
	}
	// No-ops.
	rt2 := mta.NewSim(m)
	rt2.ChargeLoop(par.Serial, 0, 5)
	if rt2.SimCost().Work != 0 {
		t.Fatal("empty ChargeLoop charged")
	}
	par.NewExec(2).ChargeLoop(par.MultiPar, 100, 1) // exec: must not panic
}

func TestSimFuturesCheaperThanMultiForSmallLoops(t *testing.T) {
	m := mta.MTA2(40)
	span := func(mode par.LoopMode) int64 {
		rt := mta.NewSim(m)
		rt.ForMode(mode, 4, func(int) { rt.Charge(2) })
		return rt.SimCost().Span
	}
	if span(par.Futures) >= span(par.MultiPar) {
		t.Fatal("futures fork not cheaper than team fork")
	}
}

func TestChargeContended(t *testing.T) {
	m := mta.MTA2(40)
	rt := mta.NewSim(m)
	// 100 contended ops on one word inside one parallel loop: the loop pays
	// a 100-cycle serial chain on top of its normal cost.
	rt.For(100, func(i int) { rt.ChargeContended(7) })
	withHot := rt.SimCost().Span
	if rt.HotSerialization() != 100 {
		t.Fatalf("hot serialization %d, want 100", rt.HotSerialization())
	}
	rt2 := mta.NewSim(m)
	rt2.For(100, func(i int) { rt2.Charge(1) })
	if withHot-rt2.SimCost().Span != 100 {
		t.Fatalf("contended span delta %d, want 100", withHot-rt2.SimCost().Span)
	}
	// Spread across distinct words: chain length 1.
	rt3 := mta.NewSim(m)
	rt3.For(100, func(i int) { rt3.ChargeContended(uint64(i)) })
	if rt3.HotSerialization() != 1 {
		t.Fatalf("spread ops serialized: %d", rt3.HotSerialization())
	}
	// Outside any loop and in exec mode: no-ops.
	rt4 := mta.NewSim(m)
	rt4.ChargeContended(1)
	if rt4.HotSerialization() != 0 {
		t.Fatal("loop-less op tallied")
	}
	par.NewExec(2).ChargeContended(1)
	// Reset clears the tally.
	rt.ResetCost()
	if rt.HotSerialization() != 0 {
		t.Fatal("reset did not clear hot tally")
	}
}

func TestSerialLoopsHaveNoContention(t *testing.T) {
	rt := mta.NewSim(mta.MTA2(8))
	rt.ForMode(par.Serial, 50, func(i int) { rt.ChargeContended(3) })
	if rt.HotSerialization() != 0 {
		t.Fatalf("serial loop tallied contention: %d", rt.HotSerialization())
	}
}
