package mta

import (
	"testing"
	"testing/quick"

	"repro/internal/par"
)

func TestLanes(t *testing.T) {
	m := MTA2(40)
	if m.Lanes(par.Serial) != 1 {
		t.Errorf("serial lanes = %d", m.Lanes(par.Serial))
	}
	if m.Lanes(par.SinglePar) != 100 {
		t.Errorf("single-proc lanes = %d", m.Lanes(par.SinglePar))
	}
	if m.Lanes(par.MultiPar) != 4000 {
		t.Errorf("multi-proc lanes = %d", m.Lanes(par.MultiPar))
	}
}

func TestForkCostOrdering(t *testing.T) {
	m := MTA2(4)
	if !(m.ForkCost(par.Serial) < m.ForkCost(par.SinglePar) && m.ForkCost(par.SinglePar) < m.ForkCost(par.MultiPar)) {
		t.Fatalf("fork costs not ordered: %d %d %d",
			m.ForkCost(par.Serial), m.ForkCost(par.SinglePar), m.ForkCost(par.MultiPar))
	}
}

func TestInvalidProcsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MTA2(0) did not panic")
		}
	}()
	MTA2(0)
}

func TestSeconds(t *testing.T) {
	m := MTA2(1)
	if got := m.Seconds(220e6); got != 1.0 {
		t.Fatalf("220e6 cycles = %v s, want 1", got)
	}
}

func TestMakespanBrent(t *testing.T) {
	c := Cost{Work: 1000, Span: 10}
	if got := c.Makespan(1); got != 1010 {
		t.Errorf("1 lane: %d", got)
	}
	if got := c.Makespan(100); got != 20 {
		t.Errorf("100 lanes: %d", got)
	}
	if got := c.Makespan(0); got != 1010 {
		t.Errorf("0 lanes should clamp to 1: %d", got)
	}
}

func TestParallelLoopSerialHasNoFork(t *testing.T) {
	m := MTA2(40)
	c := m.ParallelLoop(par.Serial, 100, 100, 5)
	if c.Work != 100 {
		t.Errorf("serial loop work = %d", c.Work)
	}
	if c.Span != 100 {
		t.Errorf("serial loop span = %d (want sumSpan)", c.Span)
	}
}

func TestParallelLoopMultiSpeedsUp(t *testing.T) {
	m := MTA2(40)
	big := m.ParallelLoop(par.MultiPar, 1e9, 1e9, 100)
	ser := m.ParallelLoop(par.Serial, 1e9, 1e9, 100)
	if big.Span >= ser.Span {
		t.Fatalf("multi-proc span %d not below serial span %d for large loop", big.Span, ser.Span)
	}
	// For a tiny loop the fork cost must dominate, making par.MultiPar worse.
	smallM := m.ParallelLoop(par.MultiPar, 10, 10, 5)
	smallS := m.ParallelLoop(par.Serial, 10, 10, 5)
	if smallM.Span <= smallS.Span {
		t.Fatalf("multi-proc span %d not above serial span %d for tiny loop", smallM.Span, smallS.Span)
	}
}

func TestCoScheduleSpanBound(t *testing.T) {
	m := MTA2(40)
	jobs := []Cost{{Work: 100, Span: 1000}, {Work: 100, Span: 10}}
	if got := m.CoSchedule(jobs); got != 1000 {
		t.Fatalf("co-schedule = %d, want span bound 1000", got)
	}
}

func TestCoScheduleWorkBound(t *testing.T) {
	m := MTA2(1) // 100 lanes
	jobs := []Cost{{Work: 100000, Span: 10}, {Work: 100000, Span: 10}}
	if got := m.CoSchedule(jobs); got != 2000 {
		t.Fatalf("co-schedule = %d, want work bound 2000", got)
	}
}

func TestCostAdd(t *testing.T) {
	c := Cost{Work: 1, Span: 2}
	c.Add(Cost{Work: 10, Span: 20})
	if c.Work != 11 || c.Span != 22 {
		t.Fatalf("Add gave %+v", c)
	}
}

// Property: makespan is monotone non-increasing in lanes and never below
// span or work/lanes.
func TestQuickMakespanBounds(t *testing.T) {
	f := func(w, s uint32, lanes uint16) bool {
		c := Cost{Work: int64(w), Span: int64(s)}
		l := int64(lanes%512) + 1
		ms := c.Makespan(l)
		return ms >= c.Span && ms >= c.Work/l && ms <= c.Makespan(1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLoopModeString(t *testing.T) {
	if par.Serial.String() != "serial" || par.SinglePar.String() != "single-proc" || par.MultiPar.String() != "multi-proc" {
		t.Fatal("par.LoopMode strings wrong")
	}
	if par.LoopMode(9).String() == "" {
		t.Fatal("unknown mode should still format")
	}
}

func TestSingleProcAnomaly(t *testing.T) {
	plain := MTA2(1)
	anom := MTA2Anomalous(1)
	if anom.Lanes(par.MultiPar) >= plain.Lanes(par.MultiPar) {
		t.Fatalf("anomaly did not starve team loops: %d vs %d",
			anom.Lanes(par.MultiPar), plain.Lanes(par.MultiPar))
	}
	// Only p=1 is affected.
	if MTA2Anomalous(2).Lanes(par.MultiPar) != MTA2(2).Lanes(par.MultiPar) {
		t.Fatal("anomaly leaked to p=2")
	}
	// par.SinglePar loops unaffected (they are not team-forked).
	if anom.Lanes(par.SinglePar) != plain.Lanes(par.SinglePar) {
		t.Fatal("anomaly affected single-processor loops")
	}
}

func TestCoScheduleEmpty(t *testing.T) {
	if MTA2(4).CoSchedule(nil) != 0 {
		t.Fatal("empty job set should cost 0")
	}
}

func TestFuturesLanesAndCost(t *testing.T) {
	m := MTA2(40)
	if m.Lanes(par.Futures) != m.Lanes(par.MultiPar) {
		t.Fatal("futures should span the whole machine")
	}
	if m.ForkCost(par.Futures) >= m.ForkCost(par.SinglePar) {
		t.Fatal("futures spawn should be cheaper than a team fork")
	}
	if par.Futures.String() != "futures" {
		t.Fatal("string")
	}
}
