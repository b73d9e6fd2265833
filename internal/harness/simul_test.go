package harness

import (
	"testing"

	"repro/internal/ch"
	"repro/internal/gen"
	"repro/internal/mta"
)

func TestSimultaneousCostScalesSublinearly(t *testing.T) {
	g := gen.Random(1<<10, 1<<12, 1<<10, gen.UWD, 10)
	h := ch.BuildKruskal(g)
	m := mta.MTA2(40)
	one, _ := SimultaneousCost(h, m, []int32{0})
	sources := make([]int32, 8)
	for i := range sources {
		sources[i] = int32(i * 100)
	}
	eight, _ := SimultaneousCost(h, m, sources)
	if eight >= 8*one {
		t.Fatalf("8 simultaneous queries cost %d, not below 8x single %d", eight, 8*one)
	}
	if eight < one {
		t.Fatalf("8 queries cheaper than 1: %d < %d", eight, one)
	}
}

func TestTuneThresholds(t *testing.T) {
	th := TuneThresholds(mta.MTA2(40))
	if th.Single < 2 {
		t.Errorf("single threshold %d too low: trivial loops must stay serial", th.Single)
	}
	if th.Multi < th.Single {
		t.Errorf("thresholds out of order: %+v", th)
	}
	// On a single-processor machine, multi-processor loops have the same
	// lane count but a higher fork cost than single-processor ones, so the
	// tuner should effectively never choose them.
	th1 := TuneThresholds(mta.MTA2(1))
	if th1.Multi <= th1.Single {
		t.Errorf("1-proc machine: multi threshold %d should exceed single %d", th1.Multi, th1.Single)
	}
}
