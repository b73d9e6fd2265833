package core

import (
	"reflect"
	"testing"

	"repro/internal/ch"
	"repro/internal/gen"
	"repro/internal/mta"
	"repro/internal/par"
)

// A reused query instance must be indistinguishable from a fresh allocation:
// same distances byte for byte, same invariants, and after Reset the same
// zeroed state a fresh Query starts from. This is the safety contract behind
// pooling query instances in the serving layer.
func TestQueryResetReuseMatchesFresh(t *testing.T) {
	g := gen.Random(600, 2400, 1<<10, gen.UWD, 11)
	h := ch.BuildKruskal(g)
	s := NewSolver(h, par.NewExec(4))

	for _, srcs := range [][]int32{{0}, {17, 300, 599}} {
		fresh := s.Query()
		want := append([]int64(nil), fresh.RunFromSources(srcs)...)

		// Dirty a second instance with unrelated queries, then reuse it.
		reused := s.Query()
		reused.EnableTrace()
		reused.Run(42)
		reused.RunFromSources([]int32{1, 2, 3})
		reused.Reset()

		got := reused.RunFromSources(srcs)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("sources %v: reused dist[%d] = %d, fresh %d", srcs, v, got[v], want[v])
			}
		}
		if err := reused.CheckInvariants(); err != nil {
			t.Fatalf("sources %v: reused query invariants: %v", srcs, err)
		}
	}
}

// Reset must restore exactly the zero state of a fresh allocation, trace
// counters included, whichever kernel's state the query holds.
func TestQueryResetRestoresPristineState(t *testing.T) {
	g := gen.Random(200, 800, 1<<8, gen.UWD, 5)
	h := ch.BuildKruskal(g)
	for name, rt := range map[string]par.Runtime{"exec": par.NewExec(2), "sim": mta.NewSim(mta.MTA2(4))} {
		s := NewSolver(h, rt)
		q := s.Query()
		tr := q.EnableTrace()
		q.Run(7)
		q.RunFromSources([]int32{1, 2, 3})
		if tr.Settled == 0 {
			t.Fatalf("%s: trace did not record the run", name)
		}
		q.Reset()

		fresh := s.Query()
		if q.exec != nil {
			if !reflect.DeepEqual(q.exec.minD, fresh.exec.minD) || !reflect.DeepEqual(q.exec.node, fresh.exec.node) ||
				!reflect.DeepEqual(q.exec.act, fresh.exec.act) || q.exec.tr != (Trace{}) {
				t.Fatalf("%s: state after Reset differs from a fresh query's", name)
			}
		} else if !reflect.DeepEqual(q.sim.dist, fresh.sim.dist) || !reflect.DeepEqual(q.sim.minD, fresh.sim.minD) ||
			!reflect.DeepEqual(q.sim.unsettled, fresh.sim.unsettled) || !reflect.DeepEqual(q.sim.scratch, fresh.sim.scratch) {
			t.Fatalf("%s: state after Reset differs from a fresh query's", name)
		}
		if *tr != (Trace{}) {
			t.Fatalf("%s: trace not cleared by Reset: %+v", name, *tr)
		}
	}
}
