package deltastep

import (
	"testing"

	"repro/internal/dijkstra"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
)

// A reused State must produce byte-identical distances to a fresh run, across
// graphs of different sizes and weight distributions.
func TestStateReuseMatchesFresh(t *testing.T) {
	rt := par.NewExec(4)
	big := gen.Random(400, 1600, 1<<12, gen.UWD, 9)
	small := gen.Random(50, 200, 1<<4, gen.PWD, 10)

	st := NewState()
	for _, g := range []*graph.Graph{big, small, big} {
		delta := DefaultDelta(g)
		for _, src := range []int32{0, int32(g.NumVertices() - 1)} {
			want := dijkstra.SSSP(g, src)
			got, _ := st.Run(rt, g, src, delta)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("n=%d src=%d: dist[%d] = %d, want %d", g.NumVertices(), src, v, got[v], want[v])
				}
			}
		}
	}

	// Stats from a reused state must match a fresh run's stats exactly (the
	// phase structure is deterministic), with the measured width and with one
	// that goes through the overflow list, whatever the state ran before.
	for _, delta := range []int64{DefaultDelta(big), 1, DefaultDelta(big)} {
		wantDist, wantStats := Run(rt, big, 7, delta)
		gotDist, gotStats := st.Run(rt, big, 7, delta)
		for v := range wantDist {
			if gotDist[v] != wantDist[v] {
				t.Fatalf("delta=%d: stats-run dist[%d] = %d, want %d", delta, v, gotDist[v], wantDist[v])
			}
		}
		if gotStats != wantStats || (delta == 1) != (gotStats.Refills > 0) {
			t.Fatalf("delta=%d: reused stats %+v, fresh %+v", delta, gotStats, wantStats)
		}
	}

	// Reset leaves a scrubbed, still-working state.
	st.Reset()
	want := dijkstra.SSSP(small, 3)
	got, _ := st.Run(rt, small, 3, DefaultDelta(small))
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("after Reset: dist[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}
