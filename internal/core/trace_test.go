package core

import (
	"strings"
	"testing"

	"repro/internal/ch"
	"repro/internal/dijkstra"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
)

func TestTraceCountsReachable(t *testing.T) {
	g := gen.Random(1000, 4000, 1<<10, gen.UWD, 3)
	h := ch.BuildKruskal(g)
	q := NewSolver(h, par.NewExec(4)).Query()
	tr := q.EnableTrace()
	q.Run(0)
	if tr.Settled != 1000 {
		t.Fatalf("settled %d, want 1000 (connected graph)", tr.Settled)
	}
	if tr.Relaxations < 999 {
		t.Fatalf("relaxations %d too low", tr.Relaxations)
	}
	if tr.Gathers == 0 || tr.BucketAdvances == 0 || tr.MaxTovisit == 0 {
		t.Fatalf("empty trace: %+v", tr)
	}
	if !strings.Contains(tr.String(), "settled=1000") {
		t.Fatalf("String: %s", tr)
	}
}

func TestTraceResetBetweenRuns(t *testing.T) {
	g := gen.Path(50, 2)
	h := ch.BuildKruskal(g)
	q := NewSolver(h, par.NewExec(1)).Query()
	tr := q.EnableTrace()
	q.Run(0)
	first := *tr
	q.Run(0)
	if tr.Settled != first.Settled || tr.Relaxations != first.Relaxations {
		t.Fatalf("trace not reset: %+v vs %+v", first, *tr)
	}
}

// The paper's §3.2 claim: minD values "are not propagated very far up the CH
// in practice". On every family the mean propagation distance per relaxation
// must be a small constant, far below the hierarchy height.
func TestPropagationLocality(t *testing.T) {
	for _, in := range []gen.Instance{
		{Class: gen.Rand, Dist: gen.UWD, LogN: 12, LogC: 12, Seed: 1},
		{Class: gen.Rand, Dist: gen.PWD, LogN: 12, LogC: 12, Seed: 2},
		{Class: gen.RMAT, Dist: gen.UWD, LogN: 12, LogC: 2, Seed: 3},
	} {
		g := in.Generate()
		h := ch.BuildKruskal(g)
		q := NewSolver(h, par.NewExec(1)).Query()
		tr := q.EnableTrace()
		q.Run(0)
		hops := tr.HopsPerRelaxation()
		height := float64(h.ComputeStats().Height)
		if hops <= 0 {
			t.Fatalf("%s: no propagation recorded", in.Name())
		}
		if hops > height/2 {
			t.Errorf("%s: mean propagation %.2f vs height %.0f — locality claim fails", in.Name(), hops, height)
		}
	}
}

func TestTraceSnapshotAndMerge(t *testing.T) {
	g := gen.Random(600, 2400, 1<<10, gen.UWD, 11)
	h := ch.BuildKruskal(g)
	q := NewSolver(h, par.NewExec(4)).Query()
	tr := q.EnableTrace()
	if q.Trace() != tr {
		t.Fatal("Trace() accessor disagrees with EnableTrace")
	}
	q.Run(0)
	snap := tr.Snapshot()
	if snap != *tr {
		t.Fatalf("snapshot of a finished run differs: %+v vs %+v", snap, *tr)
	}

	var agg Trace
	agg.Merge(snap)
	agg.Merge(snap)
	if agg.Settled != 2*snap.Settled || agg.Relaxations != 2*snap.Relaxations ||
		agg.PropagationHops != 2*snap.PropagationHops || agg.Gathers != 2*snap.Gathers ||
		agg.GatherScanned != 2*snap.GatherScanned || agg.GatherTaken != 2*snap.GatherTaken ||
		agg.BucketAdvances != 2*snap.BucketAdvances {
		t.Fatalf("merge should add counters: %+v vs %+v", agg, snap)
	}
	if agg.MaxTovisit != snap.MaxTovisit {
		t.Fatalf("merge should max MaxTovisit: %d vs %d", agg.MaxTovisit, snap.MaxTovisit)
	}
	agg.Merge(Trace{MaxTovisit: snap.MaxTovisit + 7})
	if agg.MaxTovisit != snap.MaxTovisit+7 {
		t.Fatalf("merge did not raise MaxTovisit: %d", agg.MaxTovisit)
	}
}

func TestHopsPerRelaxationZero(t *testing.T) {
	var tr Trace
	if tr.HopsPerRelaxation() != 0 {
		t.Fatal("zero trace should report 0 hops/relax")
	}
}

func TestParentsCertifyTree(t *testing.T) {
	g := gen.Random(800, 3200, 1<<12, gen.UWD, 5)
	h := ch.BuildKruskal(g)
	q := NewSolver(h, par.NewExec(4)).Query()
	dist := q.Run(0)
	parent := q.Parents()
	if parent[0] != -1 {
		t.Fatal("source has a parent")
	}
	for v := int32(1); v < int32(g.NumVertices()); v++ {
		if dist[v] == graph.Inf {
			if parent[v] != -1 {
				t.Fatalf("unreachable %d has parent", v)
			}
			continue
		}
		p := parent[v]
		if p < 0 {
			t.Fatalf("reachable %d has no parent", v)
		}
		ts, ws := g.Neighbors(p)
		ok := false
		for i, u := range ts {
			if u == v && dist[p]+int64(ws[i]) == dist[v] {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("parent edge (%d,%d) does not certify", p, v)
		}
	}
}

func TestMultiSourceMatchesMinOfDijkstras(t *testing.T) {
	g := gen.Random(600, 2400, 1<<10, gen.UWD, 9)
	h := ch.BuildKruskal(g)
	sources := []int32{0, 123, 456}

	want := make([]int64, g.NumVertices())
	for i := range want {
		want[i] = graph.Inf
	}
	for _, s := range sources {
		d := dijkstra.SSSP(g, s)
		for v := range d {
			if d[v] < want[v] {
				want[v] = d[v]
			}
		}
	}

	q := NewSolver(h, par.NewExec(4)).Query()
	got := q.RunFromSources(sources)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("parallel multi-source d[%d]=%d, want %d", v, got[v], want[v])
		}
	}
	gotSerial := SerialSSSPFromSources(h, sources)
	for v := range want {
		if gotSerial[v] != want[v] {
			t.Fatalf("serial multi-source d[%d]=%d, want %d", v, gotSerial[v], want[v])
		}
	}
}

func TestMultiSourceEmptyPanics(t *testing.T) {
	h := ch.BuildKruskal(gen.Path(3, 1))
	q := NewSolver(h, par.NewExec(1)).Query()
	defer func() {
		if recover() == nil {
			t.Fatal("empty sources did not panic")
		}
	}()
	q.RunFromSources(nil)
}

func TestMultiSourceDuplicatesOK(t *testing.T) {
	g := gen.Path(10, 3)
	h := ch.BuildKruskal(g)
	q := NewSolver(h, par.NewExec(2)).Query()
	d := q.RunFromSources([]int32{4, 4, 4})
	for v := 0; v < 10; v++ {
		want := int64(3 * abs(v-4))
		if d[v] != want {
			t.Fatalf("d[%d]=%d want %d", v, d[v], want)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestEccentricityAndReached(t *testing.T) {
	g := gen.Path(5, 3) // distances 0,3,6,9,12 from vertex 0
	h := ch.BuildKruskal(g)
	q := NewSolver(h, par.NewExec(1)).Query()
	q.Run(0)
	if q.Eccentricity() != 12 || q.Reached() != 5 {
		t.Fatalf("ecc=%d reached=%d", q.Eccentricity(), q.Reached())
	}
}
