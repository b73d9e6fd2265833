package verify

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dijkstra"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mta"
	"repro/internal/par"
)

func rt() par.Runtime { return par.NewExec(4) }

func TestAcceptsCorrectDistances(t *testing.T) {
	gs := []*graph.Graph{
		gen.Random(500, 2000, 1<<10, gen.UWD, 1),
		gen.RMATGraph(512, 2048, 1<<8, gen.PWD, 2),
		gen.GridGraph(20, 20, 16, gen.UWD, 3),
		gen.Path(50, 7),
	}
	for gi, g := range gs {
		d := dijkstra.SSSP(g, 0)
		if err := Distances(rt(), g, []int32{0}, d); err != nil {
			t.Errorf("graph %d: rejected correct distances: %v", gi, err)
		}
	}
}

func TestAcceptsDisconnected(t *testing.T) {
	b := graph.NewBuilder(4)
	b.MustAddEdge(0, 1, 5)
	g := b.Build()
	d := dijkstra.SSSP(g, 0)
	if err := Distances(rt(), g, []int32{0}, d); err != nil {
		t.Fatal(err)
	}
}

func TestAcceptsMultiSource(t *testing.T) {
	g := gen.Path(10, 2)
	sources := []int32{0, 9}
	d := dijkstra.SSSP(g, 0)
	d9 := dijkstra.SSSP(g, 9)
	for v := range d {
		if d9[v] < d[v] {
			d[v] = d9[v]
		}
	}
	if err := Distances(rt(), g, sources, d); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsCorruption(t *testing.T) {
	g := gen.Random(300, 1200, 1<<8, gen.UWD, 4)
	base := dijkstra.SSSP(g, 0)
	cases := map[string]func(d []int64){
		"too small (feasibility at neighbour)": func(d []int64) { d[100] = d[100] / 2 },
		"too large (feasibility)":              func(d []int64) { d[100] += 1 },
		"zero at non-source":                   func(d []int64) { d[100] = 0 },
		"negative":                             func(d []int64) { d[100] = -5 },
		"nonzero source":                       func(d []int64) { d[0] = 3 },
		"fake infinity":                        func(d []int64) { d[100] = graph.Inf },
	}
	for name, corrupt := range cases {
		d := make([]int64, len(base))
		copy(d, base)
		corrupt(d)
		if err := Distances(rt(), g, []int32{0}, d); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRejectsUniformShift(t *testing.T) {
	// Adding a constant to every non-source distance preserves feasibility
	// on most edges but breaks tightness at some vertex next to the source.
	g := gen.Path(10, 3)
	d := dijkstra.SSSP(g, 0)
	for v := 1; v < 10; v++ {
		d[v] += 1
	}
	err := Distances(rt(), g, []int32{0}, d)
	if err == nil {
		t.Fatal("accepted shifted distances")
	}
	if !strings.Contains(err.Error(), "tight") && !strings.Contains(err.Error(), "feas") {
		t.Fatalf("unexpected failure kind: %v", err)
	}
}

func TestRejectsShapeAndSourceErrors(t *testing.T) {
	g := gen.Path(5, 1)
	if err := Distances(rt(), g, []int32{0}, make([]int64, 3)); err == nil {
		t.Error("wrong-length distances accepted")
	}
	if err := Distances(rt(), g, nil, dijkstra.SSSP(g, 0)); err == nil {
		t.Error("empty sources accepted")
	}
	if err := Distances(rt(), g, []int32{99}, dijkstra.SSSP(g, 0)); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func TestWorksInSimMode(t *testing.T) {
	g := gen.Random(200, 800, 64, gen.UWD, 5)
	d := dijkstra.SSSP(g, 0)
	srt := mta.NewSim(mta.MTA2(8))
	if err := Distances(srt, g, []int32{0}, d); err != nil {
		t.Fatal(err)
	}
	if srt.SimCost().Work == 0 {
		t.Fatal("verification cost not accounted")
	}
}

func TestTreeCertification(t *testing.T) {
	g := gen.Random(400, 1600, 1<<8, gen.UWD, 6)
	dist, parent := dijkstra.SSSPWithParents(g, 0)
	if err := Tree(g, []int32{0}, dist, parent); err != nil {
		t.Fatal(err)
	}
	// Corrupt one parent pointer.
	bad := make([]int32, len(parent))
	copy(bad, parent)
	bad[100] = (bad[100] + 1) % 50
	if err := Tree(g, []int32{0}, dist, bad); err == nil {
		t.Fatal("accepted corrupted tree")
	}
	// Parent on the source.
	bad2 := make([]int32, len(parent))
	copy(bad2, parent)
	bad2[0] = 1
	if err := Tree(g, []int32{0}, dist, bad2); err == nil {
		t.Fatal("accepted parent on source")
	}
}

func TestPathReconstruction(t *testing.T) {
	g := gen.Path(6, 4)
	dist, parent := dijkstra.SSSPWithParents(g, 0)
	p := Path(dist, parent, 5)
	if len(p) != 6 || p[0] != 0 || p[5] != 5 {
		t.Fatalf("path %v", p)
	}
	// Unreachable.
	b := graph.NewBuilder(3)
	b.MustAddEdge(0, 1, 1)
	g2 := b.Build()
	d2, p2 := dijkstra.SSSPWithParents(g2, 0)
	if Path(d2, p2, 2) != nil {
		t.Fatal("path to unreachable vertex")
	}
}

// Property: the certifier accepts exact distances and rejects any single
// perturbed finite entry.
func TestQuickCertifier(t *testing.T) {
	r := rt()
	f := func(seed uint32, bump int8) bool {
		n := int(seed%150) + 2
		g := gen.Random(n, 4*n, 1<<8, gen.UWD, uint64(seed))
		src := int32(seed % uint32(n))
		d := dijkstra.SSSP(g, src)
		if Distances(r, g, []int32{src}, d) != nil {
			return false
		}
		if bump == 0 {
			return true
		}
		v := int32((seed / 7) % uint32(n))
		if v == src || d[v] == graph.Inf {
			return true
		}
		d[v] += int64(bump)
		return Distances(r, g, []int32{src}, d) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
