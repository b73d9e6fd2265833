package graph

import (
	"testing"
)

func buildTestGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(6)
	b.MustAddEdge(0, 1, 4)
	b.MustAddEdge(1, 2, 7)
	b.MustAddEdge(2, 3, 1)
	b.MustAddEdge(3, 4, 9)
	b.MustAddEdge(4, 0, 2)
	b.MustAddEdge(1, 3, 5)
	b.MustAddEdge(2, 2, 3) // self-loop
	b.MustAddEdge(0, 1, 6) // parallel copy of (0,1)
	return b.Build()
}

func TestOverlayWeightOnlyAliasesArrays(t *testing.T) {
	g := buildTestGraph(t)
	g2, aliased, err := g.Overlay([]Edge{{U: 2, V: 3, W: 8}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !aliased {
		t.Fatal("weight-only overlay must report aliased")
	}
	if &g.offsets[0] != &g2.offsets[0] || &g.targets[0] != &g2.targets[0] {
		t.Fatal("weight-only overlay must share offsets/targets storage")
	}
	if err := g2.Validate(); err != nil {
		t.Fatalf("overlay invalid: %v", err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.NumVertices() != g.NumVertices() {
		t.Fatalf("weight-only overlay changed shape: %v vs %v", g2, g)
	}
	// Both arcs patched, parent untouched.
	ts, ws := g2.Neighbors(2)
	found := false
	for i, u := range ts {
		if u == 3 {
			found = true
			if ws[i] != 8 {
				t.Fatalf("arc 2->3 weight %d, want 8", ws[i])
			}
		}
	}
	if !found {
		t.Fatal("arc 2->3 missing")
	}
	_, pw := g.Neighbors(2)
	for i, u := range g.Targets()[g.AdjOffsets()[2]:g.AdjOffsets()[3]] {
		if u == 3 && pw[i] != 1 {
			t.Fatalf("parent weight mutated to %d", pw[i])
		}
	}
	if g2.MinWeight() != 2 || g2.MaxWeight() != 9 {
		t.Fatalf("weight bounds [%d,%d], want [2,9]", g2.MinWeight(), g2.MaxWeight())
	}
}

func TestOverlaySetWeightPatchesAllParallelCopies(t *testing.T) {
	g := buildTestGraph(t)
	g2, _, err := g.Overlay([]Edge{{U: 1, V: 0, W: 11}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v <= 1; v++ {
		ts, ws := g2.Neighbors(v)
		for i, u := range ts {
			if u == 1-v && ws[i] != 11 {
				t.Fatalf("arc %d->%d weight %d, want 11 (parallel copy missed)", v, u, ws[i])
			}
		}
	}
	if g2.MaxWeight() != 11 {
		t.Fatalf("max weight %d, want 11", g2.MaxWeight())
	}
}

func TestOverlayStructural(t *testing.T) {
	g := buildTestGraph(t)
	g2, aliased, err := g.Overlay(
		[]Edge{{U: 3, V: 4, W: 2}},
		[]Edge{{U: 0, V: 5, W: 3}, {U: 5, V: 5, W: 6}},
		[]Edge{{U: 0, V: 1}, {U: 2, V: 2}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if aliased {
		t.Fatal("structural overlay must not alias")
	}
	if err := g2.Validate(); err != nil {
		t.Fatalf("overlay invalid: %v", err)
	}
	// 8 edges - 2 parallel (0,1) copies - 1 self-loop + 2 inserts = 7.
	if g2.NumEdges() != 7 {
		t.Fatalf("edges %d, want 7", g2.NumEdges())
	}
	for _, e := range g2.Edges() {
		if (e.U == 0 && e.V == 1) || (e.U == 1 && e.V == 0) {
			t.Fatalf("deleted edge (0,1) still present: %+v", e)
		}
		if e.U == 2 && e.V == 2 {
			t.Fatalf("deleted self-loop (2,2) still present")
		}
		if e.U == 3 && e.V == 4 && e.W != 2 {
			t.Fatalf("set_weight (3,4)=2 not applied: %+v", e)
		}
	}
	ts, ws := g2.Neighbors(5)
	if len(ts) != 2 {
		t.Fatalf("vertex 5 arcs %v, want [0, self-loop]", ts)
	}
	if g2.MinWeight() != 1 {
		t.Fatalf("min weight %d, want 1", g2.MinWeight())
	}
	_ = ws
	// Parent unchanged.
	if g.NumEdges() != 8 {
		t.Fatalf("parent edge count changed: %d", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("parent corrupted: %v", err)
	}
}

func TestOverlayRejectsBadMutations(t *testing.T) {
	g := buildTestGraph(t)
	cases := []struct {
		name          string
		set, ins, del []Edge
	}{
		{"set missing edge", []Edge{{U: 0, V: 3, W: 1}}, nil, nil},
		{"set zero weight", []Edge{{U: 0, V: 1, W: 0}}, nil, nil},
		{"set overweight", []Edge{{U: 0, V: 1, W: MaxWeight + 1}}, nil, nil},
		{"set out of range", []Edge{{U: 0, V: 99, W: 1}}, nil, nil},
		{"insert zero weight", nil, []Edge{{U: 0, V: 3, W: 0}}, nil},
		{"insert out of range", nil, []Edge{{U: -1, V: 3, W: 1}}, nil},
		{"delete missing edge", nil, nil, []Edge{{U: 0, V: 3}}},
		{"delete out of range", nil, nil, []Edge{{U: 6, V: 0}}},
		{"structural set missing", []Edge{{U: 0, V: 3, W: 1}}, []Edge{{U: 4, V: 5, W: 1}}, nil},
	}
	for _, tc := range cases {
		if _, _, err := g.Overlay(tc.set, tc.ins, tc.del); err == nil {
			t.Errorf("%s: overlay accepted an invalid mutation", tc.name)
		}
	}
}

func TestOverlayInsertParallelAndMaxWeightShift(t *testing.T) {
	g := buildTestGraph(t)
	// Delete the heaviest edge (3,4,w=9): max weight must drop.
	g2, _, err := g.Overlay(nil, nil, []Edge{{U: 3, V: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if g2.MaxWeight() != 7 {
		t.Fatalf("max weight %d after deleting heaviest edge, want 7", g2.MaxWeight())
	}
	// Insert a parallel copy of an existing edge.
	g3, _, err := g2.Overlay(nil, []Edge{{U: 2, V: 3, W: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g3.Validate(); err != nil {
		t.Fatal(err)
	}
	count := 0
	ts, _ := g3.Neighbors(2)
	for _, u := range ts {
		if u == 3 {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("parallel insert: %d copies of (2,3), want 2", count)
	}
}

func TestOverlayChainEquivalentToRebuild(t *testing.T) {
	g := buildTestGraph(t)
	g2, _, err := g.Overlay(nil, []Edge{{U: 4, V: 5, W: 8}}, []Edge{{U: 1, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	g3, _, err := g2.Overlay([]Edge{{U: 4, V: 5, W: 1}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g3.Validate(); err != nil {
		t.Fatal(err)
	}
	// Rebuild the same edge multiset from scratch and compare as sets.
	want := map[Edge]int{}
	for _, e := range g3.Edges() {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		want[e]++
	}
	b := NewBuilder(6)
	b.MustAddEdge(0, 1, 4)
	b.MustAddEdge(1, 2, 7)
	b.MustAddEdge(2, 3, 1)
	b.MustAddEdge(3, 4, 9)
	b.MustAddEdge(4, 0, 2)
	b.MustAddEdge(2, 2, 3)
	b.MustAddEdge(0, 1, 6)
	b.MustAddEdge(4, 5, 1)
	ref := b.Build()
	got := map[Edge]int{}
	for _, e := range ref.Edges() {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		got[e]++
	}
	if len(want) != len(got) {
		t.Fatalf("edge multiset size differs: %d vs %d", len(want), len(got))
	}
	for e, c := range want {
		if got[e] != c {
			t.Fatalf("edge %+v count %d vs %d", e, c, got[e])
		}
	}
}
