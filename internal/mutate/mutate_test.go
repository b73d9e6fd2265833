package mutate

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ch"
	"repro/internal/dijkstra"
	"repro/internal/gen"
	"repro/internal/graph"
)

func testGraph() *graph.Graph {
	return gen.Random(200, 800, 1<<10, gen.UWD, 7)
}

func TestParseRequestStrict(t *testing.T) {
	if b, err := ParseRequest(strings.NewReader(`{"ops":[{"op":"insert","u":1,"v":2,"w":3}]}`)); err != nil || len(b.Ops) != 1 {
		t.Fatalf("valid request rejected: %v", err)
	}
	bad := []string{
		`{"ops":[{"op":"insert","u":1,"v":2,"w":3}], "extra": true}`,
		`{"ops":[{"op":"insert","u":1,"v":2,"w":3,"x":1}]}`,
		`{"ops":[]}{"ops":[]}`,
		`[1,2,3]`,
		`{"ops":[{"op":"insert","u":"one","v":2,"w":3}]}`,
		``,
	}
	for _, s := range bad {
		if _, err := ParseRequest(strings.NewReader(s)); err == nil {
			t.Errorf("accepted bad request %q", s)
		}
	}
}

func TestValidate(t *testing.T) {
	g := testGraph()
	e := g.Edges()[0]
	ok := []*Batch{
		{Ops: []Op{{Op: OpSetWeight, U: e.U, V: e.V, W: 9}}},
		{Ops: []Op{{Op: OpDelete, U: e.V, V: e.U}}}, // reversed endpoints fine
		{Ops: []Op{{Op: OpInsert, U: 0, V: 199, W: graph.MaxWeight}}},
	}
	for i, b := range ok {
		if err := b.Validate(g); err != nil {
			t.Errorf("valid batch %d rejected: %v", i, err)
		}
	}
	bad := []*Batch{
		{},
		{Ops: []Op{{Op: "upsert", U: 0, V: 1, W: 1}}},
		{Ops: []Op{{Op: OpInsert, U: 0, V: 200, W: 1}}},
		{Ops: []Op{{Op: OpInsert, U: -1, V: 0, W: 1}}},
		{Ops: []Op{{Op: OpInsert, U: 0, V: 1, W: 0}}},
		{Ops: []Op{{Op: OpInsert, U: 0, V: 1, W: graph.MaxWeight + 1}}},
		{Ops: []Op{{Op: OpDelete, U: e.U, V: e.V, W: 5}}},
		{Ops: []Op{{Op: OpSetWeight, U: e.U, V: e.V, W: 5}, {Op: OpDelete, U: e.V, V: e.U}}},
		{Ops: []Op{{Op: OpSetWeight, U: 0, V: 0, W: 5}}}, // no self-loop at 0 in this graph
	}
	for i, b := range bad {
		err := b.Validate(g)
		if err == nil {
			t.Errorf("bad batch %d accepted", i)
			continue
		}
		if !strings.Contains(err.Error(), "invalid mutation") {
			t.Errorf("bad batch %d error does not wrap ErrInvalid: %v", i, err)
		}
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	b := &Batch{Ops: []Op{
		{Op: OpSetWeight, U: 3, V: 9, W: 77},
		{Op: OpDelete, U: 4, V: 4},
		{Op: OpInsert, U: 0, V: 1, W: 1},
	}}
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseRequest(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", b, got)
	}
}

// randomBatch builds a valid batch against g.
func randomBatch(rnd *rand.Rand, g *graph.Graph) *Batch {
	edges := g.Edges()
	used := map[[2]int32]bool{}
	var ops []Op
	for i := 0; i < 1+rnd.Intn(8); i++ {
		switch rnd.Intn(3) {
		case 0, 1:
			if len(edges) == 0 {
				continue
			}
			e := edges[rnd.Intn(len(edges))]
			if used[pairKey(e.U, e.V)] {
				continue
			}
			used[pairKey(e.U, e.V)] = true
			if rnd.Intn(2) == 0 {
				ops = append(ops, Op{Op: OpSetWeight, U: e.U, V: e.V, W: uint32(1 + rnd.Intn(1<<11))})
			} else {
				ops = append(ops, Op{Op: OpDelete, U: e.U, V: e.V})
			}
		default:
			n := int32(g.NumVertices())
			u, v := rnd.Int31n(n), rnd.Int31n(n)
			if used[pairKey(u, v)] {
				continue
			}
			used[pairKey(u, v)] = true
			ops = append(ops, Op{Op: OpInsert, U: u, V: v, W: uint32(1 + rnd.Intn(1<<11))})
		}
	}
	if len(ops) == 0 {
		ops = []Op{{Op: OpInsert, U: 0, V: 1, W: 5}}
	}
	return &Batch{Ops: ops}
}

func sameEdgeMultiset(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	count := func(g *graph.Graph) map[graph.Edge]int {
		m := map[graph.Edge]int{}
		for _, e := range g.Edges() {
			if e.U > e.V {
				e.U, e.V = e.V, e.U
			}
			m[e]++
		}
		return m
	}
	ca, cb := count(a), count(b)
	if !reflect.DeepEqual(ca, cb) {
		t.Fatalf("edge multisets differ: %d vs %d edges", a.NumEdges(), b.NumEdges())
	}
}

func TestApplyMatchesReferenceApply(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	g := testGraph()
	cur := g
	var batches []*Batch
	for round := 0; round < 10; round++ {
		b := randomBatch(rnd, cur)
		g2, _, err := Apply(cur, b)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := g2.Validate(); err != nil {
			t.Fatalf("round %d: overlay invalid: %v", round, err)
		}
		batches = append(batches, b)
		cur = g2
	}
	ref, err := ReferenceApply(g, batches...)
	if err != nil {
		t.Fatal(err)
	}
	sameEdgeMultiset(t, cur, ref)
}

// Every batch repairs, whatever its width: a one-op re-weighting and a batch
// touching a fifth of the vertices alike come back with a valid hierarchy over
// the graph ReferenceApply makes.
func TestMutateRepairsAnyWidth(t *testing.T) {
	g := testGraph()
	h := ch.BuildKruskal(g)
	e := g.Edges()[10]
	small := &Batch{Ops: []Op{{Op: OpSetWeight, U: e.U, V: e.V, W: 3}}}
	wide := &Batch{}
	for i := int32(0); i < 40; i += 2 {
		wide.Ops = append(wide.Ops, Op{Op: OpInsert, U: i, V: i + 1, W: 2})
	}
	for _, tc := range []struct {
		b       *Batch
		touched int
		aliased bool
	}{{small, 2, true}, {wide, 40, false}} {
		res, err := Mutate(g, h, tc.b, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Fallback || res.G == nil || res.H == nil || res.Touched != tc.touched || res.Aliased != tc.aliased {
			t.Fatalf("%d-op batch: %+v, want a repair touching %d, aliased %v", len(tc.b.Ops), res, tc.touched, tc.aliased)
		}
		if err := res.H.Validate(); err != nil {
			t.Fatalf("%d-op batch: repaired hierarchy invalid: %v", len(tc.b.Ops), err)
		}
		ref, err := ReferenceApply(g, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []int32{0, 57, 199} {
			want := dijkstra.SSSP(ref, s)
			got := dijkstra.SSSP(res.G, s)
			for v := range want {
				if want[v] != got[v] {
					t.Fatalf("%d-op batch, src %d: d[%d] = %d, want %d", len(tc.b.Ops), s, v, got[v], want[v])
				}
			}
		}
	}
}

func TestMutateStructuralNotAliased(t *testing.T) {
	g := testGraph()
	h := ch.BuildKruskal(g)
	b := &Batch{Ops: []Op{{Op: OpInsert, U: 2, V: 180, W: 4}}}
	res, err := Mutate(g, h, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aliased {
		t.Fatal("structural mutation must not alias")
	}
	if err := res.H.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInjectFaultIsVisibleToDistanceOracle(t *testing.T) {
	g := gen.Path(50, 3) // a path: every edge is on many shortest paths
	h := ch.BuildKruskal(g)
	e := g.Edges()[25]
	b := &Batch{Ops: []Op{{Op: OpSetWeight, U: e.U, V: e.V, W: 100}}}
	res, err := Mutate(g, h, b, Options{InjectFault: true})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ReferenceApply(g, b)
	if err != nil {
		t.Fatal(err)
	}
	want := dijkstra.SSSP(ref, 0)
	got := dijkstra.SSSP(res.G, 0)
	diff := false
	for v := range want {
		if want[v] != got[v] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("injected fault produced identical distances; the planted bug is invisible")
	}
}
