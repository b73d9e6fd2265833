package mutate

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// fuzzGraph is the fixed target the fuzzer validates batches against. Small
// enough that many random (u,v) pairs are in range, with a self-loop and a
// parallel edge so every op kind has live targets.
var fuzzGraph = func() *graph.Graph {
	g := gen.Random(32, 96, 1<<8, gen.UWD, 9)
	b := graph.NewBuilder(32)
	for _, e := range g.Edges() {
		b.MustAddEdge(e.U, e.V, e.W)
	}
	b.MustAddEdge(3, 3, 7)
	b.MustAddEdge(5, 9, 2)
	b.MustAddEdge(5, 9, 4)
	return b.Build()
}()

// FuzzMutateRequest holds the whole request path to its contract: parsing
// never panics, and an accepted batch validates structurally, applies through
// the overlay to a graph that passes Validate, agrees with the naive
// reference replay, and round-trips exactly through its JSON encoding.
func FuzzMutateRequest(f *testing.F) {
	f.Add([]byte(`{"ops":[{"op":"set_weight","u":5,"v":9,"w":11}]}`))
	f.Add([]byte(`{"ops":[{"op":"insert","u":0,"v":31,"w":1},{"op":"delete","u":3,"v":3}]}`))
	f.Add([]byte(`{"ops":[{"op":"delete","u":5,"v":9}]}`))
	f.Add([]byte(`{"ops":[]}`))
	f.Add([]byte(`{"ops":[{"op":"insert","u":-1,"v":99,"w":0}]}`))
	f.Add([]byte(`{"ops":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ParseRequest(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs only need to not panic
		}
		// Accepted ⇒ its JSON encoding parses back to the same batch.
		enc, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := ParseRequest(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("encoded batch does not re-parse: %v", err)
		}
		if !reflect.DeepEqual(b, b2) {
			t.Fatalf("delta round trip mismatch: %+v vs %+v", b, b2)
		}
		if err := b.Validate(fuzzGraph); err != nil {
			return
		}
		// Validated ⇒ applies, and the result is a well-formed CSR graph that
		// matches the naive reference replay.
		g2, _, err := Apply(fuzzGraph, b)
		if err != nil {
			t.Fatalf("validated batch failed to apply: %v", err)
		}
		if err := g2.Validate(); err != nil {
			t.Fatalf("applied overlay is corrupt: %v", err)
		}
		ref, err := ReferenceApply(fuzzGraph, b)
		if err != nil {
			t.Fatalf("validated batch failed reference replay: %v", err)
		}
		if g2.NumEdges() != ref.NumEdges() {
			t.Fatalf("overlay has %d edges, reference %d", g2.NumEdges(), ref.NumEdges())
		}
		counts := map[graph.Edge]int{}
		for _, e := range g2.Edges() {
			if e.U > e.V {
				e.U, e.V = e.V, e.U
			}
			counts[e]++
		}
		for _, e := range ref.Edges() {
			if e.U > e.V {
				e.U, e.V = e.V, e.U
			}
			counts[e]--
			if counts[e] == 0 {
				delete(counts, e)
			}
		}
		if len(counts) != 0 {
			t.Fatalf("overlay and reference replay disagree on %d edge slots", len(counts))
		}
	})
}
