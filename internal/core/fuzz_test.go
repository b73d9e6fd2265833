package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/ch"
	"repro/internal/deltastep"
	"repro/internal/dijkstra"
	"repro/internal/graph"
	"repro/internal/mlb"
	"repro/internal/par"
)

// decodeGraph turns arbitrary fuzz bytes into a small multigraph: first byte
// picks n in [1,30], then each (u, v, w) triple adds one edge. Shared by the
// differential fuzz targets so their corpora cross-pollinate. A first byte of
// 128 or more makes the weights PWD-like, 2^(w mod 31) — up to
// graph.MaxWeight, where a narrow bucket width leaves most of a
// delta-stepping run to its overflow list.
func decodeGraph(data []byte) (*graph.Graph, []byte) {
	n, pwd := int(data[0])%30+1, data[0] >= 128
	data = data[1:]
	b := graph.NewBuilder(n)
	for len(data) >= 3 {
		u := int32(int(data[0]) % n)
		v := int32(int(data[1]) % n)
		w := uint32(data[2])%255 + 1
		if pwd {
			w = 1 << (data[2] % 31)
		}
		b.MustAddEdge(u, v, w)
		data = data[3:]
	}
	return b.Build(), data
}

// FuzzThorupVsDijkstra decodes arbitrary bytes into a small multigraph and
// cross-checks every Thorup variant against Dijkstra. This hunts for CH or
// traversal bugs on degenerate shapes the structured generators never emit.
// pick names the source set: its low two bits give the size, 1 to 4, and five
// bits apiece above them the sources (repeats allowed). The serving kernel,
// the serial traversal and Dijkstra seeded with every source run the whole
// set against the minimum of single-source Dijkstra runs, and the kernel's
// invariants are checked after it; the physical-bucket ablation is
// single-source and runs the first.
func FuzzThorupVsDijkstra(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 1, 2, 2, 2, 3, 4}, uint32(0))
	f.Add([]byte{2, 0, 0, 200}, uint32(0b00001_00000_01))
	f.Add([]byte{10}, uint32(0b01001_00011_00011_00000_11))
	f.Add([]byte{7, 0, 1, 255, 1, 2, 1, 2, 0, 128, 3, 3, 3}, uint32(0b00110_00101_00000_10))
	f.Fuzz(func(t *testing.T, data []byte, pick uint32) {
		if len(data) == 0 {
			return
		}
		g, _ := decodeGraph(data)
		n := g.NumVertices()
		h := ch.BuildKruskal(g)
		if err := h.Validate(); err != nil {
			t.Fatalf("hierarchy invalid: %v", err)
		}
		srcs := make([]int32, pick%4+1)
		for i := range srcs {
			srcs[i] = int32(pick>>(2+5*i)%32) % int32(n)
		}
		want := nearest(g, srcs)
		q := NewSolver(h, par.NewExec(2)).Query()
		for name, got := range map[string][]int64{
			"serial":   SerialSSSPFromSources(h, srcs),
			"exec":     q.RunFromSources(srcs),
			"dijkstra": dijkstra.SSSPFromSources(g, srcs), // the seeded run vs the min of single-source runs
		} {
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s srcs=%v: d[%d]=%d, dijkstra %d (n=%d)", name, srcs, v, got[v], want[v], n)
				}
			}
		}
		if err := q.CheckInvariants(); err != nil {
			t.Fatalf("srcs=%v: %v", srcs, err)
		}
		want = dijkstra.SSSP(g, srcs[0])
		for v, d := range SerialSSSPPhysical(h, srcs[0]) {
			if d != want[v] {
				t.Fatalf("physical src=%d: d[%d]=%d, dijkstra %d (n=%d)", srcs[0], v, d, want[v], n)
			}
		}
	})
}

// FuzzDeltaStepVsDijkstra cross-checks delta-stepping against Dijkstra on
// fuzz-decoded multigraphs. The byte after the edge triples (when present)
// picks the bucket width, so the fuzzer also explores degenerate deltas —
// width 1 (pure Dijkstra-like, and on PWD-like weights a run that lives in
// the overflow list) through widths far above the weight range; without it
// the width is the measured one. pick names the source set as in
// FuzzThorupVsDijkstra: one to four sources, repeats allowed.
func FuzzDeltaStepVsDijkstra(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 1, 2, 2, 2, 3, 4}, uint32(0))
	f.Add([]byte{2, 0, 0, 200, 7}, uint32(0))
	f.Add([]byte{10}, uint32(0b01001_00011_00011_00000_11))
	f.Add([]byte{7, 0, 1, 255, 1, 2, 1, 2, 0, 128, 3, 3, 3, 0}, uint32(0b00110_00101_00000_10))
	f.Add([]byte{9, 0, 1, 9, 1, 2, 9, 4, 5, 1, 7, 8, 30, 2, 6, 8, 6}, uint32(0b00111_00000_01))
	// PWD-like weights up to 2^30 at width 1: two components (0-1-2-3 and
	// 5-6-7 of 17 vertices), one source and then sources in both.
	f.Add([]byte{128 + 8, 0, 1, 30, 1, 2, 3, 2, 3, 29, 3, 0, 17, 5, 6, 30, 6, 7, 1, 0}, uint32(0))
	f.Add([]byte{128 + 8, 0, 1, 30, 1, 2, 3, 2, 3, 29, 3, 0, 17, 5, 6, 30, 6, 7, 1, 0}, uint32(0b00110_00010_00110_00010_11))
	// The same weights on a 6-cycle with chords: the measured width, width 1,
	// width 256.
	f.Add([]byte{128 + 11, 0, 1, 1, 1, 2, 30, 2, 3, 2, 3, 4, 29, 4, 5, 3, 5, 0, 28, 0, 3, 15, 1, 4, 22}, uint32(0b00100_00001_01))
	f.Add([]byte{128 + 11, 0, 1, 1, 1, 2, 30, 2, 3, 2, 3, 4, 29, 4, 5, 3, 5, 0, 28, 0, 3, 15, 1, 4, 22, 0}, uint32(0b00100_00001_01))
	f.Add([]byte{128 + 11, 0, 1, 1, 1, 2, 30, 2, 3, 2, 3, 4, 29, 4, 5, 3, 5, 0, 28, 0, 3, 15, 1, 4, 22, 255}, uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, pick uint32) {
		if len(data) == 0 {
			return
		}
		g, rest := decodeGraph(data)
		n := g.NumVertices()
		delta := deltastep.DefaultDelta(g)
		if len(rest) > 0 {
			delta = int64(rest[0])%300 + 1
		}
		srcs := make([]int32, pick%4+1)
		for i := range srcs {
			srcs[i] = int32(pick>>(2+5*i)%32) % int32(n)
		}
		want := nearest(g, srcs)
		got, _ := deltastep.NewState().RunFromSources(context.Background(), par.NewExec(2), g, srcs, delta)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("delta=%d srcs=%v: d[%d]=%d, dijkstra %d (n=%d)", delta, srcs, v, got[v], want[v], n)
			}
		}
	})
}

// FuzzSTVsDijkstra cross-checks the budgeted bidirectional s-t search the
// engine answers a targeted miss with against Dijkstra on fuzz-decoded
// multigraphs. pick names the query: five bits each for s and t, and the six
// above them a budget of that many settled vertices minus one (0: none). A
// search that finishes must be exact and one that gives up must have settled
// exactly its budget; the same scratch then answers t to s without a budget,
// so a run that gave up must also have put back everything it touched.
func FuzzSTVsDijkstra(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 1, 2, 2, 2, 3, 4}, uint32(0b00011_00000))
	f.Add([]byte{2, 0, 0, 200}, uint32(0b00001_00000))
	f.Add([]byte{10}, uint32(0b00100_00011))
	f.Add([]byte{7, 0, 1, 255, 1, 2, 1, 2, 0, 128, 3, 3, 3}, uint32(0b11_00010_00000))
	f.Add([]byte{9, 0, 1, 9, 1, 2, 9, 4, 5, 1, 7, 8, 30, 2, 6, 8, 6}, uint32(0b10_01000_00000))
	// PWD-like weights up to 2^30 around a 6-cycle with chords, both ways,
	// with and without a budget.
	f.Add([]byte{128 + 11, 0, 1, 1, 1, 2, 30, 2, 3, 2, 3, 4, 29, 4, 5, 3, 5, 0, 28, 0, 3, 15, 1, 4, 22}, uint32(0b00011_00000))
	f.Add([]byte{128 + 11, 0, 1, 1, 1, 2, 30, 2, 3, 2, 3, 4, 29, 4, 5, 3, 5, 0, 28, 0, 3, 15, 1, 4, 22}, uint32(0b100_00000_00011))
	f.Fuzz(func(t *testing.T, data []byte, pick uint32) {
		if len(data) == 0 {
			return
		}
		g, _ := decodeGraph(data)
		n := int32(g.NumVertices())
		s, tgt := int32(pick%32)%n, int32(pick>>5%32)%n
		budget := math.MaxInt
		if b := int(pick>>10) % 64; b > 0 {
			budget = b - 1
		}
		x, sc := dijkstra.NewSTIndex(g, nil), new(dijkstra.STScratch)
		want := dijkstra.SSSP(g, s)[tgt]
		got, settled, ok := sc.Distance(x, s, tgt, budget)
		if ok && got != want || !ok && settled != budget || settled > budget {
			t.Fatalf("st(%d,%d) budget %d = (%d, %d settled, %v), dijkstra %d (n=%d)", s, tgt, budget, got, settled, ok, want, n)
		}
		if got, _, _ := sc.Distance(x, tgt, s, math.MaxInt); got != want {
			t.Fatalf("reused scratch: st(%d,%d) = %d, dijkstra %d (n=%d)", tgt, s, got, want, n)
		}
	})
}

// FuzzMLBVsDijkstra cross-checks the multi-level bucket solver against
// Dijkstra on fuzz-decoded multigraphs.
func FuzzMLBVsDijkstra(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 1, 2, 2, 2, 3, 4})
	f.Add([]byte{2, 0, 0, 200})
	f.Add([]byte{10})
	f.Add([]byte{7, 0, 1, 255, 1, 2, 1, 2, 0, 128, 3, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g, _ := decodeGraph(data)
		want := dijkstra.SSSP(g, 0)
		got := mlb.SSSP(g, 0)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("mlb: d[%d]=%d, dijkstra %d (n=%d)", v, got[v], want[v], g.NumVertices())
			}
		}
	})
}
