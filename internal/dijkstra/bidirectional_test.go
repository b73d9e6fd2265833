package dijkstra

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/deltastep"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
)

func TestSTBasics(t *testing.T) {
	g := gen.Path(10, 3)
	if d := STDistance(g, 0, 9); d != 27 {
		t.Fatalf("path end-to-end: %d", d)
	}
	if d := STDistance(g, 4, 4); d != 0 {
		t.Fatalf("self: %d", d)
	}
	if d := STDistance(g, 9, 0); d != 27 {
		t.Fatalf("reverse: %d", d)
	}
}

func TestSTUnreachable(t *testing.T) {
	b := graph.NewBuilder(4)
	b.MustAddEdge(0, 1, 2)
	g := b.Build()
	if d := STDistance(g, 0, 3); d != graph.Inf {
		t.Fatalf("unreachable: %d", d)
	}
}

func TestSTEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	if d := STDistance(g, 0, 0); d != 0 {
		t.Fatalf("s==t on empty ids: %d", d)
	}
}

// stDirty reports what of a scratch's between-runs state a run left behind:
// queued entries, touched vertices, or a distance not at graph.Inf.
func stDirty(sc *STScratch) error {
	for k := range sc.q {
		if sc.q[k].Top() != graph.Inf {
			return fmt.Errorf("side %d queue holds entries", k)
		}
	}
	if len(sc.touched) != 0 {
		return fmt.Errorf("%d touched vertices", len(sc.touched))
	}
	if i := slices.IndexFunc(sc.d, func(d [2]int64) bool { return d != [2]int64{graph.Inf, graph.Inf} }); i >= 0 {
		return fmt.Errorf("d[%d] = %v", i, sc.d[i])
	}
	return nil
}

// On every family, over random pairs and budgets of one vertex, the engine's
// n/32 and none, one warm scratch answers exactly whenever it finishes, gives
// up only at its budget, and is clean after every call; the lazy-heap arm
// agrees without a budget.
func TestSTMatchesDijkstraOnFamilies(t *testing.T) {
	const logn, pairs = 10, 300
	for _, fam := range stFamilies {
		g := fam.make(logn)
		n := g.NumVertices()
		x, sc, lazy, r := NewSTIndex(g, nil), new(STScratch), new(lazySTScratch), rng.New(30)
		for i := 0; i < pairs; i++ {
			s, tgt := int32(r.Intn(n)), int32(r.Intn(n))
			want := SSSP(g, s)[tgt]
			for _, budget := range []int{1, n / 32, math.MaxInt} {
				got, settled, ok := sc.Distance(x, s, tgt, budget)
				if err := stDirty(sc); err != nil {
					t.Fatalf("%s st(%d,%d) budget %d: %v", fam.name, s, tgt, budget, err)
				}
				if ok && got != want || !ok && settled != budget {
					t.Fatalf("%s st(%d,%d) budget %d = (%d, %d settled, %v), dijkstra %d", fam.name, s, tgt, budget, got, settled, ok, want)
				}
			}
			if got, _, _ := lazySTDistance(lazy, g, s, tgt, math.MaxInt); got != want {
				t.Fatalf("%s lazy-heap st(%d,%d) = %d, dijkstra %d", fam.name, s, tgt, got, want)
			}
		}
	}
}

// The index holds each row's arcs, parallel ones included, in weight order,
// and the far end of a path of graph.MaxWeight arcs, past 2^32 from five
// vertices on, is exact.
func TestSTIndex(t *testing.T) {
	b := graph.NewBuilder(6)
	for _, e := range [][3]int32{{0, 1, 5}, {0, 2, 5}, {0, 1, 5}, {0, 3, 1}, {0, 1, 2}, {0, 4, 5}, {2, 3, 7}, {0, 5, 3}} {
		b.MustAddEdge(e[0], e[1], uint32(e[2]))
	}
	hub := stFamilies[3].make(10) // R-MAT: rows past smallRow take the comparison sort
	for _, g := range []*graph.Graph{b.Build(), hub} {
		x := NewSTIndex(g, nil)
		if x.Bytes() != 8*g.NumArcs() || x.NumVertices() != g.NumVertices() {
			t.Fatalf("%d bytes, %d vertices", x.Bytes(), x.NumVertices())
		}
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			ts, ws := g.Neighbors(v)
			var want []uint64
			for i, u := range ts {
				want = append(want, uint64(ws[i])<<32|uint64(u))
			}
			slices.Sort(want)
			if row := x.arcs[x.offsets[v]:x.offsets[v+1]]; !slices.Equal(row, want) {
				t.Fatalf("row %d = %x, want %x", v, row, want)
			}
		}
	}
	if hub.Degrees().Max <= smallRow {
		t.Fatalf("no row longer than %d", smallRow)
	}
	for n := 2; n <= 6; n++ {
		x := NewSTIndex(gen.Path(n, graph.MaxWeight), nil)
		if d, _, _ := new(STScratch).Distance(x, 0, int32(n-1), math.MaxInt); d != int64(n-1)*int64(graph.MaxWeight) {
			t.Fatalf("path of %d: %d", n, d)
		}
	}
}

// Property: bidirectional search matches full Dijkstra for random pairs.
func TestQuickSTMatchesDijkstra(t *testing.T) {
	f := func(seed uint32) bool {
		n := int(seed%150) + 2
		g := gen.Random(n, 4*n, 1<<10, gen.UWD, uint64(seed))
		s := int32(seed % uint32(n))
		tt := int32((seed / 3) % uint32(n))
		return STDistance(g, s, tt) == SSSP(g, s)[tt]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// One scratch answers a run of pairs — reachable, unreachable, abandoned at
// every budget, s = t — exactly as a fresh one does, and is back at its
// between-runs state after each: the reset of what a run touched is complete.
func TestSTScratchReuseMatchesFresh(t *testing.T) {
	b := graph.NewBuilder(40)
	for v := int32(0); v < 29; v++ {
		b.MustAddEdge(v, v+1, uint32(1+v%5))
		b.MustAddEdge(v, (v*7+3)%30, uint32(2+v%11))
	}
	b.MustAddEdge(0, 5, 9)
	b.MustAddEdge(0, 5, 2) // parallel arcs: the lighter one counts
	b.MustAddEdge(30, 31, 4)
	b.MustAddEdge(12, 32, 1<<20) // a pendant behind one very heavy arc
	g := b.Build()               // 33..39 are isolated
	n := int32(g.NumVertices())
	x, sc := NewSTIndex(g, nil), new(STScratch)
	for s := int32(0); s < n; s += 3 {
		want := SSSP(g, s)
		for tgt := int32(0); tgt < n; tgt++ {
			for _, budget := range []int{0, 1, 3, 8, math.MaxInt} {
				what := fmt.Sprintf("st(%d,%d) budget %d", s, tgt, budget)
				got, settled, ok := sc.Distance(x, s, tgt, budget)
				if err := stDirty(sc); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				fd, fsettled, fok := new(STScratch).Distance(x, s, tgt, budget)
				if got != fd || settled != fsettled || ok != fok {
					t.Fatalf("%s: reused (%d,%d,%v), fresh (%d,%d,%v)", what, got, settled, ok, fd, fsettled, fok)
				}
				if settled > budget {
					t.Fatalf("%s: settled %d", what, settled)
				}
				if ok && got != want[tgt] {
					t.Fatalf("%s = %d, want %d", what, got, want[tgt])
				}
				if !ok && budget == math.MaxInt {
					t.Fatalf("%s: gave up without a budget", what)
				}
			}
		}
	}
}

// A warm scratch allocates nothing, whatever the outcome.
func TestWarmSTScratchAllocatesNothing(t *testing.T) {
	g := gen.Random(2048, 8192, 1<<11, gen.PWD, 9)
	x, sc := NewSTIndex(g, nil), new(STScratch)
	for tgt := int32(1); tgt < 2048; tgt++ {
		sc.Distance(x, 0, tgt, math.MaxInt) // grow the buckets and touched list
	}
	tgt := int32(0)
	if a := testing.AllocsPerRun(200, func() { tgt++; sc.Distance(x, 0, tgt, 64) }); a != 0 {
		t.Fatalf("warm s-t query: %v allocs, want 0", a)
	}
}

// lazySTScratch and lazySTDistance are STScratch.Distance as it was before the
// radix queues and the pruning rule — a distance array, lazy binary heap and
// touched list a side, every improving label queued — kept as BenchmarkST's
// lazy-heap arm.
type lazySTScratch struct{ fwd, bwd lazySTSide }

type lazySTSide struct {
	dist    []int64 // graph.Inf everywhere between runs
	heap    lazyHeap
	touched []int32
}

func lazySTDistance(sc *lazySTScratch, g *graph.Graph, s, t int32, budget int) (dist int64, settled int, ok bool) {
	if s == t {
		return 0, 0, true
	}
	fwd, bwd := &sc.fwd, &sc.bwd
	fwd.start(g.NumVertices(), s)
	bwd.start(g.NumVertices(), t)
	defer fwd.finish()
	defer bwd.finish()
	dist = graph.Inf
	for fwd.top()+bwd.top() < dist {
		side, other := fwd, bwd
		if len(bwd.touched) < len(fwd.touched) {
			side, other = bwd, fwd
		}
		top := side.heap.pop()
		if top.d > side.dist[top.v] {
			continue
		}
		if settled == budget {
			return dist, settled, false
		}
		settled++
		ts, ws := g.Neighbors(top.v)
		for i, u := range ts {
			nd := top.d + int64(ws[i])
			if nd < side.dist[u] {
				if side.dist[u] == graph.Inf {
					side.touched = append(side.touched, u)
				}
				side.dist[u] = nd
				side.heap.push(entry{v: u, d: nd})
			}
			if cand := nd + other.dist[u]; cand < dist {
				dist = cand
			}
		}
	}
	return dist, settled, true
}

func (sd *lazySTSide) start(n int, src int32) {
	if len(sd.dist) < n {
		sd.dist = make([]int64, n)
		for i := range sd.dist {
			sd.dist[i] = graph.Inf
		}
	}
	sd.dist[src] = 0
	sd.touched = append(sd.touched, src)
	sd.heap = append(sd.heap, entry{v: src})
}

func (sd *lazySTSide) finish() {
	for _, v := range sd.touched {
		sd.dist[v] = graph.Inf
	}
	sd.touched, sd.heap = sd.touched[:0], sd.heap[:0]
}

func (sd *lazySTSide) top() int64 {
	if len(sd.heap) == 0 {
		return graph.Inf
	}
	return sd.heap[0].d
}

// minKeySTDistance is STDistance as it was before STScratch — two fresh
// distance arrays a call, pop the side with the smaller frontier key — kept as
// BenchmarkST's comparison arm. It returns the number of vertices it settled
// beside the distance.
func minKeySTDistance(g *graph.Graph, s, t int32) (int64, int) {
	if s == t {
		return 0, 0
	}
	type search struct {
		dist []int64
		heap lazyHeap
	}
	newSearch := func(src int32) *search {
		sr := &search{dist: make([]int64, g.NumVertices()), heap: lazyHeap{{v: src}}}
		for i := range sr.dist {
			sr.dist[i] = graph.Inf
		}
		sr.dist[src] = 0
		return sr
	}
	topKey := func(h lazyHeap) int64 {
		if len(h) == 0 {
			return graph.Inf
		}
		return h[0].d
	}
	fwd, bwd := newSearch(s), newSearch(t)
	best, settled := graph.Inf, 0
	for topKey(fwd.heap)+topKey(bwd.heap) < best {
		side, other := fwd, bwd
		if topKey(bwd.heap) < topKey(fwd.heap) {
			side, other = bwd, fwd
		}
		top := side.heap.pop()
		if top.d > side.dist[top.v] {
			continue
		}
		settled++
		ts, ws := g.Neighbors(top.v)
		for i, u := range ts {
			nd := top.d + int64(ws[i])
			if nd < side.dist[u] {
				side.dist[u] = nd
				side.heap.push(entry{v: u, d: nd})
			}
			if cand := nd + other.dist[u]; cand < best {
				best = cand
			}
		}
	}
	return best, settled
}

func TestMinKeyArmMatchesDijkstra(t *testing.T) {
	g := gen.RMATGraph(512, 2048, 1<<8, gen.PWD, 3)
	want := SSSP(g, 7)
	for tgt := int32(0); tgt < 512; tgt += 17 {
		if got, _ := minKeySTDistance(g, 7, tgt); got != want[tgt] {
			t.Fatalf("min-key st(7,%d) = %d, want %d", tgt, got, want[tgt])
		}
	}
}

// stFamilies are BenchmarkKernel's seven instance shapes (internal/core,
// internal/deltastep): m = 4n, C = n unless the name says otherwise.
var stFamilies = []struct {
	name string
	make func(logn int) *graph.Graph
}{
	{"rand-uwd", func(l int) *graph.Graph { return gen.Random(1<<l, 4<<l, 1<<l, gen.UWD, 1) }},
	{"rand-pwd", func(l int) *graph.Graph { return gen.Random(1<<l, 4<<l, 1<<l, gen.PWD, 2) }},
	{"rand-c4", func(l int) *graph.Graph { return gen.Random(1<<l, 4<<l, 4, gen.UWD, 3) }},
	{"rmat-uwd", func(l int) *graph.Graph { return gen.RMATGraph(1<<l, 4<<l, 1<<l, gen.UWD, 4) }},
	{"rmat-pwd", func(l int) *graph.Graph { return gen.RMATGraph(1<<l, 4<<l, 1<<l, gen.PWD, 5) }},
	{"grid-uwd", func(l int) *graph.Graph { return gen.GridGraph(1<<(l/2), 1<<(l-l/2), 1<<l, gen.UWD, 6) }},
	{"grid-pwd", func(l int) *graph.Graph { return gen.GridGraph(1<<(l/2), 1<<(l-l/2), 1<<l, gen.PWD, 7) }},
}

// BenchmarkST is the table behind the engine's targeted-query budget of n/32
// settled vertices (DESIGN.md §5, decision 16): on each family at logn 16,
// over the same random pairs, a warm STScratch without a budget ("balanced"),
// the same search on lazy binary heaps without pruning ("lazy-heap"), the
// min-key alternation that preceded both ("min-key"), what a first-touch targeted
// query costs — the search under the budget, then a full delta-stepping solve
// if it gave up ("targeted") — and the full solve alone ("delta"). ns/op is
// the mean per pair; the search arms also report the median and 95th
// percentile of vertices settled and the share of pairs that outgrow n/32.
// make bench-p2p runs all of it into results/bench-p2p.csv.
func BenchmarkST(b *testing.B) {
	const logn = 16
	rt := par.NewExec(1)
	for _, fam := range stFamilies {
		var g *graph.Graph // built by the first arm that runs
		for _, arm := range []string{"balanced", "lazy-heap", "min-key", "targeted", "delta"} {
			b.Run(fmt.Sprintf("logn=%d/%s/k=1/%s", logn, fam.name, arm), func(b *testing.B) {
				if g == nil {
					g = fam.make(logn)
				}
				n := g.NumVertices()
				budget, delta := n/32, deltastep.DefaultDelta(g)
				x, sc, lazy, full := NewSTIndex(g, nil), new(STScratch), new(lazySTScratch), deltastep.NewState()
				full.RunFromSources(context.Background(), rt, g, []int32{0}, delta)
				sc.Distance(x, 0, int32(n-1), math.MaxInt)
				lazySTDistance(lazy, g, 0, int32(n-1), math.MaxInt)
				r := rng.New(26)
				settled := make([]int, 0, b.N)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s, t := int32(r.Intn(n)), int32(r.Intn(n))
					switch arm {
					case "balanced":
						_, k, _ := sc.Distance(x, s, t, math.MaxInt)
						settled = append(settled, k)
					case "lazy-heap":
						_, k, _ := lazySTDistance(lazy, g, s, t, math.MaxInt)
						settled = append(settled, k)
					case "min-key":
						_, k := minKeySTDistance(g, s, t)
						settled = append(settled, k)
					case "targeted":
						if _, _, ok := sc.Distance(x, s, t, budget); !ok {
							full.RunFromSources(context.Background(), rt, g, []int32{s}, delta)
						}
					case "delta":
						full.RunFromSources(context.Background(), rt, g, []int32{s}, delta)
					}
				}
				b.StopTimer()
				if len(settled) == 0 {
					return
				}
				slices.Sort(settled)
				over, _ := slices.BinarySearch(settled, budget+1)
				b.ReportMetric(float64(settled[len(settled)/2]), "settled_p50")
				b.ReportMetric(float64(settled[len(settled)*95/100]), "settled_p95")
				b.ReportMetric(float64(len(settled)-over)/float64(len(settled)), "bail_share@n/32")
			})
		}
	}
}

// BenchmarkSTIndex is what a generation's first targeted request pays before
// it searches: NewSTIndex on each family at logn 16, on the caller alone and
// on a two-worker runtime (EXPERIMENTS.md's dijkstra.st_index_ms). The
// sort-rows arm is the same fill on the caller with slices.Sort on every row.
func BenchmarkSTIndex(b *testing.B) {
	const logn = 16
	for _, fam := range stFamilies {
		var g *graph.Graph
		for _, arm := range []string{"workers=0", "workers=2", "sort-rows"} {
			b.Run(fmt.Sprintf("logn=%d/%s/%s", logn, fam.name, arm), func(b *testing.B) {
				if g == nil {
					g = fam.make(logn)
				}
				var rt par.Runtime
				if arm == "workers=2" {
					rt = par.NewExec(2)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if arm == "sort-rows" {
						sortRows(g)
					} else {
						NewSTIndex(g, rt)
					}
				}
			})
		}
	}
}

// sortRows is NewSTIndex's arc array made the plain way: fill each row, then
// slices.Sort it.
func sortRows(g *graph.Graph) []uint64 {
	off, ts, ws := g.AdjOffsets(), g.Targets(), g.Weights()
	arcs := make([]uint64, len(ts))
	for v := 0; v < g.NumVertices(); v++ {
		row := arcs[off[v]:off[v+1]]
		for i, u := range ts[off[v]:off[v+1]] {
			row[i] = uint64(ws[off[v]+int64(i)])<<32 | uint64(uint32(u))
		}
		slices.Sort(row)
	}
	return arcs
}
