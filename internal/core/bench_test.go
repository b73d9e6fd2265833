package core

import (
	"fmt"
	"testing"

	"repro/internal/ch"
	"repro/internal/deltastep"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
)

// benchFamilies are the instance shapes EXPERIMENTS.md's exec-kernel table is
// measured on, the ones internal/deltastep's BenchmarkKernel uses: m = 4n
// throughout, C = n unless the name says otherwise.
var benchFamilies = []struct {
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

// BenchmarkKernel times nearest-of-4 source sets (the shape the engine sends
// to Thorup) on each family at logn 16 and 19, three ways: the paper-faithful
// serial traversal of serial.go, a warm exec-kernel Query, and one warm
// delta-stepping run over the same sets. Select with e.g.
// -bench 'Kernel/logn=16/rand-uwd/exec'.
func BenchmarkKernel(b *testing.B) {
	rt := par.NewExec(1)
	for _, logn := range []int{16, 19} {
		for _, fam := range benchFamilies {
			var (
				g     *graph.Graph
				h     *ch.Hierarchy
				q     *Query
				delta int64
			)
			setup := func() {
				if g == nil {
					g = fam.make(logn)
					h = ch.BuildKruskal(g)
					q = NewSolver(h, rt).Query()
					delta = deltastep.DefaultDelta(g)
				}
			}
			var set [4]int32
			srcs := func(i int) []int32 {
				n := g.NumVertices()
				for k := range set {
					set[k] = int32((i + k*n/4) % n)
				}
				return set[:]
			}
			prefix := fmt.Sprintf("logn=%d/%s/", logn, fam.name)
			b.Run(prefix+"serial", func(b *testing.B) {
				setup()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					SerialSSSPFromSources(h, srcs(i))
				}
			})
			b.Run(prefix+"exec", func(b *testing.B) {
				setup()
				q.RunFromSources(srcs(0))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q.Reset()
					q.RunFromSources(srcs(i))
				}
			})
			b.Run(prefix+"delta", func(b *testing.B) {
				setup()
				st := deltastep.NewState()
				st.RunFromSources(rt, g, srcs(0), delta)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st.RunFromSources(rt, g, srcs(i), delta)
				}
			})
		}
	}
}
