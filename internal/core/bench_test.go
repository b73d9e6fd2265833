package core

import (
	"context"
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

// BenchmarkKernel times one source (k=1) and nearest-of-4 source sets (k=4)
// on each family at logn 16 and 19, four ways: the paper-faithful serial
// traversal of serial.go, a warm exec-kernel Query, and one warm
// delta-stepping run over the same sets with the bucket width the serving
// stack measures ("delta") and with the paper's C/d ("delta-paper"). Select
// with e.g. -bench 'Kernel/logn=16/rand-uwd/k=4/exec'; make bench-kernels
// runs the exec arm beside internal/deltastep's two into
// results/bench-kernels.csv.
func BenchmarkKernel(b *testing.B) {
	rt := par.NewExec(1)
	for _, logn := range []int{16, 19} {
		for _, fam := range benchFamilies {
			var (
				g *graph.Graph
				h *ch.Hierarchy
				q *Query
			)
			setup := func() {
				if g == nil {
					g = fam.make(logn)
					h = ch.BuildKruskal(g)
					q = NewSolver(h, rt).Query()
				}
			}
			for _, k := range []int{1, 4} {
				set := make([]int32, k)
				srcs := func(i int) []int32 {
					n := g.NumVertices()
					for j := range set {
						set[j] = int32((i + j*n/k) % n)
					}
					return set
				}
				prefix := fmt.Sprintf("logn=%d/%s/k=%d/", logn, fam.name, k)
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
				for _, arm := range []struct {
					name  string
					delta func(*graph.Graph) int64
				}{{"delta", deltastep.DefaultDelta}, {"delta-paper", deltastep.PaperDelta}} {
					b.Run(prefix+arm.name, func(b *testing.B) {
						setup()
						delta, st := arm.delta(g), deltastep.NewState()
						st.RunFromSources(context.Background(), rt, g, srcs(0), delta)
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							st.RunFromSources(context.Background(), rt, g, srcs(i), delta)
						}
					})
				}
			}
		}
	}
}
