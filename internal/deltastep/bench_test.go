package deltastep

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
)

// benchFamilies are the instance shapes EXPERIMENTS.md's exec-kernel table is
// measured on: m = 4n throughout, C = n unless the name says otherwise.
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

// BenchmarkKernel times a warm State on each family at logn 16 and 19, on one
// source and on nearest-of-4 sets, with the bucket width the serving stack
// uses (DefaultDelta, arm "delta") and with the paper's C/d ("delta-paper").
// Select with e.g. -bench 'Kernel/logn=16/rand-uwd/k=1/delta$'; make
// bench-kernels runs all of it into results/bench-kernels.csv.
func BenchmarkKernel(b *testing.B) {
	rt := par.NewExec(1)
	for _, logn := range []int{16, 19} {
		for _, fam := range benchFamilies {
			var g *graph.Graph // built by the first arm that runs
			for _, k := range []int{1, 4} {
				for _, arm := range []struct {
					name  string
					delta func(*graph.Graph) int64
				}{{"delta", DefaultDelta}, {"delta-paper", PaperDelta}} {
					b.Run(fmt.Sprintf("logn=%d/%s/k=%d/%s", logn, fam.name, k, arm.name), func(b *testing.B) {
						if g == nil {
							g = fam.make(logn)
						}
						n, delta, srcs := g.NumVertices(), arm.delta(g), make([]int32, k)
						set := func(i int) []int32 {
							for j := range srcs {
								srcs[j] = int32((i + j*n/k) % n)
							}
							return srcs
						}
						st := NewState()
						st.RunFromSources(context.Background(), rt, g, set(0), delta)
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							st.RunFromSources(context.Background(), rt, g, set(i), delta)
						}
					})
				}
			}
		}
	}
}
