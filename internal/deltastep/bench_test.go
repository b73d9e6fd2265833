package deltastep

import (
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

// BenchmarkKernel times a warm State on each family at logn 16 and 19.
// Select with e.g. -bench 'Kernel/logn=16/rand-uwd'.
func BenchmarkKernel(b *testing.B) {
	rt := par.NewExec(1)
	for _, logn := range []int{16, 19} {
		for _, fam := range benchFamilies {
			b.Run(fmt.Sprintf("logn=%d/%s", logn, fam.name), func(b *testing.B) {
				g := fam.make(logn)
				delta := DefaultDelta(g)
				st := NewState()
				st.Run(rt, g, 0, delta)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st.Run(rt, g, int32(i%g.NumVertices()), delta)
				}
			})
		}
	}
}
