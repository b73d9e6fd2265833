// Benchmarks, one per table and figure of the paper's evaluation section
// (plus the DESIGN.md ablations). Each benchmark exercises exactly the
// computation the corresponding experiment times; `go run ./cmd/experiments`
// prints the paper-layout tables built from the same code paths.
//
// Benchmark sizes default to n = 2^benchLogN so the full suite stays fast;
// the cmd/experiments harness runs the full configured scale.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/cc"
	"repro/internal/ch"
	"repro/internal/core"
	"repro/internal/deltastep"
	"repro/internal/dijkstra"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/mlb"
	"repro/internal/mta"
	"repro/internal/par"
	"repro/internal/verify"
)

const benchLogN = 13

func benchFamilies() []gen.Instance {
	mk := func(cl gen.Class, d gen.WeightDist, logC int) gen.Instance {
		return gen.Instance{Class: cl, Dist: d, LogN: benchLogN, LogC: logC, Seed: 7}
	}
	return []gen.Instance{
		mk(gen.Rand, gen.UWD, benchLogN),
		mk(gen.Rand, gen.PWD, benchLogN),
		mk(gen.Rand, gen.UWD, 2),
		mk(gen.RMAT, gen.UWD, benchLogN),
		mk(gen.RMAT, gen.PWD, benchLogN),
		mk(gen.RMAT, gen.UWD, 2),
	}
}

// BenchmarkTable1 measures serial Thorup vs the DIMACS reference solver
// (Goldberg multi-level buckets) plus the CH preprocessing, on Random-UWD.
func BenchmarkTable1(b *testing.B) {
	in := gen.Instance{Class: gen.Rand, Dist: gen.UWD, LogN: benchLogN, LogC: benchLogN, Seed: 7}
	g := in.Generate()
	h := ch.BuildKruskal(g)
	b.Run("ThorupSerial/"+in.Name(), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.SerialSSSP(h, 0)
		}
	})
	b.Run("DIMACSReferenceMLB/"+in.Name(), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mlb.SSSP(g, 0)
		}
	})
	b.Run("CHPreprocessing/"+in.Name(), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ch.BuildKruskal(g)
		}
	})
}

// BenchmarkTable2 measures CH statistics extraction for every family and
// reports the structural numbers as custom metrics.
func BenchmarkTable2(b *testing.B) {
	for _, in := range benchFamilies() {
		g := in.Generate()
		b.Run(in.Name(), func(b *testing.B) {
			var st ch.Stats
			var h *ch.Hierarchy
			for i := 0; i < b.N; i++ {
				h = ch.BuildKruskal(g)
				st = h.ComputeStats()
			}
			b.ReportMetric(float64(st.Components), "components")
			b.ReportMetric(st.AvgChildren, "children/comp")
			q := core.NewSolver(h, par.NewExec(1)).Query()
			b.ReportMetric(float64(q.InstanceBytes()), "instanceB")
		})
	}
}

// BenchmarkTable3 measures parallel CH construction (Algorithm 1, bully CC)
// on the simulated 1- and 40-processor machines; the simulated cycles are
// reported as a custom metric and the speedup is their ratio.
func BenchmarkTable3(b *testing.B) {
	for _, in := range benchFamilies() {
		g := in.Generate()
		for _, p := range []int{1, 40} {
			b.Run(fmt.Sprintf("%s/p=%d", in.Name(), p), func(b *testing.B) {
				var cycles int64
				for i := 0; i < b.N; i++ {
					rt := mta.NewSim(mta.MTA2(p))
					ch.BuildNaive(rt, g, cc.Bully)
					cycles = rt.SimCost().Span
				}
				b.ReportMetric(float64(cycles), "simCycles")
			})
		}
	}
}

// BenchmarkTable4 measures the parallel Thorup query on the simulated 1- and
// 40-processor machines.
func BenchmarkTable4(b *testing.B) {
	for _, in := range benchFamilies() {
		g := in.Generate()
		h := ch.BuildKruskal(g)
		for _, p := range []int{1, 40} {
			m := mta.MTA2(p)
			th := harness.TuneThresholds(m)
			b.Run(fmt.Sprintf("%s/p=%d", in.Name(), p), func(b *testing.B) {
				var cycles int64
				for i := 0; i < b.N; i++ {
					rt := mta.NewSim(m)
					core.NewSolver(h, rt, core.WithThresholds(th)).SSSP(0)
					cycles = rt.SimCost().Span
				}
				b.ReportMetric(float64(cycles), "simCycles")
			})
		}
	}
}

// BenchmarkTable5 measures the three-way comparison on the simulated
// 40-processor machine: delta-stepping vs Thorup vs CH construction.
func BenchmarkTable5(b *testing.B) {
	m := mta.MTA2(40)
	for _, in := range benchFamilies() {
		g := in.Generate()
		h := ch.BuildKruskal(g)
		b.Run("DeltaStepping/"+in.Name(), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				rt := mta.NewSim(m)
				deltastep.SSSP(rt, g, 0, deltastep.PaperDelta(g))
				cycles = rt.SimCost().Span
			}
			b.ReportMetric(float64(cycles), "simCycles")
		})
		b.Run("Thorup/"+in.Name(), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				rt := mta.NewSim(m)
				core.NewSolver(h, rt).SSSP(0)
				cycles = rt.SimCost().Span
			}
			b.ReportMetric(float64(cycles), "simCycles")
		})
		b.Run("CH/"+in.Name(), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				rt := mta.NewSim(m)
				ch.BuildNaive(rt, g, cc.Bully)
				cycles = rt.SimCost().Span
			}
			b.ReportMetric(float64(cycles), "simCycles")
		})
	}
}

// BenchmarkTable6 measures Thorup A (naive toVisit loops) vs Thorup B
// (selective parallelization) on the simulated 40-processor machine.
func BenchmarkTable6(b *testing.B) {
	m := mta.MTA2(40)
	th := harness.TuneThresholds(m)
	for _, in := range benchFamilies() {
		g := in.Generate()
		h := ch.BuildKruskal(g)
		for _, v := range []struct {
			name string
			st   core.Strategy
		}{{"ThorupA", core.Naive}, {"ThorupB", core.Selective}} {
			b.Run(v.name+"/"+in.Name(), func(b *testing.B) {
				var cycles int64
				for i := 0; i < b.N; i++ {
					rt := mta.NewSim(m)
					core.NewSolver(h, rt, core.WithStrategy(v.st), core.WithThresholds(th)).SSSP(0)
					cycles = rt.SimCost().Span
				}
				b.ReportMetric(float64(cycles), "simCycles")
			})
		}
	}
}

// BenchmarkFigure4 sweeps the simulated processor count for CH construction
// and Thorup SSSP on the first family (full sweep over all six families:
// cmd/experiments -run figure4).
func BenchmarkFigure4(b *testing.B) {
	in := benchFamilies()[0]
	g := in.Generate()
	h := ch.BuildKruskal(g)
	for _, p := range []int{1, 2, 4, 8, 16, 27, 40} {
		m := mta.MTA2(p)
		b.Run(fmt.Sprintf("CH/%s/p=%d", in.Name(), p), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				rt := mta.NewSim(m)
				ch.BuildNaive(rt, g, cc.Bully)
				cycles = rt.SimCost().Span
			}
			b.ReportMetric(float64(cycles), "simCycles")
		})
		b.Run(fmt.Sprintf("Thorup/%s/p=%d", in.Name(), p), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				rt := mta.NewSim(m)
				core.NewSolver(h, rt).SSSP(0)
				cycles = rt.SimCost().Span
			}
			b.ReportMetric(float64(cycles), "simCycles")
		})
	}
}

// BenchmarkFigure5 measures k simultaneous shared-CH Thorup queries
// (co-scheduled on the simulated machine) against the k-sequential
// delta-stepping baseline.
func BenchmarkFigure5(b *testing.B) {
	in := gen.Instance{Class: gen.Rand, Dist: gen.UWD, LogN: benchLogN, LogC: benchLogN, Seed: 7}
	g := in.Generate()
	h := ch.BuildKruskal(g)
	m := mta.MTA2(40)
	for _, k := range []int{1, 4, 16, 30} {
		sources := make([]int32, k)
		for i := range sources {
			sources[i] = int32(i * (g.NumVertices() / k))
		}
		b.Run(fmt.Sprintf("SimulThorup/k=%d", k), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles, _ = harness.SimultaneousCost(h, m, sources)
			}
			b.ReportMetric(float64(cycles), "simCycles")
		})
		b.Run(fmt.Sprintf("SequentialDeltaStep/k=%d", k), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles = 0
				for range sources {
					rt := mta.NewSim(m)
					deltastep.SSSP(rt, g, 0, deltastep.PaperDelta(g))
					cycles += rt.SimCost().Span
				}
			}
			b.ReportMetric(float64(cycles), "simCycles")
		})
	}
}

// BenchmarkAblationCHConstruction compares the paper's Algorithm 1 against
// the union-find sweep and the MST-based construction (DESIGN ablation A).
func BenchmarkAblationCHConstruction(b *testing.B) {
	g := benchFamilies()[0].Generate()
	rt := par.NewExec(4)
	b.Run("NaiveAlg1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ch.BuildNaive(rt, g, cc.Bully)
		}
	})
	b.Run("KruskalSweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ch.BuildKruskal(g)
		}
	})
	b.Run("MSTBased", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ch.BuildMST(rt, g)
		}
	})
}

// BenchmarkAblationCC compares the bully and Shiloach–Vishkin kernels
// (DESIGN ablation B).
func BenchmarkAblationCC(b *testing.B) {
	g := benchFamilies()[0].Generate()
	rt := par.NewExec(4)
	b.Run("Bully", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cc.Bully(rt, g, cc.All)
		}
	})
	b.Run("ShiloachVishkin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cc.ShiloachVishkin(rt, g, cc.All)
		}
	})
	b.Run("UnionFindSerial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cc.UnionFind(g, cc.All)
		}
	})
}

// BenchmarkAblationBuckets compares virtual buckets (child scan) against
// physical bucket lists in the serial solver (DESIGN ablation C).
func BenchmarkAblationBuckets(b *testing.B) {
	g := benchFamilies()[0].Generate()
	h := ch.BuildKruskal(g)
	b.Run("Virtual", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.SerialSSSP(h, 0)
		}
	})
	b.Run("Physical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.SerialSSSPPhysical(h, 0)
		}
	})
}

// BenchmarkRoadNetwork runs all solvers on the high-diameter grid family
// (the paper's §6 extension scenario).
func BenchmarkRoadNetwork(b *testing.B) {
	in := gen.Instance{Class: gen.Grid, Dist: gen.UWD, LogN: benchLogN, LogC: 6, Seed: 7}
	g := in.Generate()
	h := ch.BuildKruskal(g)
	rt := par.NewExec(4)
	b.Run("ThorupSerial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.SerialSSSP(h, 0)
		}
	})
	b.Run("DeltaStepping", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			deltastep.SSSP(rt, g, 0, deltastep.DefaultDelta(g))
		}
	})
	b.Run("MLB", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mlb.SSSP(g, 0)
		}
	})
}

// BenchmarkExecThorupWorkers measures the real-goroutine Thorup query across
// worker counts (wall-clock scaling on the host, as opposed to the simulated
// machine).
func BenchmarkExecThorupWorkers(b *testing.B) {
	g := benchFamilies()[0].Generate()
	h := ch.BuildKruskal(g)
	for _, w := range []int{1, 2, 4} {
		s := core.NewSolver(h, par.NewExec(w))
		q := s.Query()
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q.Run(0)
			}
		})
	}
}

// sink prevents dead-code elimination in the generator benchmark.
var sink *graph.Graph

// BenchmarkGenerators measures the instance generators themselves.
func BenchmarkGenerators(b *testing.B) {
	n := 1 << benchLogN
	b.Run("Random", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = gen.Random(n, 4*n, uint32(n), gen.UWD, uint64(i))
		}
	})
	b.Run("RMAT", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = gen.RMATGraph(n, 4*n, uint32(n), gen.UWD, uint64(i))
		}
	})
}

// BenchmarkMultiSource measures the nearest-facility multi-source query
// against the k-Dijkstra baseline.
func BenchmarkMultiSource(b *testing.B) {
	g := benchFamilies()[0].Generate()
	h := ch.BuildKruskal(g)
	q := core.NewSolver(h, par.NewExec(4)).Query()
	sources := []int32{0, 1000, 2000, 4000, 8000}
	b.Run("ThorupOneQuery", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q.RunFromSources(sources)
		}
	})
	b.Run("KDijkstras", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range sources {
				dijkstra.SSSP(g, s)
			}
		}
	})
}

// BenchmarkCertify measures the linear-time certifier against re-running
// Dijkstra as a check.
func BenchmarkCertify(b *testing.B) {
	g := benchFamilies()[0].Generate()
	dist := dijkstra.SSSP(g, 0)
	rt := par.NewExec(4)
	b.Run("Certifier", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := verify.Distances(rt, g, []int32{0}, dist); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RerunDijkstra", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dijkstra.SSSP(g, 0)
		}
	})
}
