package harness

import (
	"fmt"
	"time"

	"repro/internal/cc"
	"repro/internal/ch"
	"repro/internal/core"
	"repro/internal/deltastep"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mlb"
	"repro/internal/mta"
	"repro/internal/par"
	"repro/internal/verify"
)

// Config scales the experiments. The paper's instances have 2^25–2^26
// vertices on a 145 GB machine; the defaults here reproduce every shape at
// laptop scale. All experiments are deterministic given Seed.
type Config struct {
	// LogN is the instance scale: n = 2^LogN vertices, m = 4n edges
	// (paper: 25–26).
	LogN int
	// Procs is the simulated MTA-2 processor count for the "40 processors"
	// tables (paper: 40).
	Procs int
	// ProcSweep is the processor axis of Figure 4.
	ProcSweep []int
	// SourceCounts is the x-axis of Figure 5 (simultaneous queries).
	SourceCounts []int
	// Workers is the exec-mode worker count for wall-clock measurements.
	Workers int
	// Seed drives every generator.
	Seed uint64
	// Verify cross-checks every solver run against Dijkstra (slower).
	Verify bool
}

// DefaultConfig returns the scaled-down default setup.
func DefaultConfig() Config {
	return Config{
		LogN:         16,
		Procs:        40,
		ProcSweep:    []int{1, 2, 4, 8, 16, 27, 40},
		SourceCounts: []int{1, 2, 4, 8, 16, 30},
		Workers:      4,
		Seed:         20070326, // IPDPS 2007 opened on March 26
	}
}

// Families returns the paper's six instance descriptors (Tables 2–6) at the
// configured scale: Random and R-MAT, each with UWD C=n, PWD C=n, and UWD
// C=2^2.
func (c Config) Families() []gen.Instance {
	mk := func(cl gen.Class, d gen.WeightDist, logC int) gen.Instance {
		return gen.Instance{Class: cl, Dist: d, LogN: c.LogN, LogC: logC, Seed: c.Seed}
	}
	return []gen.Instance{
		mk(gen.Rand, gen.UWD, c.LogN),
		mk(gen.Rand, gen.PWD, c.LogN),
		mk(gen.Rand, gen.UWD, 2),
		mk(gen.RMAT, gen.UWD, c.LogN),
		mk(gen.RMAT, gen.PWD, c.LogN),
		mk(gen.RMAT, gen.UWD, 2),
	}
}

func (c Config) scaleNote() string {
	return fmt.Sprintf("n=2^%d, m=4n, seed=%d; simulated MTA-2 seconds at 220 MHz where marked [sim]", c.LogN, c.Seed)
}

// wall measures f once and returns seconds.
func wall(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

func (c Config) verifyAgainst(g *graph.Graph, got []int64, label string) error {
	if !c.Verify {
		return nil
	}
	// The linear-time certifier is as strong as re-running Dijkstra
	// (feasibility + tightness + exact zero set, see internal/verify).
	if err := verify.Distances(par.NewExec(c.Workers), g, []int32{0}, got); err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	return nil
}

// Table1 reproduces the sequential comparison: Thorup (serial, after CH
// preprocessing) vs the DIMACS reference solver (Goldberg multi-level
// buckets) on Random-UWD instances of two sizes.
func (c Config) Table1() (*Table, error) {
	t := &Table{
		Title:  "Table 1: Thorup sequential performance versus the DIMACS reference solver",
		Note:   c.scaleNote(),
		Header: []string{"Family", "Thorup", "DIMACS(MLB)", "CH preprocessing"},
	}
	for _, logN := range []int{c.LogN - 1, c.LogN} {
		in := gen.Instance{Class: gen.Rand, Dist: gen.UWD, LogN: logN, LogC: logN, Seed: c.Seed}
		g := in.Generate()
		var h *ch.Hierarchy
		chSec := wall(func() { h = ch.BuildKruskal(g) })
		var dT, dM []int64
		thorupSec := wall(func() { dT = core.SerialSSSP(h, 0) })
		mlbSec := wall(func() { dM = mlb.SSSP(g, 0) })
		if err := c.verifyAgainst(g, dT, in.Name()+"/thorup"); err != nil {
			return nil, err
		}
		if err := c.verifyAgainst(g, dM, in.Name()+"/mlb"); err != nil {
			return nil, err
		}
		t.AddRow(in.Name(), fmtSecs(thorupSec), fmtSecs(mlbSec), fmtSecs(chSec))
	}
	return t, nil
}

// Table2 reproduces the Component Hierarchy statistics: total components,
// average children per component, and the memory of a single SSSP instance.
func (c Config) Table2() (*Table, error) {
	t := &Table{
		Title:  "Table 2: Statistics about the CH",
		Note:   c.scaleNote(),
		Header: []string{"Family", "Comp.", "Children", "Instance", "CH memory", "Graph memory"},
	}
	for _, in := range c.Families() {
		g := in.Generate()
		h := ch.BuildKruskal(g)
		st := h.ComputeStats()
		// The instance of the paper's formulation, which is the sim kernel's;
		// the serving kernel's differs (DESIGN.md §5, decision 11).
		instance := core.NewSolver(h, mta.NewSim(mta.MTA2(c.Procs))).InstanceBytes()
		t.AddRow(in.Name(),
			st.Components,
			fmt.Sprintf("%.2f", st.AvgChildren),
			fmtBytes(instance),
			fmtBytes(st.CHBytes),
			fmtBytes(g.MemoryBytes()))
	}
	return t, nil
}

// fmtSecs formats a duration in seconds with enough significant digits for
// the scaled-down instances (simulated times can be well below 10ms).
func fmtSecs(sec float64) string {
	return fmt.Sprintf("%.4gs", sec)
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// chCycles builds the hierarchy with the paper's Algorithm 1 (bully CC) on a
// p-processor simulated machine and returns the modelled cycles.
func chCycles(g *graph.Graph, p int) int64 {
	rt := mta.NewSim(mta.MTA2(p))
	ch.BuildNaive(rt, g, cc.Bully)
	return rt.SimCost().Span
}

// thorupCycles runs one Thorup query on a p-processor simulated machine.
func thorupCycles(h *ch.Hierarchy, p int, strategy core.Strategy) int64 {
	m := mta.MTA2(p)
	rt := mta.NewSim(m)
	s := core.NewSolver(h, rt, core.WithStrategy(strategy), core.WithThresholds(TuneThresholds(m)))
	s.SSSP(0)
	return rt.SimCost().Span
}

// deltaCycles runs one delta-stepping query on a p-processor simulated
// machine.
func deltaCycles(g *graph.Graph, p int) int64 {
	rt := mta.NewSim(mta.MTA2(p))
	deltastep.SSSP(rt, g, 0, deltastep.PaperDelta(g))
	return rt.SimCost().Span
}

// Table3 reproduces CH construction time and relative speedup on the
// simulated Procs-processor machine.
func (c Config) Table3() (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Table 3: Running time and speedup for generating the CH on %d processors [sim]", c.Procs),
		Note:   c.scaleNote(),
		Header: []string{"Graph Family", "CH", "CH Speedup"},
	}
	m := mta.MTA2(c.Procs)
	for _, in := range c.Families() {
		g := in.Generate()
		one := chCycles(g, 1)
		many := chCycles(g, c.Procs)
		t.AddRow(in.Name(),
			fmtSecs(m.Seconds(many)),
			fmt.Sprintf("%.2f", float64(one)/float64(many)))
	}
	return t, nil
}

// Table4 reproduces Thorup SSSP time and relative speedup on the simulated
// Procs-processor machine.
func (c Config) Table4() (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Table 4: Running time and speedup for Thorup's algorithm on %d processors [sim]", c.Procs),
		Note:   c.scaleNote(),
		Header: []string{"Graph Family", "Thorup", "Thorup Speedup"},
	}
	m := mta.MTA2(c.Procs)
	for _, in := range c.Families() {
		g := in.Generate()
		h := ch.BuildKruskal(g)
		one := thorupCycles(h, 1, core.Selective)
		many := thorupCycles(h, c.Procs, core.Selective)
		t.AddRow(in.Name(),
			fmtSecs(m.Seconds(many)),
			fmt.Sprintf("%.2f", float64(one)/float64(many)))
	}
	return t, nil
}

// Table5 reproduces the three-way comparison of delta-stepping, Thorup, and
// CH construction time on the simulated machine.
func (c Config) Table5() (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Table 5: Comparison of Delta-Stepping and Thorup's algorithm on %d processors [sim]", c.Procs),
		Note:   c.scaleNote(),
		Header: []string{"Family", "D-Stepping", "Thorup", "CH"},
	}
	m := mta.MTA2(c.Procs)
	for _, in := range c.Families() {
		g := in.Generate()
		h := ch.BuildKruskal(g)
		t.AddRow(in.Name(),
			fmtSecs(m.Seconds(deltaCycles(g, c.Procs))),
			fmtSecs(m.Seconds(thorupCycles(h, c.Procs, core.Selective))),
			fmtSecs(m.Seconds(chCycles(g, c.Procs))))
	}
	return t, nil
}

// Table6 reproduces the toVisit-strategy comparison: Thorup A (naive, every
// loop on all processors) vs Thorup B (selective parallelization).
func (c Config) Table6() (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Table 6: Naive strategy (Thorup A) vs selective parallelization (Thorup B) on %d processors [sim]", c.Procs),
		Note:   c.scaleNote(),
		Header: []string{"Family", "Thorup A", "Thorup B", "A/B"},
	}
	m := mta.MTA2(c.Procs)
	for _, in := range c.Families() {
		g := in.Generate()
		h := ch.BuildKruskal(g)
		a := thorupCycles(h, c.Procs, core.Naive)
		b := thorupCycles(h, c.Procs, core.Selective)
		t.AddRow(in.Name(),
			fmtSecs(m.Seconds(a)),
			fmtSecs(m.Seconds(b)),
			fmt.Sprintf("%.2f", float64(a)/float64(b)))
	}
	return t, nil
}

// Figure4 reproduces the scaling curves: for every family, CH construction
// and Thorup SSSP simulated time for each processor count in ProcSweep.
func (c Config) Figure4() (*Table, error) {
	t := &Table{
		Title:  "Figure 4: Scaling of CH construction and Thorup's algorithm on the simulated MTA-2",
		Note:   c.scaleNote(),
		Header: []string{"Series", "Procs", "Time [sim]", "Speedup"},
	}
	for _, in := range c.Families() {
		g := in.Generate()
		h := ch.BuildKruskal(g)
		var chBase, thBase int64
		for i, p := range c.ProcSweep {
			m := mta.MTA2(p)
			chC := chCycles(g, p)
			thC := thorupCycles(h, p, core.Selective)
			if i == 0 {
				chBase, thBase = chC*int64(p), thC*int64(p) // normalise to p=1 via first entry
				if p == 1 {
					chBase, thBase = chC, thC
				}
			}
			t.AddRow("ch-"+in.Name(), p, fmtSecs(m.Seconds(chC)),
				fmt.Sprintf("%.2f", float64(chBase)/float64(chC)))
			t.AddRow("th-"+in.Name(), p, fmtSecs(m.Seconds(thC)),
				fmt.Sprintf("%.2f", float64(thBase)/float64(thC)))
		}
	}
	return t, nil
}

// Figure5 reproduces the simultaneous-queries experiment at two scales: k
// shared-CH Thorup queries co-scheduled on the machine versus k sequential
// parallel Thorup runs and k sequential parallel delta-stepping runs.
func (c Config) Figure5() (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Figure 5: Simultaneous %d-processor Thorup runs from multiple sources [sim]", c.Procs),
		Note:   c.scaleNote(),
		Header: []string{"Instance", "Sources", "baseline-thorup", "baseline-deltastep", "simul-thorup"},
	}
	m := mta.MTA2(c.Procs)
	th := TuneThresholds(m)
	for _, logN := range []int{c.LogN - 2, c.LogN} {
		in := gen.Instance{Class: gen.Rand, Dist: gen.UWD, LogN: logN, LogC: logN, Seed: c.Seed}
		g := in.Generate()
		h := ch.BuildKruskal(g)
		oneThorup := thorupCycles(h, c.Procs, core.Selective)
		oneDelta := deltaCycles(g, c.Procs)
		maxK := 0
		for _, k := range c.SourceCounts {
			if k > maxK {
				maxK = k
			}
		}
		allSources := spreadSources(g.NumVertices(), maxK)
		for _, k := range c.SourceCounts {
			simul, _ := SimultaneousCost(h, m, allSources[:k], core.WithThresholds(th))
			t.AddRow(in.Name(), k,
				fmtSecs(m.Seconds(int64(k)*oneThorup)),
				fmtSecs(m.Seconds(int64(k)*oneDelta)),
				fmtSecs(m.Seconds(simul)))
		}
	}
	return t, nil
}

// spreadSources picks k well-separated source vertices.
func spreadSources(n, k int) []int32 {
	out := make([]int32, k)
	for i := 0; i < k; i++ {
		out[i] = int32(i * (n / k))
	}
	return out
}

// AblationCH compares the three hierarchy constructions (paper §3.1 decision:
// Algorithm 1 instead of the MST-based construction).
func (c Config) AblationCH() (*Table, error) {
	t := &Table{
		Title:  "Ablation A: CH construction strategies (paper builds from the original graph, not the MST)",
		Note:   c.scaleNote(),
		Header: []string{"Family", "Naive(Alg.1) [sim]", "MST-based [sim]", "Kruskal serial [wall]"},
	}
	m := mta.MTA2(c.Procs)
	for _, in := range c.Families()[:3] {
		g := in.Generate()
		naive := chCycles(g, c.Procs)
		rtMST := mta.NewSim(m)
		ch.BuildMST(rtMST, g)
		mst := rtMST.SimCost().Span
		kru := wall(func() { ch.BuildKruskal(g) })
		t.AddRow(in.Name(),
			fmtSecs(m.Seconds(naive)),
			fmtSecs(m.Seconds(mst)),
			fmtSecs(kru))
	}
	return t, nil
}

// AblationCC compares the bully and Shiloach–Vishkin connected-components
// kernels inside Algorithm 1 (paper §3.1 cites the bully kernel's hot-spot
// avoidance).
func (c Config) AblationCC() (*Table, error) {
	t := &Table{
		Title:  "Ablation B: CC kernel inside CH construction (bully vs Shiloach-Vishkin) [sim]",
		Note:   c.scaleNote(),
		Header: []string{"Family", "Bully", "Shiloach-Vishkin", "SV/Bully"},
	}
	m := mta.MTA2(c.Procs)
	for _, in := range c.Families()[:3] {
		g := in.Generate()
		rtB := mta.NewSim(m)
		ch.BuildNaive(rtB, g, cc.Bully)
		b := rtB.SimCost().Span
		rtS := mta.NewSim(m)
		ch.BuildNaive(rtS, g, cc.ShiloachVishkin)
		s := rtS.SimCost().Span
		t.AddRow(in.Name(),
			fmtSecs(m.Seconds(b)),
			fmtSecs(m.Seconds(s)),
			fmt.Sprintf("%.2f", float64(s)/float64(b)))
	}
	return t, nil
}

// AblationBuckets compares virtual buckets against physical bucket lists in
// the serial solver (paper §3.2's data-structure decision).
func (c Config) AblationBuckets() (*Table, error) {
	t := &Table{
		Title:  "Ablation C: virtual buckets (child scan) vs physical bucket lists, serial Thorup [wall]",
		Note:   c.scaleNote(),
		Header: []string{"Family", "Virtual", "Physical"},
	}
	for _, in := range c.Families()[:3] {
		g := in.Generate()
		h := ch.BuildKruskal(g)
		v := wall(func() { core.SerialSSSP(h, 0) })
		p := wall(func() { core.SerialSSSPPhysical(h, 0) })
		t.AddRow(in.Name(), fmtSecs(v), fmtSecs(p))
	}
	return t, nil
}

// RoadNetwork runs the paper's §6 future-work scenario: a high-diameter
// grid where delta-stepping needs many phases and Thorup's traversal shows
// its trapping behaviour.
func (c Config) RoadNetwork() (*Table, error) {
	t := &Table{
		Title:  "Extension: road-network-like grid (paper §6)",
		Note:   c.scaleNote(),
		Header: []string{"Instance", "D-Stepping [sim]", "Thorup [sim]", "DS buckets", "DS phases"},
	}
	m := mta.MTA2(c.Procs)
	in := gen.Instance{Class: gen.Grid, Dist: gen.UWD, LogN: c.LogN, LogC: 6, Seed: c.Seed}
	g := in.Generate()
	h := ch.BuildKruskal(g)
	rtD := mta.NewSim(m)
	_, st := deltastep.Run(rtD, g, 0, deltastep.PaperDelta(g))
	t.AddRow(in.Name(),
		fmtSecs(m.Seconds(rtD.SimCost().Span)),
		fmtSecs(m.Seconds(thorupCycles(h, c.Procs, core.Selective))),
		st.Buckets, st.Phases)
	return t, nil
}

// Experiment names every runnable experiment for the CLI.
var Experiments = map[string]func(Config) (*Table, error){
	"table1":              Config.Table1,
	"table2":              Config.Table2,
	"table3":              Config.Table3,
	"table4":              Config.Table4,
	"table5":              Config.Table5,
	"table6":              Config.Table6,
	"figure4":             Config.Figure4,
	"figure5":             Config.Figure5,
	"ablation-ch":         Config.AblationCH,
	"ablation-cc":         Config.AblationCC,
	"ablation-buckets":    Config.AblationBuckets,
	"ablation-thresholds": Config.AblationThresholds,
	"ablation-delta":      Config.AblationDelta,
	"road":                Config.RoadNetwork,
	"propagation":         Config.Propagation,
	"anomaly":             Config.Anomaly,
	"portfolio":           Config.Portfolio,
}

// Order is the canonical display order for -all runs.
var Order = []string{
	"table1", "table2", "table3", "table4", "table5", "table6",
	"figure4", "figure5",
	"ablation-ch", "ablation-cc", "ablation-buckets", "ablation-thresholds",
	"ablation-delta", "road", "propagation", "anomaly", "portfolio",
}
