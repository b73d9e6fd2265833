package harness

import (
	"fmt"

	"repro/internal/ch"
	"repro/internal/core"
	"repro/internal/deltastep"
	"repro/internal/dijkstra"
	"repro/internal/mlb"
	"repro/internal/mta"
	"repro/internal/par"
)

// Propagation quantifies the paper's §3.2 locality claim — "minD values are
// not propagated very far up the CH in practice", the observation that makes
// lock/CAS-based minD maintenance contention-free. For every family it
// reports the mean number of CH nodes updated per successful relaxation next
// to the hierarchy height.
func (c Config) Propagation() (*Table, error) {
	t := &Table{
		Title:  "Propagation locality: CH nodes updated per relaxation (paper §3.2 claim)",
		Note:   c.scaleNote(),
		Header: []string{"Family", "Relaxations", "Hops/relax", "CH height", "minD hot span", "of total span"},
	}
	m := mta.MTA2(c.Procs)
	for _, in := range c.Families() {
		g := in.Generate()
		h := ch.BuildKruskal(g)
		rt := mta.NewSim(m)
		q := core.NewSolver(h, rt).Query()
		tr := q.EnableTrace()
		q.Run(0)
		hot := rt.HotSerialization()
		span := rt.SimCost().Span
		t.AddRow(in.Name(),
			tr.Relaxations,
			fmt.Sprintf("%.2f", tr.HopsPerRelaxation()),
			h.ComputeStats().Height,
			fmt.Sprintf("%d cyc", hot),
			fmt.Sprintf("%.1f%%", 100*float64(hot)/float64(span)))
	}
	return t, nil
}

// AblationThresholds sweeps the selective-parallelization thresholds around
// the tuner's choice, addressing the paper's §5.4 remark that finer control
// of loop parallelism should pay off: the tuned thresholds should sit at or
// near the bottom of the sweep.
func (c Config) AblationThresholds() (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Ablation D: toVisit threshold sweep on %d processors [sim]", c.Procs),
		Note:   c.scaleNote(),
		Header: []string{"Thresholds (single/multi)", "Thorup [sim]", "vs tuned"},
	}
	m := mta.MTA2(c.Procs)
	in := c.Families()[0]
	g := in.Generate()
	h := ch.BuildKruskal(g)

	run := func(th par.Thresholds) int64 {
		rt := mta.NewSim(m)
		core.NewSolver(h, rt, core.WithThresholds(th)).SSSP(0)
		return rt.SimCost().Span
	}
	tuned := TuneThresholds(m)
	base := run(tuned)
	t.AddRow(fmt.Sprintf("tuned %d/%d", tuned.Single, tuned.Multi),
		fmtSecs(m.Seconds(base)), "1.00")
	for _, th := range []par.Thresholds{
		{Single: 1, Multi: 1},               // everything multi-processor (Thorup A)
		{Single: 1, Multi: 1 << 30},         // everything single-processor parallel
		{Single: 1 << 30, Multi: 1<<31 - 1}, // everything serial
		{Single: tuned.Single / 4, Multi: tuned.Multi / 4},
		{Single: tuned.Single * 4, Multi: tuned.Multi * 4},
	} {
		span := run(th)
		t.AddRow(fmt.Sprintf("%d/%d", th.Single, th.Multi),
			fmtSecs(m.Seconds(span)),
			fmt.Sprintf("%.2f", float64(span)/float64(base)))
	}
	return t, nil
}

// Anomaly reproduces the paper's super-linear relative speedups (§5.3): the
// MTA-2 runtime starved team loops on single-processor runs, inflating every
// speedup measured relative to p=1. With the artifact emulated
// (mta.MTA2Anomalous) the measured "speedup" exceeds the honest one by the
// starvation factor, exactly the paper's "we attribute this contradiction to
// an anomaly present when running ... on a single processor".
func (c Config) Anomaly() (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Anomaly: relative speedup at %d processors with honest vs paper-style p=1 baseline", c.Procs),
		Note:   c.scaleNote(),
		Header: []string{"Family", "Honest speedup", "Anomalous speedup (paper-style)"},
	}
	in := c.Families()[0]
	g := in.Generate()
	h := ch.BuildKruskal(g)
	span := func(m mta.Machine) int64 {
		rt := mta.NewSim(m)
		core.NewSolver(h, rt, core.WithThresholds(TuneThresholds(m))).SSSP(0)
		return rt.SimCost().Span
	}
	many := span(mta.MTA2(c.Procs))
	honest := float64(span(mta.MTA2(1))) / float64(many)
	anomalous := float64(span(mta.MTA2Anomalous(1))) / float64(many)
	t.AddRow(in.Name(), fmt.Sprintf("%.2f", honest), fmt.Sprintf("%.2f", anomalous))
	return t, nil
}

// AblationDelta sweeps delta-stepping's bucket width around the C/d
// heuristic, the sensitivity analysis of the Madduri et al. kernel the paper
// compares against: too small degenerates toward Dijkstra (many buckets, no
// parallelism), too large toward Bellman-Ford (re-relaxation).
func (c Config) AblationDelta() (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Ablation E: delta-stepping bucket width sweep on %d processors [sim]", c.Procs),
		Note:   c.scaleNote(),
		Header: []string{"Delta", "Time [sim]", "Buckets", "Phases", "Light", "Heavy", "vs heuristic"},
	}
	m := mta.MTA2(c.Procs)
	in := c.Families()[0]
	g := in.Generate()
	d0 := deltastep.PaperDelta(g)
	run := func(delta int64) (int64, deltastep.Stats) {
		rt := mta.NewSim(m)
		_, st := deltastep.Run(rt, g, 0, delta)
		return rt.SimCost().Span, st
	}
	base, _ := run(d0)
	for _, mul := range []int64{0, -16, -4, 1, 4, 16, 256} {
		delta := d0
		label := fmt.Sprintf("C/d x%d", mul)
		switch {
		case mul == 0:
			delta, label = 1, "1 (Dijkstra-like)"
		case mul < 0:
			delta = d0 / -mul
			label = fmt.Sprintf("C/d / %d", -mul)
		default:
			delta = d0 * mul
			if mul == 1 {
				label = fmt.Sprintf("C/d = %d (heuristic)", d0)
			}
		}
		if delta < 1 {
			delta = 1
		}
		span, st := run(delta)
		t.AddRow(label, fmtSecs(m.Seconds(span)), st.Buckets, st.Phases,
			st.LightRelax, st.HeavyRelax,
			fmt.Sprintf("%.2f", float64(span)/float64(base)))
	}
	return t, nil
}

// Portfolio compares every sequential solver in the repository wall-clock on
// each family: the modern-workstation view complementing Table 1 (Dijkstra on
// a lazy binary heap, Goldberg MLB — Dijkstra on the radix heap pq.Radix — with
// and without the caliber heuristic, and serial Thorup after CH preprocessing).
func (c Config) Portfolio() (*Table, error) {
	t := &Table{
		Title:  "Portfolio: sequential solver wall-clock comparison",
		Note:   c.scaleNote(),
		Header: []string{"Family", "Dijkstra", "MLB", "MLB-nocal", "Thorup", "(CH build)"},
	}
	for _, in := range c.Families() {
		g := in.Generate()
		var h *ch.Hierarchy
		chSec := wall(func() { h = ch.BuildKruskal(g) })
		row := []any{in.Name()}
		for _, f := range []func(){
			func() { dijkstra.SSSP(g, 0) },
			func() { mlb.SSSP(g, 0) },
			func() { mlb.SSSPNoCaliber(g, 0) },
			func() { core.SerialSSSP(h, 0) },
		} {
			row = append(row, fmtSecs(wall(f)))
		}
		row = append(row, fmtSecs(chSec))
		t.AddRow(row...)
	}
	return t, nil
}

// SimultaneousCost simulates len(sources) Thorup queries sharing one
// Component Hierarchy, co-scheduled on the given machine: each query's
// (work, span) is measured on its own simulation runtime and the combined
// makespan follows the machine's co-schedule bound. It returns the makespan
// in cycles together with the per-query distances.
//
// This is the model behind the Figure 5 reproduction: k shared-CH Thorup
// queries fill the machine with work from independent traversals, while the
// delta-stepping baseline must run its k queries back to back.
func SimultaneousCost(h *ch.Hierarchy, machine mta.Machine, sources []int32, opts ...core.Option) (int64, [][]int64) {
	costs := make([]mta.Cost, len(sources))
	out := make([][]int64, len(sources))
	for i, src := range sources {
		rt := mta.NewSim(machine)
		s := core.NewSolver(h, rt, opts...)
		out[i] = s.SSSP(src)
		costs[i] = rt.SimCost()
	}
	return machine.CoSchedule(costs), out
}

// TuneThresholds determines selective-parallelization thresholds for a
// machine by simulating the toVisit computation, as the paper did ("we
// determined the thresholds experimentally by simulating the tovisit
// computation", §3.3): for growing loop lengths it evaluates the modelled
// makespan of the scan loop in each regime and returns the crossover points.
func TuneThresholds(machine mta.Machine) par.Thresholds {
	const iterCost = 3 // base iteration + the two charged references of a scan
	span := func(mode par.LoopMode, n int) int64 {
		c := machine.ParallelLoop(mode, int64(n)*iterCost, int64(n)*iterCost, iterCost)
		return c.Span
	}
	crossover := func(a, b par.LoopMode) int {
		// Smallest n (power-of-two probe, then linear refinement) where mode
		// b beats mode a.
		n := 1
		for n < 1<<22 && span(b, n) >= span(a, n) {
			n *= 2
		}
		if n == 1 || n >= 1<<22 {
			return n
		}
		lo := n / 2
		for lo < n && span(b, lo) >= span(a, lo) {
			lo++
		}
		return lo
	}
	th := par.Thresholds{
		Single: crossover(par.Serial, par.SinglePar),
		Multi:  crossover(par.SinglePar, par.MultiPar),
	}
	if th.Multi < th.Single {
		th.Multi = th.Single
	}
	return th
}
