package engine

import (
	"context"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/solver"
)

// testModel compiles a hand-written coefficient set (values in µs per
// feature unit) into a loaded provider.
func testModel(tb testing.TB, coef map[string][]float64) *costmodel.Provider {
	tb.Helper()
	f := &costmodel.File{
		Version:        costmodel.FileVersion,
		Features:       append([]string(nil), costmodel.FeatureNames...),
		DatasetVersion: costmodel.DatasetVersion,
		Solvers:        make(map[string]costmodel.SolverCoef),
	}
	for name, c := range coef {
		if len(c) != costmodel.NumFeatures {
			tb.Fatalf("coef for %s has %d entries", name, len(c))
		}
		f.Solvers[name] = costmodel.SolverCoef{Coef: c, Samples: 1}
	}
	if err := f.Validate(); err != nil {
		tb.Fatal(err)
	}
	p := costmodel.NewProvider(0)
	p.SetModel(costmodel.NewModel(f))
	return p
}

// crossoverModel prices dijkstra and delta per source against a flat thorup
// so the argmin walks dijkstra → delta → thorup as the source set grows. Feature order:
// [intercept, n, m, n_log_n, sources, sources_m, log_c].
func crossoverModel(tb testing.TB) *costmodel.Provider {
	return testModel(tb, map[string][]float64{
		"dijkstra": {100, 0, 0, 0, 0, 0.5, 0},
		"delta":    {2000, 0, 0, 0, 0, 0.25, 0},
		"thorup":   {5000, 0, 0.05, 0, 0, 0, 0},
		"bfs":      {50, 0, 0.01, 0, 0, 0, 0},
	})
}

// Golden decisions: the same queries, static policy vs model-driven, across
// weighted and unit-weight instances. Pins both ladders so a policy change
// has to be deliberate.
func TestPolicyGoldenStaticVsModel(t *testing.T) {
	weighted := testInstance(t, 256, 1024) // maxW 1024, delta > 1
	unit := solver.NewInstance(gen.Random(256, 1024, 1, gen.UWD, 7), par.NewExec(2))

	cases := []struct {
		name       string
		unitGraph  bool
		sources    []int32
		wantStatic string
		wantModel  string
	}{
		// n=256, m=1024: dijkstra 100+0.5·s·m, delta 2000+0.25·s·m, thorup 5000+51.
		{"single source", false, []int32{3}, "delta", "dijkstra"}, // 612 vs 2256 vs 5051: decisive override
		// dijkstra's 3172 undercuts delta's 3536 by 1.11×, inside
		// ModelOverrideMargin, so the static delta pick holds.
		{"near tie", false, []int32{1, 2, 3, 4, 5, 6}, "delta", "delta"}, // 3172 vs 3536 vs 5051
		// delta's 4048 is the argmin and the static pick: endorsed.
		{"small multi", false, []int32{1, 2, 3, 4, 5, 6, 7, 8}, "delta", "delta"}, // 4196 vs 4048 vs 5051
		{"wide multi", false, func() []int32 { // 32 sources
			s := make([]int32, 32)
			for i := range s {
				s[i] = int32(i)
			}
			return s
		}(), "delta", "thorup"}, // 16484 vs 10192 vs 5051: thorup by 2×, past ModelOverrideMargin
		{"unit graph", true, []int32{3}, "bfs", "bfs"}, // bfs 60.24 beats everything
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := weighted
			if tc.unitGraph {
				in = unit
			}
			static := New(in, Config{})
			model := New(in, Config{CostModel: crossoverModel(t)})
			if got, err := static.pickSolver("auto", tc.sources, true); err != nil || got != tc.wantStatic {
				t.Fatalf("static pick = %s (%v), want %s", got, err, tc.wantStatic)
			}
			if got, err := model.pickSolver("auto", tc.sources, true); err != nil || got != tc.wantModel {
				t.Fatalf("model pick = %s (%v), want %s", got, err, tc.wantModel)
			}
			// Explicit override must bypass the model entirely.
			if got, err := model.pickSolver("mlb", tc.sources, true); err != nil || got != "mlb" {
				t.Fatalf("override pick = %s (%v), want mlb", got, err)
			}
		})
	}
}

// A model whose coefficients are all zero for every applicable solver must
// fall back to the static ladder — the zero-coefficient fallback the design
// requires — and count the fallback.
func TestPolicyZeroCoefficientsFallsBack(t *testing.T) {
	in := testInstance(t, 128, 512)
	p := testModel(t, map[string][]float64{
		"dijkstra": make([]float64, costmodel.NumFeatures),
		"thorup":   make([]float64, costmodel.NumFeatures),
	})
	// testModel's Validate rejects nothing here: zero coef vectors are valid
	// in a file; they just never predict.
	e := New(in, Config{CostModel: p})
	got, err := e.pickSolver("auto", []int32{3}, true)
	if err != nil {
		t.Fatal(err)
	}
	static := New(in, Config{})
	want, err := static.pickSolver("auto", []int32{3}, true)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("zero-coef pick = %s, static = %s", got, want)
	}
	ctrs := p.Counters().Snapshot()
	if ctrs[costmodel.CtrStaticFallbacks] != 1 || ctrs[costmodel.CtrModelPicks] != 0 {
		t.Fatalf("fallback accounting: %v", ctrs)
	}
}

// A model that only knows inapplicable solvers (bfs on a weighted graph)
// must also fall back rather than pick a solver that would be rejected.
func TestPolicyInapplicableModelSolverFallsBack(t *testing.T) {
	in := testInstance(t, 128, 512) // weighted
	p := testModel(t, map[string][]float64{"bfs": {50, 0, 0.01, 0, 0, 0, 0}})
	e := New(in, Config{CostModel: p})
	got, err := e.pickSolver("auto", []int32{3}, true)
	if err != nil {
		t.Fatal(err)
	}
	if got == "bfs" {
		t.Fatal("picked an inapplicable solver")
	}
	if p.Counters().Snapshot()[costmodel.CtrStaticFallbacks] != 1 {
		t.Fatal("fallback not counted")
	}
}

func TestPredictCost(t *testing.T) {
	in := testInstance(t, 256, 1024)
	p := crossoverModel(t)
	e := New(in, Config{CostModel: p})
	name, cost, ok, err := e.PredictCost(Request{Sources: []int32{3}})
	if err != nil || !ok {
		t.Fatalf("PredictCost: ok=%v err=%v", ok, err)
	}
	if name != "dijkstra" {
		t.Fatalf("resolved %s, want dijkstra", name)
	}
	// 100 + 0.5·(1·1024) = 612µs
	if want := 612 * time.Microsecond; cost != want {
		t.Fatalf("cost = %v, want %v", cost, want)
	}
	// Advisory path must not move the selection counters.
	ctrs := p.Counters().Snapshot()
	if ctrs[costmodel.CtrModelPicks] != 0 || ctrs[costmodel.CtrStaticFallbacks] != 0 {
		t.Fatalf("PredictCost touched selection counters: %v", ctrs)
	}
	// Validation errors surface as ErrBadQuery, same as Query.
	if _, _, _, err := e.PredictCost(Request{Sources: []int32{-1}}); err == nil {
		t.Fatal("bad query accepted")
	}
	// Without a model: ok=false, no error.
	eNo := New(in, Config{})
	if _, _, ok, err := eNo.PredictCost(Request{Sources: []int32{3}}); ok || err != nil {
		t.Fatalf("model-less PredictCost: ok=%v err=%v", ok, err)
	}
}

// Prediction-error accounting exactness: one observation per executed
// solve — a cache hit and a repeated identical query add nothing.
func TestPredictionObservationExactness(t *testing.T) {
	in := testInstance(t, 128, 512)
	p := crossoverModel(t)
	e := New(in, Config{CacheEntries: 8, CostModel: p})
	ctx := context.Background()

	if _, via, err := e.Query(ctx, Request{Sources: []int32{1}}); err != nil || via != ViaSolve {
		t.Fatalf("first query: via=%v err=%v", via, err)
	}
	if _, via, err := e.Query(ctx, Request{Sources: []int32{1}}); err != nil || via != ViaCache {
		t.Fatalf("second query: via=%v err=%v", via, err)
	}
	if _, via, err := e.Query(ctx, Request{Sources: []int32{2}}); err != nil || via != ViaSolve {
		t.Fatalf("third query: via=%v err=%v", via, err)
	}

	ctrs := p.Counters().Snapshot()
	if ctrs[costmodel.CtrPredictions] != 2 {
		t.Fatalf("predictions = %d, want 2 (one per executed solve)", ctrs[costmodel.CtrPredictions])
	}
	if over, under := ctrs[costmodel.CtrPredictionOver], ctrs[costmodel.CtrPredictionUnder]; over+under != 2 {
		t.Fatalf("over+under = %d, want 2", over+under)
	}
	if got := p.PredictedCost.Snapshot().Count; got != 2 {
		t.Fatalf("predicted_cost count = %d, want 2", got)
	}
	if got := p.AbsError.Snapshot().Count; got != 2 {
		t.Fatalf("abs_error count = %d, want 2", got)
	}
	if got := p.RelError.Snapshot().Count; got != 2 {
		t.Fatalf("rel_error count = %d, want 2", got)
	}
	if ctrs[costmodel.CtrModelPicks] != 3 {
		t.Fatalf("model_picks = %d, want 3 (every Query selection)", ctrs[costmodel.CtrModelPicks])
	}
	// Explicit-solver queries still observe (the model prices what ran).
	if _, _, err := e.Query(ctx, Request{Sources: []int32{3}, Solver: "thorup"}); err != nil {
		t.Fatal(err)
	}
	if got := p.Counters().Snapshot()[costmodel.CtrPredictions]; got != 3 {
		t.Fatalf("predictions after explicit query = %d, want 3", got)
	}
}
