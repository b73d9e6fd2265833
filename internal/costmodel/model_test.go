package costmodel

import (
	"math"
	"strings"
	"testing"
	"time"
)

func validFile(t *testing.T) *File {
	t.Helper()
	f := &File{
		Version:        FileVersion,
		Features:       append([]string(nil), FeatureNames...),
		DatasetVersion: DatasetVersion,
		TrainedAt:      "2026-08-07T00:00:00Z",
		TotalSamples:   64,
		Solvers: map[string]SolverCoef{
			"dijkstra": {Coef: []float64{100, 0, 0, 0.05, 0, 0.002, 0}, Samples: 32},
			"delta":    {Coef: []float64{2000, 0, 0.01, 0, 0, 0.0005, 0}, Samples: 32},
		},
	}
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFileRoundTrip(t *testing.T) {
	f := validFile(t)
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got.Checksum != f.Checksum || got.TotalSamples != f.TotalSamples {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, f)
	}
	if len(got.Solvers) != 2 || got.Solvers["dijkstra"].Samples != 32 {
		t.Fatalf("solvers lost in round trip: %+v", got.Solvers)
	}
	// Re-encoding a parsed file must be byte-identical (stable artifact).
	again, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatal("re-encode not byte-identical")
	}
}

func TestParseRefusals(t *testing.T) {
	base := func() *File { return validFile(t) }
	encode := func(f *File) []byte {
		data, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "decode"},
		{"garbage", []byte("not json"), "decode"},
		{"trailing", append(encode(base()), []byte("{}")...), "trailing"},
		{"unknown field", []byte(`{"version":1,"bogus":true}`), "bogus"},
		{"missing checksum", []byte(`{"version":1,"features":[],"dataset_version":1,"total_samples":0,"solvers":{}}`), "missing checksum"},
	}
	{
		f := base()
		f.Version = FileVersion + 1
		cases = append(cases, struct {
			name string
			data []byte
			want string
		}{"future version", encode(f), "stale"})
	}
	{
		f := base()
		f.Features[2] = "edges" // renamed feature = schema drift
		cases = append(cases, struct {
			name string
			data []byte
			want string
		}{"schema drift", encode(f), "stale"})
	}
	{
		f := base()
		f.DatasetVersion = DatasetVersion + 1
		cases = append(cases, struct {
			name string
			data []byte
			want string
		}{"dataset version", encode(f), "stale"})
	}
	{
		f := base()
		f.Solvers["dijkstra"] = SolverCoef{Coef: []float64{1, 2, 3}, Samples: 1}
		cases = append(cases, struct {
			name string
			data []byte
			want string
		}{"short coef", encode(f), "coefficients"})
	}
	{
		f := base()
		f.Solvers = nil
		cases = append(cases, struct {
			name string
			data []byte
			want string
		}{"no solvers", encode(f), "no solvers"})
	}
	{
		f := base()
		f.Graphs = map[string]map[string]float64{"g": {"unknown-solver": 2}}
		cases = append(cases, struct {
			name string
			data []byte
			want string
		}{"calibration unknown solver", encode(f), "unknown solver"})
	}
	{
		f := base()
		f.Graphs = map[string]map[string]float64{"g": {"dijkstra": -1}}
		cases = append(cases, struct {
			name string
			data []byte
			want string
		}{"negative calibration", encode(f), "positive finite"})
	}
	{
		f := base()
		f.Graphs = map[string]map[string]float64{"": {"dijkstra": 2}}
		cases = append(cases, struct {
			name string
			data []byte
			want string
		}{"empty graph name", encode(f), "empty graph"})
	}
	{
		// Flip one byte inside a sealed file: checksum must catch it.
		data := encode(base())
		i := strings.Index(string(data), "32")
		data[i] = '9'
		cases = append(cases, struct {
			name string
			data []byte
			want string
		}{"bit flip", data, "checksum mismatch"})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.data)
			if err == nil {
				t.Fatal("Parse accepted a bad file")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateNonFinite(t *testing.T) {
	f := validFile(t)
	c := f.Solvers["delta"]
	c.Coef[3] = math.NaN()
	f.Solvers["delta"] = c
	if err := f.Validate(); err == nil || !strings.Contains(err.Error(), "not finite") {
		t.Fatalf("want non-finite refusal, got %v", err)
	}
}

func TestModelPredict(t *testing.T) {
	f := validFile(t)
	f.Solvers["zeroed"] = SolverCoef{Coef: make([]float64, NumFeatures), Samples: 10}
	f.Solvers["negative"] = SolverCoef{Coef: []float64{-1000, 0, 0, 0, 0, 0, 0}, Samples: 10}
	m := NewModel(f)

	feats := Features{N: 1000, M: 4000, MaxWeight: 255, Sources: 2}
	d, ok := m.Predict("dijkstra", feats)
	if !ok {
		t.Fatal("dijkstra should predict")
	}
	x := feats.Vector()
	wantUS := 100 + 0.05*x[3] + 0.002*x[5]
	// Duration truncates to whole nanoseconds, so allow 1ns of slack.
	if got := float64(d) / float64(time.Microsecond); math.Abs(got-wantUS) > 1e-3 {
		t.Fatalf("predict = %vµs, want %vµs", got, wantUS)
	}
	if _, ok := m.Predict("absent", feats); ok {
		t.Fatal("unknown solver must not predict")
	}
	if _, ok := m.Predict("zeroed", feats); ok {
		t.Fatal("all-zero solver must fall back to static policy, not predict")
	}
	if d, ok := m.Predict("negative", feats); !ok || d != 0 {
		t.Fatalf("negative prediction should clamp to 0, got %v ok=%v", d, ok)
	}
	want := []string{"delta", "dijkstra", "negative", "zeroed"}
	got := m.Solvers()
	if len(got) != len(want) {
		t.Fatalf("Solvers() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Solvers() = %v, want %v", got, want)
		}
	}
}

// PredictFor applies the file's per-graph calibration; files without it —
// and graphs the training traces never covered — behave exactly like the
// global Predict, and the calibrated file round-trips bit-exactly.
func TestModelPredictFor(t *testing.T) {
	f := validFile(t)
	f.Graphs = map[string]map[string]float64{"roads": {"dijkstra": 2.5}}
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse calibrated file: %v", err)
	}
	if got.Graphs["roads"]["dijkstra"] != 2.5 {
		t.Fatalf("calibration lost in round trip: %+v", got.Graphs)
	}
	m := NewModel(got)
	feats := Features{N: 1000, M: 4000, MaxWeight: 255, Sources: 2}
	global, ok := m.Predict("dijkstra", feats)
	if !ok {
		t.Fatal("no global prediction")
	}
	calibrated, ok := m.PredictFor("roads", "dijkstra", feats)
	if !ok {
		t.Fatal("no calibrated prediction")
	}
	// Duration truncates to whole nanoseconds, so allow 1ns of slack.
	if want := 2.5 * float64(global); math.Abs(float64(calibrated)-want) > 1 {
		t.Fatalf("calibrated = %v, want 2.5x global %v", calibrated, global)
	}
	// Uncovered graph and uncovered solver: global behavior.
	if d, ok := m.PredictFor("unknown-graph", "dijkstra", feats); !ok || d != global {
		t.Fatalf("unknown graph: %v ok=%v, want global %v", d, ok, global)
	}
	if d, ok := m.PredictFor("roads", "delta", feats); !ok {
		t.Fatal("delta should predict")
	} else if g, _ := m.Predict("delta", feats); d != g {
		t.Fatalf("uncalibrated solver on calibrated graph: %v != %v", d, g)
	}
}

func TestProviderFallbackAndReload(t *testing.T) {
	var nilP *Provider
	if _, ok := nilP.PredictFor("", "dijkstra", Features{N: 10}); ok {
		t.Fatal("nil provider must not predict")
	}
	nilP.CountModelPick() // must not panic
	nilP.Observe(Sample{Solver: "dijkstra", DurUS: 1000}, time.Millisecond, true)
	if nilP.Samples() != nil {
		t.Fatal("nil provider holds samples")
	}
	if s := nilP.StatsSnapshot(); s["enabled"] != false {
		t.Fatalf("nil provider snapshot: %v", s)
	}

	p := NewProvider(0)
	if p.Enabled() {
		t.Fatal("fresh provider should be disabled")
	}
	dir := t.TempDir()
	good := dir + "/model.json"
	data, err := validFile(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, good, data)
	if err := p.LoadFile(good); err != nil {
		t.Fatal(err)
	}
	if !p.Enabled() || p.Path() != good {
		t.Fatal("model not installed")
	}
	// Corrupt reload: the old model must survive.
	bad := dir + "/bad.json"
	data[len(data)/2] ^= 0xff
	writeFile(t, bad, data)
	if err := p.LoadFile(bad); err == nil {
		t.Fatal("corrupt file accepted")
	}
	if !p.Enabled() || p.Path() != good {
		t.Fatal("failed reload must keep the previous model")
	}
	snap := p.StatsSnapshot()
	ctrs := snap["counters"].(map[string]int64)
	if ctrs[CtrReloads] != 1 || ctrs[CtrReloadFailures] != 1 {
		t.Fatalf("reload counters: %v", ctrs)
	}
}

// Observe is the one place a solve is accounted: every call joins the sample
// ring; only priced ones feed the drift counters and histograms.
func TestObservePredictionAccounting(t *testing.T) {
	p := NewProvider(2)
	p.Observe(Sample{Solver: "a", DurUS: 1000}, 2*time.Millisecond, true) // over, rel err 1.0
	p.Observe(Sample{Solver: "b", DurUS: 4000}, time.Millisecond, true)   // under, rel err 0.75
	p.Observe(Sample{Solver: "c", DurUS: 3000}, 3*time.Millisecond, true) // exact
	p.Observe(Sample{Solver: "d", DurUS: 5000}, 0, false)                 // unpriced: sample only
	ctrs := p.Counters().Snapshot()
	if ctrs[CtrPredictions] != 3 || ctrs[CtrPredictionOver] != 2 || ctrs[CtrPredictionUnder] != 1 {
		t.Fatalf("counters: %v", ctrs)
	}
	if got := p.PredictedCost.Snapshot().Count; got != 3 {
		t.Fatalf("predicted_cost count = %d", got)
	}
	if got := p.AbsError.Snapshot().Count; got != 3 {
		t.Fatalf("abs_error count = %d", got)
	}
	rel := p.RelError.Snapshot()
	if rel.Count != 3 {
		t.Fatalf("rel_error count = %d", rel.Count)
	}
	if math.Abs(rel.Sum-(1.0+0.75+0)) > 1e-12 {
		t.Fatalf("rel_error sum = %v", rel.Sum)
	}
	// The ring is sized by NewProvider's argument and slides.
	held := p.Samples().Snapshot()
	if len(held) != 2 || held[0].Solver != "c" || held[1].Solver != "d" || p.Samples().Total() != 4 {
		t.Fatalf("ring: %+v total=%d", held, p.Samples().Total())
	}
	snap := p.StatsSnapshot()
	if snap["samples_held"] != 2 || snap["samples_collected"] != uint64(4) || snap["dataset_version"] != DatasetVersion {
		t.Fatalf("snapshot sample keys: %v", snap)
	}
}
