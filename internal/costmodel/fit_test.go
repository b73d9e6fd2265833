package costmodel

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// synthSamples generates noiseless samples from known ground-truth
// coefficients over a spread of instance shapes.
func synthSamples(truth map[string][]float64, rng *rand.Rand, perSolver int) []Sample {
	var out []Sample
	for name, coef := range truth {
		for i := 0; i < perSolver; i++ {
			f := Features{
				N:         1 << (6 + rng.Intn(8)),
				MaxWeight: uint32(1) << (2 * rng.Intn(8)),
				Sources:   1 + rng.Intn(16),
			}
			f.M = int64(f.N) * int64(2+rng.Intn(6))
			x := f.Vector()
			var us float64
			for j := range x {
				us += coef[j] * x[j]
			}
			out = append(out, Sample{Solver: name, Features: f, DurUS: int64(math.Max(1, us))})
		}
	}
	return out
}

func TestFitRecoversGroundTruth(t *testing.T) {
	// thorup is native multi-source (no sources_m term); dijkstra and delta
	// pay one fold per source — the crossover structure the model must learn.
	truth := map[string][]float64{
		"dijkstra": {100, 0, 0, 0.08, 0, 0.01, 0},
		"delta":    {2000, 0, 0.02, 0, 0, 0.01, 50},
		"thorup":   {5000, 0.1, 0.05, 0, 0, 0, 0},
	}
	rng := rand.New(rand.NewSource(7))
	samples := synthSamples(truth, rng, 200)
	f, err := Fit(samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("fitted file invalid: %v", err)
	}
	if f.TotalSamples != 600 {
		t.Fatalf("total samples = %d", f.TotalSamples)
	}
	m := NewModel(f)
	// Predictions must track ground truth within 5% on held-out shapes.
	for i := 0; i < 50; i++ {
		feats := Features{
			N:         1 << (6 + rng.Intn(8)),
			MaxWeight: uint32(1) << (2 * rng.Intn(8)),
			Sources:   1 + rng.Intn(16),
		}
		feats.M = int64(feats.N) * int64(2+rng.Intn(6))
		for name, coef := range truth {
			x := feats.Vector()
			var wantUS float64
			for j := range x {
				wantUS += coef[j] * x[j]
			}
			got, ok := m.Predict(name, feats)
			if !ok {
				t.Fatalf("%s: no prediction", name)
			}
			gotUS := float64(got) / float64(time.Microsecond)
			if rel := math.Abs(gotUS-wantUS) / wantUS; rel > 0.05 {
				t.Fatalf("%s on %+v: predicted %.0fµs, truth %.0fµs (rel %.3f)", name, feats, gotUS, wantUS, rel)
			}
		}
	}
	// And argmin must reproduce the ground-truth crossover: small single-
	// source instances go to dijkstra, heavy multi-source to thorup.
	small := Features{N: 64, M: 128, MaxWeight: 4, Sources: 1}
	heavy := Features{N: 8192, M: 49152, MaxWeight: 1 << 14, Sources: 16}
	if best := argmin(m, small); best != "dijkstra" {
		t.Fatalf("small instance argmin = %s", best)
	}
	if best := argmin(m, heavy); best != "thorup" {
		t.Fatalf("heavy instance argmin = %s", best)
	}
}

func argmin(m *Model, f Features) string {
	best, bestD := "", time.Duration(math.MaxInt64)
	for _, name := range m.Solvers() {
		if d, ok := m.Predict(name, f); ok && d < bestD {
			best, bestD = name, d
		}
	}
	return best
}

// Per-graph calibration: two graphs follow the same linear law except one
// runs a consistent 2x slower (structure the feature basis cannot see).
// The fitted file must carry factors that separate them again.
func TestFitPerGraphCalibration(t *testing.T) {
	truth := []float64{100, 0, 0, 0.08, 0, 0.01, 0}
	rng := rand.New(rand.NewSource(13))
	var samples []Sample
	for i := 0; i < 64; i++ {
		f := Features{
			N:         1 << (6 + rng.Intn(8)),
			MaxWeight: uint32(1) << (2 * rng.Intn(8)),
			Sources:   1 + rng.Intn(16),
		}
		f.M = int64(f.N) * int64(2+rng.Intn(6))
		x := f.Vector()
		var us float64
		for j := range x {
			us += truth[j] * x[j]
		}
		base := Sample{Solver: "dijkstra", Features: f}
		cold, hot := base, base
		cold.Graph, cold.DurUS = "cold", int64(math.Max(1, us))
		hot.Graph, hot.DurUS = "hot", int64(math.Max(1, 2*us))
		samples = append(samples, cold, hot)
	}
	// Below MinSamplesPerGraph: no factor for this graph.
	samples = append(samples, Sample{Graph: "sparse", Solver: "dijkstra", Features: Features{N: 64, M: 128, Sources: 1}, DurUS: 50})
	f, err := Fit(samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("calibrated file invalid: %v", err)
	}
	if _, ok := f.Graphs["sparse"]; ok {
		t.Fatal("under-sampled graph got a calibration factor")
	}
	hotF, coldF := f.Graphs["hot"]["dijkstra"], f.Graphs["cold"]["dijkstra"]
	if hotF == 0 || coldF == 0 {
		t.Fatalf("missing factors: %+v", f.Graphs)
	}
	if ratio := hotF / coldF; ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("hot/cold factor ratio = %.3f, want ~2", ratio)
	}
	m := NewModel(f)
	feats := Features{N: 1024, M: 4096, MaxWeight: 1 << 8, Sources: 4}
	x := feats.Vector()
	var wantUS float64
	for j := range x {
		wantUS += truth[j] * x[j]
	}
	coldPred, _ := m.PredictFor("cold", "dijkstra", feats)
	hotPred, _ := m.PredictFor("hot", "dijkstra", feats)
	coldUS, hotUS := float64(coldPred)/float64(time.Microsecond), float64(hotPred)/float64(time.Microsecond)
	if rel := math.Abs(coldUS-wantUS) / wantUS; rel > 0.1 {
		t.Fatalf("cold prediction %.0fµs vs truth %.0fµs (rel %.3f)", coldUS, wantUS, rel)
	}
	if rel := math.Abs(hotUS-2*wantUS) / (2 * wantUS); rel > 0.1 {
		t.Fatalf("hot prediction %.0fµs vs truth %.0fµs (rel %.3f)", hotUS, 2*wantUS, rel)
	}
	// An unknown graph gets the uncalibrated global prediction, which must
	// sit between the two calibrated planes.
	global, _ := m.PredictFor("never-seen", "dijkstra", feats)
	if global < coldPred || global > hotPred {
		t.Fatalf("global prediction %v outside [%v, %v]", global, coldPred, hotPred)
	}
}

func TestFitThresholds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	samples := synthSamples(map[string][]float64{"dijkstra": {100, 0, 0, 0.08, 0, 0.004, 0}}, rng, 20)
	// A solver below MinSamplesPerSolver is omitted, not fitted badly.
	samples = append(samples, Sample{Solver: "rare", Features: Features{N: 10, M: 20, Sources: 1}, DurUS: 5})
	// Non-positive durations are discarded.
	samples = append(samples, Sample{Solver: "dijkstra", Features: Features{N: 10, M: 20, Sources: 1}, DurUS: 0})
	f, err := Fit(samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Solvers["rare"]; ok {
		t.Fatal("under-sampled solver should be omitted")
	}
	if f.Solvers["dijkstra"].Samples != 20 {
		t.Fatalf("dijkstra samples = %d", f.Solvers["dijkstra"].Samples)
	}
	if _, err := Fit(nil, 0); err == nil || !strings.Contains(err.Error(), "usable samples") {
		t.Fatalf("empty fit: %v", err)
	}
}

// A daemon serving one graph with one query shape exports a dataset where
// every sample has identical features — rank-deficient, so only the ridge
// term keeps the system solvable. The samples are also deliberately slow
// (seconds): with the 1/y² relative weighting that makes every accumulated
// entry ~1e-13, which once starved both the ridge term and the pivot check
// before the system was weight-normalized. Fit must still succeed and
// predict the observed cost at the training point.
func TestFitDegenerateSingleInstance(t *testing.T) {
	var samples []Sample
	for i := 0; i < 16; i++ {
		samples = append(samples, Sample{
			Graph: "only", Solver: "dijkstra",
			Features: Features{N: 16384, M: 65536, MaxWeight: 16384, Sources: 1},
			DurUS:    3_000_000 + int64(i%2)*200_000, // ~3s per solve
		})
	}
	f, err := Fit(samples, 0)
	if err != nil {
		t.Fatalf("single-instance fit must not be singular: %v", err)
	}
	m := NewModel(f)
	feats := Features{N: 16384, M: 65536, MaxWeight: 16384, Sources: 1}
	d, ok := m.PredictFor("only", "dijkstra", feats)
	if !ok {
		t.Fatal("no prediction at the training point")
	}
	got := float64(d) / float64(time.Microsecond)
	if want := 3_100_000.0; math.Abs(got-want)/want > 0.1 {
		t.Fatalf("training-point prediction %vµs, want ~%vµs", got, want)
	}
}
