package costmodel

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Counter names exported by Provider.StatsSnapshot under "counters".
const (
	CtrPredictions       = "predictions"
	CtrModelPicks        = "model_picks"
	CtrStaticFallbacks   = "static_fallbacks"
	CtrAdmissionRejected = "admission_rejected_predicted"
	CtrPredictionOver    = "prediction_over"
	CtrPredictionUnder   = "prediction_under"
	CtrReloads           = "reloads"
	CtrReloadFailures    = "reload_failures"
)

// RelErrorBuckets are the relative-error histogram bounds: |pred-actual| /
// actual. 0.1 means the prediction was within 10% of the truth.
var RelErrorBuckets = []float64{0.1, 0.25, 0.5, 1, 2, 4, 8}

// Provider is the atomically swappable model holder plus the model's
// observability surface. One Provider lives for the life of the process;
// the model behind it can be replaced under live traffic (hot reload).
// All methods are safe on a nil *Provider, which behaves as "no model".
type Provider struct {
	model atomic.Pointer[Model]

	mu   sync.Mutex // guards path (reload bookkeeping only)
	path string

	counters *obs.Group
	// PredictedCost is the distribution of predicted solve costs.
	PredictedCost *obs.Histogram
	// AbsError is |predicted - actual| per observed solve.
	AbsError *obs.Histogram
	// RelError is |predicted - actual| / actual per observed solve.
	RelError *obs.FloatHistogram

	samples *Collector // the training-sample ring Observe fills
}

// DefaultSamples is the training-sample ring capacity when the caller does
// not choose one.
const DefaultSamples = 4096

// NewProvider returns an empty provider (no model loaded; everything falls
// back to the static policy until LoadFile or SetModel succeeds) whose
// training-sample ring holds at most samples entries (<= 0: DefaultSamples).
func NewProvider(samples int) *Provider {
	if samples <= 0 {
		samples = DefaultSamples
	}
	return &Provider{
		samples: NewCollector(samples),
		counters: obs.NewGroup(
			CtrPredictions, CtrModelPicks, CtrStaticFallbacks,
			CtrAdmissionRejected, CtrPredictionOver, CtrPredictionUnder,
			CtrReloads, CtrReloadFailures,
		),
		PredictedCost: obs.NewHistogram(nil),
		AbsError:      obs.NewHistogram(nil),
		RelError:      obs.NewFloatHistogram(RelErrorBuckets),
	}
}

// Model returns the current model, or nil when none is loaded.
func (p *Provider) Model() *Model {
	if p == nil {
		return nil
	}
	return p.model.Load()
}

// Enabled reports whether a model is loaded.
func (p *Provider) Enabled() bool { return p.Model() != nil }

// SetModel swaps the model directly (tests, and LoadFile's success path).
func (p *Provider) SetModel(m *Model) {
	if p == nil {
		return
	}
	p.model.Store(m)
}

// LoadFile reads, verifies, and installs a coefficients file. On any
// failure the previous model (if any) stays installed and keeps serving —
// a bad push can never take out selection.
func (p *Provider) LoadFile(path string) error {
	if p == nil {
		return fmt.Errorf("costmodel: nil provider")
	}
	f, err := ReadFile(path)
	if err != nil {
		p.counters.C(CtrReloadFailures).Inc()
		return err
	}
	p.model.Store(NewModel(f))
	p.mu.Lock()
	p.path = path
	p.mu.Unlock()
	p.counters.C(CtrReloads).Inc()
	return nil
}

// Path returns the path of the last successfully loaded file.
func (p *Provider) Path() string {
	if p == nil {
		return ""
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.path
}

// PredictFor prices solver name on features f with the current model, with
// its per-graph calibration applied when the training samples covered graph
// (Model.PredictFor). ok is false with no model, an unknown solver, or
// all-zero coefficients.
func (p *Provider) PredictFor(graph, name string, f Features) (time.Duration, bool) {
	m := p.Model()
	if m == nil {
		return 0, false
	}
	return m.PredictFor(graph, name, f)
}

// CountModelPick records that the model's argmin chose this query's solver.
func (p *Provider) CountModelPick() {
	if p != nil {
		p.counters.C(CtrModelPicks).Inc()
	}
}

// CountStaticFallback records that selection fell back to the static
// heuristic (no model, inapplicable solvers, or zero coefficients).
func (p *Provider) CountStaticFallback() {
	if p != nil {
		p.counters.C(CtrStaticFallbacks).Inc()
	}
}

// CountAdmissionRejected records one predictive-admission 503.
func (p *Provider) CountAdmissionRejected() {
	if p != nil {
		p.counters.C(CtrAdmissionRejected).Inc()
	}
}

// Observe takes one executed solve from the engine that measured it — exactly
// one call per solver execution; cache hits and dedup joiners never reach it.
// The sample joins the training ring; when the model priced the solve
// beforehand (havePred), predicted against the sample's measured duration
// also feeds the drift counters and histograms, so the label and the drift
// observation are one measurement.
func (p *Provider) Observe(s Sample, predicted time.Duration, havePred bool) {
	if p == nil {
		return
	}
	p.samples.Add(s)
	if !havePred {
		return
	}
	actual := time.Duration(s.DurUS) * time.Microsecond
	p.counters.C(CtrPredictions).Inc()
	p.PredictedCost.Observe(predicted)
	diff := predicted - actual
	if diff >= 0 {
		p.counters.C(CtrPredictionOver).Inc()
	} else {
		p.counters.C(CtrPredictionUnder).Inc()
		diff = -diff
	}
	p.AbsError.Observe(diff)
	if actual > 0 {
		p.RelError.Observe(float64(diff) / float64(actual))
	}
}

// Samples exposes the training-sample ring, the /debug/costmodel/dataset
// export (nil-safe; nil when the provider is nil).
func (p *Provider) Samples() *Collector {
	if p == nil {
		return nil
	}
	return p.samples
}

// Counters exposes the provider's counter group (nil-safe; nil when the
// provider is nil).
func (p *Provider) Counters() *obs.Group {
	if p == nil {
		return nil
	}
	return p.counters
}

// StatsSnapshot is the /metrics "costmodel" payload: model identity,
// selection/admission counters, the drift histograms, and the sample ring's
// fill level.
func (p *Provider) StatsSnapshot() map[string]any {
	if p == nil {
		return map[string]any{"enabled": false}
	}
	out := map[string]any{
		"enabled":              false,
		"path":                 p.Path(),
		"counters":             p.counters.Snapshot(),
		"predicted_cost":       p.PredictedCost.Snapshot(),
		"prediction_abs_error": p.AbsError.Snapshot(),
		"prediction_rel_error": p.RelError.Snapshot(),
		"samples_held":         p.samples.Len(),
		"samples_collected":    p.samples.Total(),
		"dataset_version":      DatasetVersion,
	}
	if m := p.Model(); m != nil {
		f := m.File()
		out["enabled"] = true
		out["model_version"] = f.Version
		out["trained_at"] = f.TrainedAt
		out["total_samples"] = f.TotalSamples
		out["solvers"] = m.Solvers()
		out["calibrated_graphs"] = len(f.Graphs)
	}
	return out
}
