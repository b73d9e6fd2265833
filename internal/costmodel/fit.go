package costmodel

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// DefaultRidge is the default L2 regularization strength (applied in the
// column-scaled basis, so it is dimensionless).
const DefaultRidge = 1e-6

// MinSamplesPerSolver is how many samples a solver needs before Fit will
// emit coefficients for it. Below that, the solver is left out of the file
// and the static policy keeps handling it.
const MinSamplesPerSolver = 8

// MinSamplesPerGraph is how many samples a (graph, solver) pair needs
// before Fit will emit a per-graph calibration factor for it (File.Graphs).
const MinSamplesPerGraph = 3

// MaxCalibration bounds per-graph calibration factors: a residual outside
// [1/MaxCalibration, MaxCalibration] means the global fit is nonsense for
// that pair, and amplifying it severalfold-squared would let one bad batch
// of samples dominate selection.
const MaxCalibration = 64.0

// Fit fits one ridge-regularized least-squares regression per solver over
// the FeatureNames basis and returns the (unsealed) coefficients file.
// ridge <= 0 selects DefaultRidge. Samples with non-positive durations are
// ignored; solvers with fewer than MinSamplesPerSolver usable samples are
// omitted.
//
// The loss is relative, not absolute: each residual is divided by the
// sample's own duration (weighted least squares, weight 1/y²). Solver
// selection compares predictions across solvers at one instance, so a 100µs
// miss on a 200µs query matters far more than a 100µs miss on a 50ms one —
// an unweighted fit lets the slowest instances buy accuracy where it is
// worth the least.
//
// The normal equations are solved in a column-scaled basis (each feature
// divided by its max absolute value) so the 7×7 system stays
// well-conditioned even though raw feature magnitudes span ~10 orders;
// coefficients are unscaled before being written out.
func Fit(samples []Sample, ridge float64) (*File, error) {
	if ridge <= 0 {
		ridge = DefaultRidge
	}
	bySolver := make(map[string][]Sample)
	for _, s := range samples {
		if s.DurUS <= 0 {
			continue
		}
		bySolver[s.Solver] = append(bySolver[s.Solver], s)
	}
	f := &File{
		Version:        FileVersion,
		Features:       append([]string(nil), FeatureNames...),
		DatasetVersion: DatasetVersion,
		Solvers:        make(map[string]SolverCoef),
	}
	names := make([]string, 0, len(bySolver))
	for name := range bySolver {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rows := bySolver[name]
		if len(rows) < MinSamplesPerSolver {
			continue
		}
		coef, err := fitOne(rows, ridge)
		if err != nil {
			return nil, fmt.Errorf("costmodel: fit %s: %w", name, err)
		}
		f.Solvers[name] = SolverCoef{Coef: coef, Samples: len(rows)}
		f.TotalSamples += len(rows)
	}
	if len(f.Solvers) == 0 {
		return nil, fmt.Errorf("costmodel: no solver had %d+ usable samples", MinSamplesPerSolver)
	}
	calibrate(f, samples)
	return f, nil
}

// calibrate fills File.Graphs: for every (graph, solver) pair with
// MinSamplesPerGraph+ usable samples and a fitted solver, the geometric
// mean of measured/predicted becomes that pair's multiplicative correction.
// The geometric mean is the least-squares answer in log space, matching the
// relative-error loss of the underlying fit.
func calibrate(f *File, samples []Sample) {
	m := NewModel(f)
	type key struct{ graph, solver string }
	logRatios := make(map[key][]float64)
	for _, s := range samples {
		if s.DurUS <= 0 || s.Graph == "" {
			continue
		}
		if _, ok := f.Solvers[s.Solver]; !ok {
			continue
		}
		pred, ok := m.Predict(s.Solver, s.Features)
		if !ok {
			continue
		}
		predUS := float64(pred) / float64(time.Microsecond)
		if predUS < 1 {
			predUS = 1 // clamped or sub-µs predictions: avoid exploding ratios
		}
		k := key{s.Graph, s.Solver}
		logRatios[k] = append(logRatios[k], math.Log(float64(s.DurUS)/predUS))
	}
	for k, lr := range logRatios {
		if len(lr) < MinSamplesPerGraph {
			continue
		}
		sum := 0.0
		for _, v := range lr {
			sum += v
		}
		factor := math.Exp(sum / float64(len(lr)))
		factor = math.Min(math.Max(factor, 1/MaxCalibration), MaxCalibration)
		if f.Graphs == nil {
			f.Graphs = make(map[string]map[string]float64)
		}
		if f.Graphs[k.graph] == nil {
			f.Graphs[k.graph] = make(map[string]float64)
		}
		f.Graphs[k.graph][k.solver] = factor
	}
}

func fitOne(rows []Sample, ridge float64) ([]float64, error) {
	const k = NumFeatures
	// Column scales: max |x_j| over the training rows, 1 where degenerate.
	var scale [k]float64
	xs := make([][k]float64, len(rows))
	for i, s := range rows {
		xs[i] = s.Features.Vector()
		for j, v := range xs[i] {
			if a := math.Abs(v); a > scale[j] {
				scale[j] = a
			}
		}
	}
	for j := range scale {
		if scale[j] == 0 {
			scale[j] = 1
		}
	}
	// Accumulate XᵀWX and XᵀWy in the scaled basis, with w = 1/y² so the
	// loss is relative error.
	var xtx [k][k]float64
	var xty [k]float64
	var wsum float64
	for i, s := range rows {
		var x [k]float64
		for j := range x {
			x[j] = xs[i][j] / scale[j]
		}
		y := float64(s.DurUS)
		w := 1 / (y * y)
		wsum += w
		for a := 0; a < k; a++ {
			xty[a] += w * x[a] * y
			for b := a; b < k; b++ {
				xtx[a][b] += w * x[a] * x[b]
			}
		}
	}
	// Normalize by the total weight so the system is O(1)-scale no matter
	// how slow the samples are (w = 1/y² makes raw entries vanish for
	// second-long queries, which would starve both the ridge term and the
	// solver's pivot check). The minimizer is unchanged.
	for a := 0; a < k; a++ {
		xty[a] /= wsum
		for b := a; b < k; b++ {
			xtx[a][b] /= wsum
		}
	}
	for a := 0; a < k; a++ {
		for b := 0; b < a; b++ {
			xtx[a][b] = xtx[b][a]
		}
		xtx[a][a] += ridge
	}
	beta, err := solveLinear(xtx, xty)
	if err != nil {
		return nil, err
	}
	out := make([]float64, k)
	for j := range out {
		out[j] = beta[j] / scale[j]
	}
	return out, nil
}

// solveLinear solves Ax = b by Gaussian elimination with partial pivoting.
func solveLinear(a [NumFeatures][NumFeatures]float64, b [NumFeatures]float64) ([NumFeatures]float64, error) {
	const k = NumFeatures
	for col := 0; col < k; col++ {
		pivot := col
		for r := col + 1; r < k; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return b, fmt.Errorf("singular system at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < k; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < k; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	var x [NumFeatures]float64
	for r := k - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < k; c++ {
			sum -= a[r][c] * x[c]
		}
		x[r] = sum / a[r][r]
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return x, fmt.Errorf("non-finite solution")
		}
	}
	return x, nil
}
