// Package costmodel is the learned latency model behind solver selection,
// predictive admission, and capacity planning (DESIGN.md §14).
//
// The paper's central finding is that no single SSSP solver wins everywhere:
// the right choice shifts with instance shape (n, m, weight range, source
// count). The serving plane therefore records every executed solve as a
// training Sample (instance features plus the measured solve-stage duration),
// exports the collected samples as a versioned JSON-lines dataset, and — once
// cmd/costfit has fitted a small per-solver linear regression over that
// dataset — selects solvers by predicted-cost argmin instead of the static
// threshold ladder.
//
// The package has four parts:
//
//   - Features/Sample/Collector: the pre-solve feature vector (n, m,
//     n·log₂n, source count, source·m cross term, weight class), the
//     versioned dataset record, and the bounded in-memory ring behind the
//     Provider, which the engine fills with one Sample per executed solve.
//   - File: the versioned, CRC-64/ECMA-checksummed coefficients artifact
//     cmd/costfit writes and ssspd loads (-cost-model). Parse refuses
//     corruption, version mismatches, and feature-schema drift, so a stale
//     model can never silently misprice queries.
//   - Model/Provider: pure-Go inference (one dot product per candidate
//     solver) behind an atomically swappable holder, so the admin API can
//     hot-reload retrained coefficients under live traffic; Provider also
//     owns the observability surface (prediction counters, predicted-cost
//     and prediction-error histograms) that makes model drift visible in
//     /metrics.
//   - Fit: the ridge-regularized least-squares fitter shared by cmd/costfit
//     and the benchmark harness.
//
// Everything degrades safely: with no model loaded (or one whose
// coefficients are all zero for every candidate), engine.Policy falls back
// to the static heuristic unchanged.
package costmodel
