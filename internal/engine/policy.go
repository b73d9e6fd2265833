package engine

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// ModelOverrideMargin is how decisively the learned cost model must beat
// the static ladder's choice before it overrides it: the argmin solver's
// predicted cost must be at least this factor below the static choice's
// own predicted cost. Linear per-solver regressions carry family-level
// error the feature basis cannot see, so near-tie rankings are noise; the
// ladder keeps those, and the model only claims the decisive wins
// (DESIGN.md §14).
const ModelOverrideMargin = 1.25

// pickSolver resolves the solver name for a query. An explicit name must
// exist in the engine's solver pool and be applicable to the graph (BFS on
// non-unit weights is rejected, not silently wrong). Empty or "auto" selects
// by the learned cost model when one is loaded — predicted-cost argmin over
// the applicable solvers, subject to ModelOverrideMargin against the static
// choice (DESIGN.md §14) — and otherwise by the static heuristic:
//
//   - unit-weight graphs: BFS — a unit-weight traversal is the cheapest
//     exact solver and parallelizes on the instance runtime;
//   - multi-source queries: Thorup — it answers a source set in one run
//     over the shared hierarchy. So does every other solver in the registry
//     (each seeds all sources at distance 0); whether one of them should
//     take these queries is a measured decision this ladder has not made
//     yet (ROADMAP item 1);
//   - single-source: delta-stepping when the instance's heuristic bucket
//     width exceeds 1 (weight range admits real buckets, so phases batch
//     work), Thorup otherwise (delta = 1 degenerates into a serial-grade
//     Dijkstra ordering, while Thorup keeps traversal cost near-linear).
//
// The static ladder also backstops the model: no model loaded, a model with
// zero coefficients for every applicable solver, or a nil provider all land
// here (counted as static_fallbacks when record is set). Both paths consult
// only precomputed instance stats, so selection stays O(1).
//
// record separates real selections (Query: counted as model_picks /
// static_fallbacks) from advisory ones (PredictCost: uncounted), so the
// counters measure served traffic, not admission probes.
func (e *Engine) pickSolver(name string, srcs []int32, record bool) (string, error) {
	if name != "" && name != "auto" {
		s, ok := e.byName(name)
		if !ok {
			return "", fmt.Errorf("%w: unknown solver %q (have %s)", ErrBadQuery, name, strings.Join(e.names(), ", "))
		}
		if !s.Applicable(e.in.G) {
			return "", fmt.Errorf("%w: solver %q requires unit edge weights", ErrBadQuery, name)
		}
		return name, nil
	}
	static := e.staticPick(srcs)
	if best, ok := e.argminSolver(len(srcs), static); ok {
		if record {
			e.cost.CountModelPick()
		}
		return best, nil
	}
	if record {
		e.cost.CountStaticFallback()
	}
	return static, nil
}

// staticPick is the heuristic ladder documented on pickSolver.
func (e *Engine) staticPick(srcs []int32) string {
	if s, ok := e.byName("bfs"); ok && s.Applicable(e.in.G) {
		return "bfs"
	}
	if len(srcs) > 1 {
		return "thorup"
	}
	if _, ok := e.byName("delta"); ok && e.in.Delta > 1 {
		return "delta"
	}
	return "thorup"
}

// argminSolver prices every applicable solver in the pool with the loaded
// cost model and returns the choice the model stands behind: the cheapest
// predicted solver if it beats the static choice's own prediction by
// ModelOverrideMargin (or the static choice has no prediction at all),
// otherwise the static choice itself — still a model pick, the model was
// consulted and endorsed the ladder. ok is false when no model is loaded
// or no applicable solver has usable (non-zero) coefficients — the caller
// falls back to the static ladder uncounted as a model decision. Ties
// break toward the earlier solver in the pool (the registry order), which
// is deterministic.
func (e *Engine) argminSolver(sources int, static string) (string, bool) {
	m := e.cost.Model()
	if m == nil {
		return "", false
	}
	f := e.features(sources)
	best, bestD := "", time.Duration(math.MaxInt64)
	for _, s := range e.solvers {
		if !s.Applicable(e.in.G) {
			continue
		}
		if d, ok := m.PredictFor(e.cfg.Graph, s.Name, f); ok && d < bestD {
			best, bestD = s.Name, d
		}
	}
	if best == "" || best == static {
		return best, best != ""
	}
	if sd, ok := m.PredictFor(e.cfg.Graph, static, f); ok && float64(sd) < float64(bestD)*ModelOverrideMargin {
		return static, true
	}
	return best, true
}

func (e *Engine) names() []string {
	out := make([]string, len(e.solvers))
	for i, s := range e.solvers {
		out[i] = s.Name
	}
	return out
}
