package engine

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// ModelOverrideMargin is how decisively the learned cost model must beat
// the static rule's choice before it overrides it: the argmin solver's
// predicted cost must be at least this factor below the static choice's
// own predicted cost. Linear per-solver regressions carry family-level
// error the feature basis cannot see, so near-tie rankings are noise; the
// static rule keeps those, and the model only claims the decisive wins
// (DESIGN.md §14).
const ModelOverrideMargin = 1.25

// pickSolver resolves the solver name for a query. An explicit name must
// exist in the engine's solver pool and be applicable to the graph (BFS on
// non-unit weights is rejected, not silently wrong). Empty or "auto" selects
// by the learned cost model when one is loaded — predicted-cost argmin over
// the applicable solvers, subject to ModelOverrideMargin against the static
// choice (DESIGN.md §14) — and otherwise by the static rule, which is
// applicability plus one default:
//
//   - unit-weight graphs: BFS — a unit-weight traversal is the cheapest
//     exact solver and parallelizes on the instance runtime;
//   - everything else: delta-stepping, for one source or a set. With the
//     bucket width measured from the weights (deltastep.DefaultDelta) it was
//     the fastest kernel on every family and source-set size measured
//     (EXPERIMENTS.md, "Bucket width from the weights"), so there is no
//     property of a query or graph left on which the rule prefers Thorup;
//     Thorup is the default only in a pool without delta-stepping, and stays
//     reachable by name and through a loaded model.
//
// The static rule also backstops the model: no model loaded, a model with
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
	static := e.staticPick()
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

// staticPick is the static rule documented on pickSolver.
func (e *Engine) staticPick() string {
	if s, ok := e.byName("bfs"); ok && s.Applicable(e.in.G) {
		return "bfs"
	}
	if _, ok := e.byName("delta"); ok {
		return "delta"
	}
	return "thorup"
}

// argminSolver prices every applicable solver in the pool with the loaded
// cost model and returns the choice the model stands behind: the cheapest
// predicted solver if it beats the static choice's own prediction by
// ModelOverrideMargin (or the static choice has no prediction at all),
// otherwise the static choice itself — still a model pick, the model was
// consulted and endorsed the static rule. ok is false when no model is loaded
// or no applicable solver has usable (non-zero) coefficients — the caller
// falls back to the static rule uncounted as a model decision. Ties
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
