package engine

import (
	"fmt"
	"strings"
)

// pickSolver resolves the solver name for a query. An explicit name must
// exist in the engine's solver pool and be applicable to the graph: an
// unknown name, or BFS on non-unit weights (rejected, not silently wrong), is
// an ErrBadQuery. Empty or "auto" selects by the static rule, which is
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
//     reachable by name.
//
// The rule consults only precomputed instance stats, so selection is O(1).
func (g *Gen) pickSolver(name string) (string, error) {
	if name == "" || name == "auto" {
		return g.staticPick(), nil
	}
	s, ok := g.byName(name)
	if !ok {
		return "", fmt.Errorf("%w: unknown solver %q (have %s)", ErrBadQuery, name, strings.Join(g.names(), ", "))
	}
	if !s.Applicable(g.in.G) {
		return "", fmt.Errorf("%w: solver %q requires unit edge weights", ErrBadQuery, name)
	}
	return name, nil
}

// staticPick is the static rule documented on pickSolver.
func (g *Gen) staticPick() string {
	if s, ok := g.byName("bfs"); ok && s.Applicable(g.in.G) {
		return "bfs"
	}
	if _, ok := g.byName("delta"); ok {
		return "delta"
	}
	return "thorup"
}

func (e *Engine) names() []string {
	out := make([]string, len(e.solvers))
	for i, s := range e.solvers {
		out[i] = s.Name
	}
	return out
}
