// Package solver is a small registry unifying every SSSP implementation in
// the repository behind one interface, so that harnesses (differential
// stress testing, experiments, the CLI) can enumerate and run "all solvers"
// without hard-coding each package's entry point.
//
// Six full solvers are registered — the Thorup core (internal/core's kernel
// for the instance's runtime), the serial Thorup reference, Dijkstra,
// delta-stepping, Goldberg's multi-level buckets and BFS — plus
// bidirectional Dijkstra as a point-to-point solver (it
// computes one s-t distance, not a distance vector). Both Thorup variants
// and delta-stepping take a source set in one run (NativeMultiSource); the
// solvers that natively handle only a single source answer multi-source
// queries by folding the per-source runs with an elementwise minimum, which
// is the definition of multi-source shortest paths and therefore a valid
// differential oracle.
//
// See DESIGN.md §3 ("System inventory") for how this package fits the system.
package solver
