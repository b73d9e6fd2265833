// Package solver is a small registry unifying every SSSP implementation in
// the repository behind one interface, so that everything that runs "solver
// X" — the query engine, the differential stress harness, the CLI, the e2e
// oracles — is a client of one description and cannot disagree about what
// that means.
//
// Six full solvers are registered — the Thorup core (internal/core's exec
// kernel, a core.State), the serial Thorup reference, Dijkstra,
// delta-stepping, Goldberg's multi-level buckets and BFS — plus
// bidirectional Dijkstra as a point-to-point solver (it computes one s-t
// distance, not a distance vector; its NewState gives a reusable PointSearch
// that the engine keeps in slots like any State and runs under a settle budget).
//
// An entry's NewState constructs reusable per-query State that holds no
// graph: each run names its Instance, so a set of kept states serves every
// generation of a graph. The contract is State's: a whole source set in one
// run on the Instance it names (every solver seeds each source at distance
// 0), a result that may alias the state until the next run or Reset, any
// number of runs per state, no concurrent use.
// Solver.Solve is defined on top of it as fresh state, one run, detached copy.
//
// See DESIGN.md §3 ("System inventory") and §5 decision 12 for how this
// package fits the system.
package solver
