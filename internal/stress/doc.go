// Package stress is the differential and metamorphic stress-testing harness
// for every SSSP solver in the repository. It is the correctness gate behind
// `make stress` and cmd/stress.
//
// One instance check layers these independent oracles:
//
//   - differential: every registered solver (internal/solver) computes the
//     same distance vector, compared pairwise; bidirectional Dijkstra is
//     cross-checked on sampled s-t pairs.
//   - certification: each vector is certified by internal/verify's
//     feasibility+tightness rules, which are as strong as re-running
//     Dijkstra but independent of every solver implementation.
//   - metamorphic: predictable distance transformations must hold under
//     uniform weight scaling, vertex relabeling, edge splitting, and merging
//     sources into one multi-source query (internal/stress/metamorphic.go).
//   - structural: the Component Hierarchy passes ch.Validate after
//     construction and core.Query.CheckInvariants after traversal by each
//     of core's two kernels (which must also agree), and concurrent queries
//     over one shared hierarchy (the paper's Figure 5 workload) reproduce
//     the serial answers — run under -race by `make stress`.
//   - engine: the query-execution plane (internal/engine) answers a
//     concurrent mixed workload — singleflight races, cache hits, explicit
//     solvers, batches — identically to Dijkstra (engine.go).
//   - targeted: whatever the engine decides to compute for a request that
//     names its targets — bidirectional searches, a full solve after they
//     outgrew their budget, a cached vector — every answer is Dijkstra's, on
//     the instance and on the instance plus an isolated vertex, a two-vertex
//     component, a parallel arc and a pendant behind one very heavy arc, both
//     where n/32 starves the searches and, padded, where it never does; the
//     pooled search state alone at budgets of 1 and none (targeted.go).
//   - mutate: random mutation sequences through the incremental machinery, on
//     a lineage that repairs its hierarchy and one that has none, against a
//     naive replay (mutate.go): edge multisets, the hierarchy at the end, and
//     — an engine per generation, each incremental child inheriting its
//     parent's answers beside queries in flight on the parent — every answer
//     served for the same source sets on every generation.
//   - catalog: the multi-graph catalog (internal/catalog), a mapped snapshot
//     among its sources, survives reloads, loads, writes and unloads racing
//     beneath live queries without failing an acquire on a ready graph,
//     serving a stale generation's distances or keeping one undrained (catalog.go).
//
// Failures are minimized by a built-in shrinker (shrink.go) and emitted as
// self-contained DIMACS repro files (repro.go) that cmd/stress can replay.
//
// See DESIGN.md §7 ("Correctness methodology") for how this package fits the system.
package stress
