// Package engine is the query-execution plane between a serving layer
// (cmd/ssspd's HTTP handlers) and the SSSP solvers. The paper's service shape
// — one immutable Component Hierarchy, many cheap concurrent traversals — is
// throughput-bound by per-query setup once traffic is heavy, so the engine
// amortizes or eliminates every per-query cost it can:
//
//   - each solver runs in one of runtime.GOMAXPROCS(0) slots, each keeping
//     the state (Thorup query arrays, Dijkstra scratch, delta-stepping state)
//     it was made with on first use instead of allocating per request, and
//     scrubbing it with Reset when freed; a solve that finds every slot held
//     waits for one, so no more states exist than processors to run them;
//   - singleflight deduplication coalesces concurrent identical queries into
//     one solver execution whose result every caller shares;
//   - a bounded segmented-LRU cache (entry- and byte-budgeted) keeps the
//     distance vectors of sources read more than once ahead of those read
//     once, together with their serialized JSON form, so repeated sources
//     are answered without solving or re-marshaling;
//   - a batch executor fans many sources of one request across a worker pool
//     that shares the hierarchy, amortizing per-request overhead;
//   - a solver-selection policy picks the cheapest applicable solver per
//     query (BFS on unit weights, delta-stepping vs Thorup by instance
//     shape), overridable per request.
//
// One engine serves every generation of a graph (Gen): a write swaps the
// instance the queries run on, and the counters, slots and cache carry on.
// Results are immutable and shared between the cache and all callers — and,
// after a mutation, between an entry and the answer it replaced
// (Gen.Inherit): the vector is read through Result.At and Result.Len only.
//
// See DESIGN.md §8 ("Query engine") for how this package fits the system.
package engine
