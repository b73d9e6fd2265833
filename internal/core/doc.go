// Package core implements the paper's primary contribution: a multithreaded
// version of Thorup's linear-time single-source shortest path algorithm for
// undirected graphs with positive integer weights, driven by the Component
// Hierarchy of internal/ch.
//
// # Algorithm
//
// Thorup's insight (his Lemma, restated as Lemma 1 in the paper) is that if
// the vertex set splits into components whose crossing edges all weigh at
// least delta = 2^(i-1), then any vertex v minimising d(v) within a component
// whose minimum lies within delta of the global minimum is already settled
// (d(v) = delta(v)) and may be visited in any order — in particular, in
// parallel. The Component Hierarchy organises exactly these components: a
// node at level i buckets its children by minD(child) >> (i-1), and all
// children in the lowest occupied bucket can be visited concurrently — or one
// after another in any order — recursively, until leaves are reached and
// settled.
//
// # Two kernels
//
// A Solver wraps one Component Hierarchy and hands out independent Query
// objects. Query.RunFromSources seeds a set of sources at distance 0 and
// returns the distance to the nearest one; Run is its one-source wrapper.
// One of two kernels does the work, chosen once by the runtime — a par.Exec
// takes the exec kernel, any other runtime (mta.Sim) the sim kernel — and a
// Query holds the state of that kernel only:
//
//   - The sim kernel (sim.go) is the paper's parallel formulation (§3.2,
//     §3.3) on the MTA-2 cost model. d and minD are maintained with atomic
//     CAS-min; a successful relaxation propagates its value from the leaf
//     toward the root, stopping early at the first ancestor that is already
//     low enough (the paper locks minD and observes values are "not
//     propagated very far up the CH in practice" — the early stop is the same
//     phenomenon).
//     Buckets are virtual: no bucket lists exist, a node's current bucket is
//     minD >> shift and membership is discovered by scanning its children —
//     the paper's Figure 3 loop — so insertion is a single store and needs no
//     concurrent data structure. minD increases (bucket advances) are
//     performed only by the node's visitor at quiescent points, with a rescan
//     after each raise. The toVisit set is built by one of two strategies:
//     Naive always runs the scan as an all-processor loop (the paper's
//     "Thorup A"), Selective picks serial / single-processor / all-processors
//     from the child count (the paper's "Thorup B", its §3.3 contribution,
//     ~2x in Table 6). Every loop goes through par.Runtime and is charged;
//     the tables under results/csv are reproduced on it, so it is frozen.
//     WithStrategy and WithThresholds configure this kernel only.
//
//   - The exec kernel (exec.go) is what ssspd serves, shaped for a cache
//     machine: one goroutine per query running a plain recursive traversal over
//     flat per-query arrays, with no closures, no atomics and no runtime calls,
//     and no allocation on a warm Query. A leaf has one word (its distance is
//     its minD); liveness is counted in children, where a settled child is
//     found; and each node lists its reached, unsettled children, so one pass
//     over that list empties a bucket and finds the next, where virtual buckets
//     scan every child twice. Trace counters are plain words the state hands
//     out. The runtime's workers are used across queries (RunMany, the
//     engine's pool), never inside one: DESIGN.md §5, decision 11.
//
// serial.go is neither: it is the paper-faithful serial traversal and its
// physical-bucket ablation partner, timed by Table 1 and ablation-buckets
// and used by tests as an independent reference.
//
// Any number of queries may run concurrently against the shared hierarchy
// (the paper's Figure 5 experiment and its motivating use case).
//
// See DESIGN.md §3 ("System inventory") for how this package fits the system.
package core
