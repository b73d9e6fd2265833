// Package deltastep implements delta-stepping (Meyer & Sanders), the parallel
// Dijkstra variant of Madduri et al. that the paper compares Thorup's
// algorithm against (Table 5 and Figure 5) — and, because that comparison
// comes out in its favour once the bucket width is measured from the weights
// (DefaultDelta) rather than taken as the paper's C/d (PaperDelta), the kernel
// the serving engine sends every query on a weighted graph to.
//
// Delta-stepping groups queued vertices into buckets of width Delta and
// empties the smallest non-empty bucket in phases; within a phase all
// relaxations are independent, which is where the parallelism comes from.
// State.RunFromSources seeds a set of sources at distance 0 and returns the
// distance to the nearest one; Run, SSSP and the package-level Run are its
// one-source wrappers. One of two kernels does the work, chosen by the
// runtime — a par.Exec takes the exec kernel, any other runtime (mta.Sim) the
// sim kernel:
//
//   - The sim kernel (sim.go) is the textbook structure on the MTA-2 cost
//     model: sub-phases that relax only light edges (weight < Delta; these may
//     re-insert vertices into the current bucket), then one phase over the
//     heavy edges of everything removed from the bucket, every loop routed
//     through par.Runtime and charged. The paper tables under results/csv are
//     reproduced on it, so its loop structure is frozen.
//
//   - The exec kernel (exec.go) is shaped for a cache machine: one plain serial
//     loop, no atomics, no closures. Bins hold (vertex, distance) entries, live
//     while the distance is still current, so there are no per-vertex marks and
//     no deduplication. A live entry has all its arcs relaxed in one pass over
//     the raw CSR; improved vertices are appended straight to their bins.
//     Buckets live in a cyclic ring of ceil(maxW/Delta)+2 bins, at most 1024,
//     with one overflow list for what lands beyond them, so a State's size
//     depends neither on the graph's diameter nor on how far below the largest
//     weight the measured Delta lies. The runtime's workers are not used: a
//     per-phase parallel arm (the paper's §3.3 selective parallelization with a
//     host threshold) was measured and left out, see DESIGN.md §5 decision 9.
//
// Bucket membership is lazy in both kernels: insertions append and the scan
// filters, which avoids the concurrent-deletion problem the paper notes
// buckets have on parallel machines.
//
// See DESIGN.md §3 ("System inventory") and §5 (decision 9) for how this
// package fits the system and why the kernels are kept apart.
package deltastep
