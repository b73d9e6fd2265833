// Package mta models the Cray MTA-2, the machine the paper's experiments ran
// on, closely enough to reproduce the *shapes* of its parallel results on
// commodity hardware.
//
// The MTA-2 is a massively multithreaded machine: each 220 MHz processor holds
// 128 hardware thread contexts ("streams") and the network retires one memory
// reference per processor per cycle, so performance is governed by available
// parallelism and loop-management overhead rather than by caches. The paper's
// findings — insufficient parallelism in small instances, loop fork cost
// dominating small toVisit loops (Table 6), throughput saturation for
// simultaneous queries (Figure 5) — are all consequences of this model.
//
// Package mta provides:
//
//   - Machine: the cost parameters of a simulated MTA-2 configuration.
//   - Acct: work/span accounting for parallel regions executed serially,
//     with makespan estimated by Brent's bound
//     T_p = fork + work/lanes + span.
//
// The MTA's full/empty-bit synchronization is not modeled as a memory word:
// the one place the algorithms need it, the relaxation's read-modify-write,
// is par.CASMin's CAS loop. The accounting is driven by internal/par's
// simulation runtime; the algorithms themselves never import this package
// directly.
//
// See DESIGN.md §3 ("System inventory") for how this package fits the system.
package mta
