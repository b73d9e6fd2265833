// Package mlb implements Goldberg's multi-level bucket shortest path
// algorithm, the algorithm behind the DIMACS Challenge reference solver the
// paper compares against in Table 1 ("an implementation of Goldberg's
// multilevel bucket shortest path algorithm, which has an expected running
// time of O(n) on random graphs with uniform weight distributions").
//
// The bucket structure is the radix-heap formulation of multi-level buckets,
// pq.Radix: a key d sits in bucket bits.Len64(d XOR last), where last is the
// least key when bucket 0 was last refilled, so bucket i holds keys that agree
// with last above bit i-1 and differ at it. Since Dijkstra keys are monotone,
// a refill only moves the least non-empty bucket's keys downwards, giving
// O(m + n log C) worst case. There is no decrease-key: a vertex whose
// distance drops is queued again, and a copy whose vertex is settled or whose
// key is above its distance is skipped when it pops.
//
// Goldberg's linear-average-time twist is the caliber heuristic: a vertex v
// whose tentative distance is at most mu + caliber(v) (the minimum weight of
// any edge into v), mu being the key of the last valid pop, can be settled
// immediately, through an exact list instead of the buckets. SSSP enables it;
// SSSPNoCaliber is the plain multi-level bucket variant kept for the ablation
// bench.
//
// See DESIGN.md §3 ("System inventory") for how this package fits the system.
package mlb
