// Package pq provides the monotone priority queue every label-setting loop of
// the serving path pops from: Radix, the radix heap of Ahuja, Mehlhorn, Orlin &
// Tarjan, with 65 buckets indexed by the highest bit in which a key differs
// from the last minimum. The budgeted s-t search (internal/dijkstra), the
// resume of a stale inherited answer (internal/engine) and Goldberg's
// multi-level buckets (internal/mlb) share it; the lazy binary heap inside
// internal/dijkstra, the reference every test compares against, is the only
// other priority queue in the tree.
//
// A Radix holds (vertex, key) items and never decreases a key: consumers push
// a vertex again when its distance drops and skip the outgrown copies on pop.
//
// See DESIGN.md §3 ("System inventory") for how this package fits the system.
package pq
