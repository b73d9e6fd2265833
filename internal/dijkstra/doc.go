// Package dijkstra implements Dijkstra's algorithm, the classical comparison
// point for every solver in this repository and the correctness oracle of the
// test suite.
//
// Full-vector runs use a lazy binary heap (entries are never decreased, stale
// entries are skipped on pop); the budgeted s-t search (STScratch) pops from a
// pq.Radix per direction and reads a graph through an STIndex, its rows as
// weight-sorted words. Their outputs are identical.
//
// See DESIGN.md §3 ("System inventory") for how this package fits the system.
package dijkstra
