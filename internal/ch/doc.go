// Package ch implements Thorup's Component Hierarchy (CH), the tree
// structure at the heart of the paper.
//
// Component(v,i) is the subgraph reachable from v using only edges of weight
// < 2^i. The CH has one leaf per vertex (level 0) and an internal node for
// every maximal component that is strictly larger than each of its
// sub-components; the children of a level-i node are the components it is
// made of, and every edge between two distinct children has weight >= 2^(i-1)
// (the separation property Thorup's Lemma builds on). Nodes are only created
// where merges occur, so chains of identical components are compressed; each
// node stores the level at which it formed.
//
// Three constructions are provided:
//
//   - BuildNaive: the paper's Algorithm 1 — log C phases, each finding the
//     connected components of the contracted graph restricted to edges of
//     weight < 2^i with a parallel CC kernel, then contracting. This is the
//     construction the paper times in Tables 3 and 5.
//   - BuildKruskal: a serial union-find sweep over edges grouped by weight
//     level; the fast serial construction.
//   - BuildMST: Thorup's theoretically favoured route — compute the minimum
//     spanning forest first, then sweep only its n-1 edges. The paper
//     deliberately deviates from this ("we build the CH from the original
//     graph because this is faster in practice", §3.1); the ablation bench
//     quantifies that choice.
//
// All three produce the identical hierarchy.
//
// A hierarchy is persisted only as part of an internal/snapshot file: Raw
// exposes the flat arrays that format stores verbatim, and FromRaw rebuilds
// a hierarchy over them (aliasing an mmap'd file without a decode pass),
// refusing arrays that do not fit the graph they are paired with.
//
// See DESIGN.md §3 ("System inventory") for how this package fits the system.
package ch
