// Package dimacs reads and writes the 9th DIMACS Implementation Challenge
// shortest-path file formats, the formats of the instances the paper
// evaluates on (paper §4.2):
//
//   - .gr graph files:   "c <comment>", "p sp <n> <m>", "a <u> <v> <w>"
//   - .ss source files:  "c <comment>", "p aux sp ss <k>", "s <v>"
//
// Vertices are 1-based in the files and 0-based in memory. The Challenge's
// .gr files list each undirected edge as two arcs, other files list one.
// ReadGraph takes both with one direction-blind rule: among the arcs with
// the same undirected key (min(u,v), max(u,v), w) every second one in file
// order is dropped — whichever way it points — and the others become edges,
// so k parallel edges written as 2k arcs stay k edges and an unmatched arc
// stays an edge. Self-loops are always kept, and at most 2^28 vertices are
// accepted. In both formats white space is ASCII, a line has no length limit,
// and an error names its line and quotes at most 64 bytes of it. DESIGN.md §5
// decision 13 has how a .gr file is read, and decision 10 what a text start
// costs.
//
// See DESIGN.md §3 ("System inventory") for how this package fits the system.
package dimacs
