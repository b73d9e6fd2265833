// Package catalog manages a set of named shortest-path instances — graph,
// query engine, and a Component Hierarchy if one is carried or demanded —
// behind one serving surface. Activation is the expensive step, so the
// catalog keeps it off the query path: Load and Reload run on their caller's
// goroutine — load the graph, make a generation of the name's one engine over
// it, install the result with a single atomic generation swap — and return
// once it serves, while queries keep the generation that served before. A
// mutation makes its generation the same way inside its own request, whatever
// the batch's width (DESIGN.md §5, decision 18). A hierarchy the source did
// not carry is not built here at all: the first query that names a solver
// which reads one builds it, in its own request (DESIGN.md §5, decision 15).
// In-flight queries keep the generation they acquired until they release it,
// so a reload never fails a running query and never lets a query observe a
// mix of old and new state.
//
// Each graph moves through an explicit lifecycle (see State), and the
// catalog enforces a memory budget by evicting the least-recently-used idle
// graph; evicted graphs remember their source and can be loaded again on
// demand.
//
// See DESIGN.md §9 ("Graph catalog & snapshots") for how this package fits the system.
package catalog
