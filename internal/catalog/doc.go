// Package catalog manages a set of named shortest-path instances — graph,
// Component Hierarchy, and query engine — behind one serving surface. The
// paper's two-phase shape (build the hierarchy once, answer many queries)
// makes activation the expensive step, so the catalog keeps it entirely off
// the request path: background workers load the graph, warm the fresh
// engine, and then install the result with a single atomic generation swap.
// A hierarchy the source did not carry is not waited for: the generation's
// solver instance builds it once, in the background, after the swap (DESIGN.md
// §5, decision 15). In-flight queries keep the generation they acquired until
// they release it, so a reload never fails a running query and never lets a
// query observe a mix of old and new state.
//
// Each graph moves through an explicit lifecycle (see State), and the
// catalog enforces a memory budget by evicting the least-recently-used idle
// graph; evicted graphs remember their source and can be loaded again on
// demand.
//
// See DESIGN.md §9 ("Graph catalog & snapshots") for how this package fits the system.
package catalog
