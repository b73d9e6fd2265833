package repro_test

import (
	"fmt"

	"repro"
)

// The end-to-end flow: generate, build the hierarchy once, query.
func Example() {
	g := repro.RandomGraph(1024, 4096, 1024, repro.UWD, 42)
	h := repro.BuildHierarchy(g)
	solver := repro.NewSolver(h, repro.NewExecRuntime(2))
	dist := solver.SSSP(0)
	fmt.Println(dist[0], dist[1] > 0)
	// Output: 0 true
}

// Multiple concurrent queries share one Component Hierarchy — the paper's
// Figure 5 workload.
func ExampleSolver_runMany() {
	g := repro.RandomGraph(512, 2048, 64, repro.UWD, 7)
	solver := repro.NewSolver(repro.BuildHierarchy(g), repro.NewExecRuntime(2))
	results := solver.RunMany([]int32{0, 100, 200})
	fmt.Println(len(results), results[0][0], results[1][100], results[2][200])
	// Output: 3 0 0 0
}

// Simulated MTA-2 runs report modelled cycles instead of wall-clock.
func ExampleNewSimRuntime() {
	g := repro.RandomGraph(256, 1024, 64, repro.UWD, 1)
	rt := repro.NewSimRuntime(repro.MTA2(40))
	repro.NewSolver(repro.BuildHierarchy(g), rt).SSSP(0)
	cost := rt.SimCost()
	fmt.Println(cost.Work > 0, cost.Span > 0, cost.Span <= cost.Work)
	// Output: true true true
}

// Results can be certified in linear time without re-running a solver.
func ExampleCertifyDistances() {
	g := repro.GridGraph(8, 8, 16, repro.UWD, 3)
	dist := repro.Dijkstra(g, 0)
	err := repro.CertifyDistances(repro.NewExecRuntime(1), g, []int32{0}, dist)
	fmt.Println(err)

	dist[10]++ // corrupt one entry
	err = repro.CertifyDistances(repro.NewExecRuntime(1), g, []int32{0}, dist)
	fmt.Println(err != nil)
	// Output:
	// <nil>
	// true
}

// Multi-source queries answer nearest-facility questions in one traversal,
// and the shortest-path tree says which facility serves each vertex.
func ExampleQuery_runFromSources() {
	g := repro.GridGraph(5, 5, 1, repro.UWD, 1) // unit weights
	q := repro.NewSolver(repro.BuildHierarchy(g), repro.NewExecRuntime(1)).Query()
	facilities := []int32{0, 24} // opposite corners
	dist := q.RunFromSources(facilities)
	fmt.Println(dist[0], dist[24], dist[12])

	parent := q.Parents()
	fmt.Println(repro.CertifyTree(g, facilities, dist, parent))
	path := repro.ShortestPath(dist, parent, 23)
	fmt.Println(path[0], len(path)-1)
	// Output:
	// 0 0 4
	// <nil>
	// 24 1
}

// Zero-weight edges are contracted away before building the hierarchy.
func ExampleContractZeroEdges() {
	edges := []repro.Edge{
		{U: 0, V: 1, W: 0}, // merged
		{U: 1, V: 2, W: 5},
	}
	g, label := repro.ContractZeroEdges(3, edges)
	fmt.Println(g.NumVertices(), label[0] == label[1])
	// Output: 2 true
}
