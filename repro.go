// Package repro is a Go implementation of the parallel shortest-path system
// of Crobak, Berry, Madduri and Bader, "Advanced Shortest Paths Algorithms on
// a Massively-Multithreaded Architecture" (IPDPS Workshops / MTAAP 2007): a
// multithreaded version of Thorup's linear-time undirected single-source
// shortest path algorithm built on a shared Component Hierarchy, together
// with every substrate the paper depends on — parallel connected components
// (including an MTGL-style bully kernel), parallel Borůvka spanning forests,
// delta-stepping, Goldberg's multi-level bucket solver, the DIMACS Challenge
// graph generators and file formats, and a simulated Cray MTA-2 cost model
// that reproduces the paper's 40-processor results on commodity hardware.
//
// # Quick start
//
//	g := repro.RandomGraph(1<<16, 1<<18, 1<<16, repro.UWD, 42)
//	h := repro.BuildHierarchy(g)              // shared, immutable
//	solver := repro.NewSolver(h, repro.NewExecRuntime(8))
//	dist := solver.SSSP(0)                    // Thorup SSSP
//
// Many queries can share one hierarchy — the paper's headline use case:
//
//	results := solver.RunMany([]int32{0, 99, 12345})
//
// To reproduce the paper's machine-dependent numbers, run on the simulated
// MTA-2 instead:
//
//	rt := repro.NewSimRuntime(repro.MTA2(40))
//	solver = repro.NewSolver(h, rt)
//	solver.SSSP(0)
//	cycles := rt.SimCost().Span // modelled 40-processor makespan
//
// See cmd/experiments for the per-table/figure reproduction harness and
// DESIGN.md for the system inventory.
package repro

import (
	"io"

	"repro/internal/analytics"
	"repro/internal/bfs"
	"repro/internal/cc"
	"repro/internal/ch"
	"repro/internal/core"
	"repro/internal/deltastep"
	"repro/internal/dijkstra"
	"repro/internal/dimacs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/mlb"
	"repro/internal/mta"
	"repro/internal/par"
	"repro/internal/snapshot"
	"repro/internal/verify"
)

// Core types, re-exported from the implementation packages.
type (
	// Graph is an immutable undirected weighted graph in CSR form.
	Graph = graph.Graph
	// Edge is one undirected edge (endpoints plus positive weight).
	Edge = graph.Edge
	// Builder accumulates edges and produces a Graph.
	Builder = graph.Builder
	// Hierarchy is Thorup's Component Hierarchy; build once, share among any
	// number of concurrent queries.
	Hierarchy = ch.Hierarchy
	// HierarchyStats carries the paper's Table 2 statistics.
	HierarchyStats = ch.Stats
	// Runtime is what the algorithms run their parallel loops on: an
	// ExecRuntime or a SimRuntime.
	Runtime = par.Runtime
	// ExecRuntime runs loops on real goroutines.
	ExecRuntime = par.Exec
	// SimRuntime runs loops serially while it accounts their cost on the
	// simulated MTA-2.
	SimRuntime = mta.Sim
	// Machine is a simulated MTA-2 configuration.
	Machine = mta.Machine
	// Solver runs Thorup SSSP queries over a shared Hierarchy.
	Solver = core.Solver
	// Query is the reusable per-query state of one Thorup SSSP computation.
	Query = core.Query
	// SolverOption configures a Solver.
	SolverOption = core.Option
	// Strategy selects how toVisit loops are parallelized.
	Strategy = core.Strategy
	// Thresholds are the selective-parallelization cutoffs (paper §3.3).
	Thresholds = par.Thresholds
	// WeightDist selects an edge-weight distribution.
	WeightDist = gen.WeightDist
	// Instance names a paper-style benchmark instance.
	Instance = gen.Instance
	// DeltaStats reports delta-stepping phase structure.
	DeltaStats = deltastep.Stats
	// Trace carries the per-query event counters of a Thorup run (see
	// Query.EnableTrace), including the propagation-locality metric of the
	// paper's §3.2.
	Trace = core.Trace
)

// Inf is the distance reported for unreachable vertices.
const Inf = graph.Inf

// Weight distributions (paper §4.2).
const (
	// UWD draws weights uniformly from [1, C].
	UWD = gen.UWD
	// PWD draws poly-log weights 2^i, i uniform in [1, log2 C].
	PWD = gen.PWD
)

// toVisit strategies (paper §3.3, Table 6).
const (
	// NaiveStrategy always scans children with an all-processor loop
	// ("Thorup A").
	NaiveStrategy = core.Naive
	// SelectiveStrategy picks the loop regime from the child count
	// ("Thorup B", the paper's recommended configuration).
	SelectiveStrategy = core.Selective
)

// NewBuilder returns a graph builder for n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph directly from an undirected edge list.
func FromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// ContractZeroEdges merges vertices joined by zero-weight edges — the
// preprocessing Thorup's algorithm requires when inputs contain zero weights.
// It returns the contracted graph and the vertex mapping.
func ContractZeroEdges(n int, edges []Edge) (*Graph, []int32) {
	return graph.ContractZeroEdges(n, edges)
}

// NewExecRuntime returns a runtime that executes loops on up to workers
// goroutines.
func NewExecRuntime(workers int) *ExecRuntime { return par.NewExec(workers) }

// NewSimRuntime returns a runtime that executes serially while modelling the
// given machine; rt.SimCost().Span is the simulated makespan in cycles.
func NewSimRuntime(m Machine) *SimRuntime { return mta.NewSim(m) }

// MTA2 returns the cost model of a p-processor Cray MTA-2.
func MTA2(p int) Machine { return mta.MTA2(p) }

// BuildHierarchy constructs the Component Hierarchy serially (union-find
// sweep) — the fastest choice on a commodity host.
func BuildHierarchy(g *Graph) *Hierarchy { return ch.BuildKruskal(g) }

// BuildHierarchyParallel constructs the Component Hierarchy with the paper's
// Algorithm 1: log C rounds of parallel connected components (MTGL-style
// bully kernel) and contraction, on the given runtime.
func BuildHierarchyParallel(rt Runtime, g *Graph) *Hierarchy {
	return ch.BuildNaive(rt, g, cc.Bully)
}

// ConnectedComponents labels the connected components of g (MTGL-style bully
// kernel); it returns a dense labelling and the component count.
func ConnectedComponents(rt Runtime, g *Graph) ([]int32, int) {
	return cc.Bully(rt, g, cc.All)
}

// NewSolver creates a Thorup SSSP solver over a shared hierarchy.
func NewSolver(h *Hierarchy, rt Runtime, opts ...SolverOption) *Solver {
	return core.NewSolver(h, rt, opts...)
}

// WithStrategy selects the toVisit strategy.
func WithStrategy(s Strategy) SolverOption { return core.WithStrategy(s) }

// WithThresholds overrides the selective-parallelization thresholds.
func WithThresholds(t Thresholds) SolverOption { return core.WithThresholds(t) }

// TuneThresholds derives selective-parallelization thresholds for a machine
// by simulating the toVisit loop, as the paper did.
func TuneThresholds(m Machine) Thresholds { return harness.TuneThresholds(m) }

// SimultaneousCost simulates len(sources) Thorup SSSP queries sharing one
// Component Hierarchy, co-scheduled on the machine (the paper's Figure 5
// experiment). It returns the modelled makespan in cycles plus the per-query
// distances.
func SimultaneousCost(h *Hierarchy, m Machine, sources []int32, opts ...SolverOption) (int64, [][]int64) {
	return harness.SimultaneousCost(h, m, sources, opts...)
}

// ThorupSerial runs the plain single-threaded Thorup solver (the paper's
// Table 1 configuration).
func ThorupSerial(h *Hierarchy, src int32) []int64 { return core.SerialSSSP(h, src) }

// Dijkstra computes SSSP with a binary-heap Dijkstra — the reference oracle.
func Dijkstra(g *Graph, src int32) []int64 { return dijkstra.SSSP(g, src) }

// DijkstraTree additionally returns shortest-path-tree parent pointers.
func DijkstraTree(g *Graph, src int32) ([]int64, []int32) {
	return dijkstra.SSSPWithParents(g, src)
}

// DeltaStepping computes SSSP with parallel delta-stepping (Meyer–Sanders),
// the paper's comparison algorithm. Delta <= 0 selects the bucket width
// measured from the graph's weights (about one arc per vertex below it).
func DeltaStepping(rt Runtime, g *Graph, src int32, delta int64) []int64 {
	if delta <= 0 {
		delta = deltastep.DefaultDelta(g)
	}
	return deltastep.SSSP(rt, g, src, delta)
}

// DeltaSteppingStats is DeltaStepping returning phase statistics.
func DeltaSteppingStats(rt Runtime, g *Graph, src int32, delta int64) ([]int64, DeltaStats) {
	if delta <= 0 {
		delta = deltastep.DefaultDelta(g)
	}
	return deltastep.Run(rt, g, src, delta)
}

// MultiLevelBuckets computes SSSP with Goldberg's multi-level bucket
// algorithm (the DIMACS Challenge reference solver, with the caliber
// heuristic).
func MultiLevelBuckets(g *Graph, src int32) []int64 { return mlb.SSSP(g, src) }

// RandomGraph generates the DIMACS random family: a Hamiltonian cycle plus
// m-n random edges (parallel edges and self-loops possible), weights from
// dist over [1, c].
func RandomGraph(n, m int, c uint32, dist WeightDist, seed uint64) *Graph {
	return gen.Random(n, m, c, dist, seed)
}

// RMATGraph generates the DIMACS scale-free (R-MAT) family.
func RMATGraph(n, m int, c uint32, dist WeightDist, seed uint64) *Graph {
	return gen.RMATGraph(n, m, c, dist, seed)
}

// GridGraph generates a rows x cols road-network-like grid.
func GridGraph(rows, cols int, c uint32, dist WeightDist, seed uint64) *Graph {
	return gen.GridGraph(rows, cols, c, dist, seed)
}

// ReadDIMACS parses a 9th-DIMACS-Challenge .gr file.
func ReadDIMACS(r io.Reader) (*Graph, error) { return dimacs.ReadGraph(r) }

// WriteDIMACS emits a graph in .gr format.
func WriteDIMACS(w io.Writer, g *Graph, comment string) error {
	return dimacs.WriteGraph(w, g, comment)
}

// BFSLevels computes breadth-first levels from src with the parallel
// level-synchronous kernel (-1 for unreachable vertices).
func BFSLevels(rt Runtime, g *Graph, src int32) []int32 {
	return bfs.Parallel(rt, g, src)
}

// STDistance computes the shortest s-t distance with bidirectional Dijkstra —
// the point-to-point query setting of the paper's road-network discussion.
func STDistance(g *Graph, s, t int32) int64 {
	return dijkstra.STDistance(g, s, t)
}

// CertifyDistances verifies in linear time that dist is the exact
// shortest-path labelling of g from the source set (feasibility + tightness +
// exact zero set); it is as strong as re-running Dijkstra.
func CertifyDistances(rt Runtime, g *Graph, sources []int32, dist []int64) error {
	return verify.Distances(rt, g, sources, dist)
}

// CertifyTree verifies that parent is a valid shortest-path tree for dist.
func CertifyTree(g *Graph, sources []int32, dist []int64, parent []int32) error {
	return verify.Tree(g, sources, dist, parent)
}

// ShortestPath reconstructs the source-to-v path from certified parents; nil
// if v is unreachable.
func ShortestPath(dist []int64, parent []int32, v int32) []int32 {
	return verify.Path(dist, parent, v)
}

// SaveSnapshot persists g and its Component Hierarchy h as one checksummed
// binary snapshot, so the expensive preprocessing can be reused across runs.
// h must have been built for g.
func SaveSnapshot(w io.Writer, g *Graph, h *Hierarchy) error {
	_, err := snapshot.Write(w, g, h)
	return err
}

// LoadSnapshot restores a (graph, hierarchy) pair, validating both section
// checksums and every structural invariant of the hierarchy against the graph.
func LoadSnapshot(r io.Reader) (*Graph, *Hierarchy, error) {
	return snapshot.Read(r)
}

// GeometricGraph generates a random geometric graph (points in the unit
// square, edges within radius, distance-proportional weights scaled to c) — a
// road-network surrogate.
func GeometricGraph(n int, radius float64, c uint32, seed uint64) *Graph {
	return gen.Geometric(n, radius, c, seed)
}

// SmallWorldGraph generates a Watts-Strogatz-style small-world graph (ring
// lattice with degree 2k, rewiring probability p).
func SmallWorldGraph(n, k int, p float64, c uint32, dist WeightDist, seed uint64) *Graph {
	return gen.SmallWorld(n, k, p, c, dist, seed)
}

// Closeness computes closeness centrality for the given vertices with one
// batched shared-CH query per vertex (the paper's social-network workload).
func Closeness(s *Solver, vertices []int32) []float64 {
	return analytics.Closeness(s, vertices)
}

// Harmonic computes harmonic centrality (robust to disconnection).
func Harmonic(s *Solver, vertices []int32) []float64 {
	return analytics.Harmonic(s, vertices)
}

// DiameterEstimate lower-bounds the weighted diameter with double sweeps.
func DiameterEstimate(s *Solver, start int32, sweeps int) int64 {
	return analytics.DiameterEstimate(s, start, sweeps)
}

// TopKCloseness returns the k most central of the candidate vertices.
func TopKCloseness(s *Solver, candidates []int32, k int) []int32 {
	return analytics.TopKCloseness(s, candidates, k)
}

// LargestComponent extracts the giant connected component (and the mapping
// back to original vertex ids) — standard preprocessing for analytics.
func LargestComponent(g *Graph) (*Graph, []int32) {
	return cc.LargestComponent(g)
}

// Betweenness estimates betweenness centrality by Brandes' accumulation over
// shortest-path DAGs from the sampled sources (exact with AllSources).
// Scores use the directed-pair convention (each unordered pair counted
// twice).
func Betweenness(s *Solver, sources []int32) []float64 {
	return analytics.Betweenness(s, sources)
}

// AllSources returns [0, n), for exact analytics runs.
func AllSources(n int) []int32 { return analytics.AllSources(n) }
