// Command sssp solves shortest-path problems on a DIMACS .gr instance (or a
// generated one) with any of the repository's solvers.
//
// Usage:
//
//	sssp -graph rand.gr -algo thorup -src 0 -workers 8 -certify
//	sssp -gen rand -logn 16 -algo delta
//	sssp -gen rmat -logn 14 -algo all -certify
//	sssp -gen rand -logn 14 -sources q.ss -algo thorup    # batch, shared CH
//	sssp -gen grid -logn 14 -st 12345                     # point-to-point
//
// Algorithms are the solver registry's names (internal/solver): thorup,
// thorup-serial, dijkstra, delta, mlb, bfs (unit weights only); "all" runs
// every one applicable to the instance.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/dijkstra"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/solver"
	"repro/internal/verify"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments, streams and exit status explicit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sssp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphFile = fs.String("graph", "", "DIMACS .gr input file")
		genClass  = fs.String("gen", "", "generate instead: rand, rmat, grid, geometric, smallworld")
		logN      = fs.Int("logn", 14, "generated size: n = 2^logn")
		logC      = fs.Int("logc", 14, "generated weights: C = 2^logc")
		pwd       = fs.Bool("pwd", false, "generated weights poly-log instead of uniform")
		seed      = fs.Uint64("seed", 1, "generator seed")
		algo      = fs.String("algo", "thorup", strings.Join(solver.Names(), ", ")+", all")
		src       = fs.Int("src", 0, "source vertex (0-based)")
		srcFile   = fs.String("sources", "", "DIMACS .ss file: run one query per source (shared CH)")
		st        = fs.Int("st", -1, "target vertex: print the s-t distance (bidirectional Dijkstra) and exit")
		workers   = fs.Int("workers", 4, "goroutines for parallel solvers")
		certify   = fs.Bool("certify", false, "certify results in linear time (feasibility+tightness)")
		delta     = fs.Int64("delta", 0, "delta-stepping bucket width (0 = measured from the weights)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "sssp: "+format+"\n", a...)
		return 1
	}

	g, name, err := cli.Spec{
		File: *graphFile, Class: *genClass,
		LogN: *logN, LogC: *logC, PWD: *pwd, Seed: *seed,
	}.Load()
	if err != nil {
		return fail("%v", err)
	}
	if *src < 0 || *src >= g.NumVertices() {
		return fail("source %d out of range [0,%d)", *src, g.NumVertices())
	}
	fmt.Fprintf(stdout, "instance %s: n=%d m=%d weights [%d,%d]\n",
		name, g.NumVertices(), g.NumEdges(), g.MinWeight(), g.MaxWeight())

	s := int32(*src)
	in := solver.NewInstance(g, par.NewExec(*workers))
	if *delta > 0 {
		in.Delta = *delta
	}

	if *st >= 0 {
		if *st >= g.NumVertices() {
			return fail("target %d out of range", *st)
		}
		start := time.Now()
		d := dijkstra.STDistance(g, s, int32(*st))
		if d == graph.Inf {
			fmt.Fprintf(stdout, "st(%d,%d) = unreachable (%v)\n", s, *st, time.Since(start).Round(time.Microsecond))
		} else {
			fmt.Fprintf(stdout, "st(%d,%d) = %d (%v)\n", s, *st, d, time.Since(start).Round(time.Microsecond))
		}
		return 0
	}

	if *srcFile != "" {
		buildCH(stdout, in)
		if err := runBatch(stdout, in, *srcFile, *certify); err != nil {
			return fail("%v", err)
		}
		return 0
	}

	names := strings.Split(strings.ToLower(*algo), ",")
	if *algo == "all" {
		names = solver.Names()
	}
	failed, builtCH := false, false
	for _, a := range names {
		sv, ok := solver.ByName(a)
		if !ok {
			return fail("unknown algorithm %q (have %s, all)", a, strings.Join(solver.Names(), ", "))
		}
		if !sv.Applicable(g) {
			if *algo == "all" {
				continue
			}
			return fail("algorithm %q requires unit edge weights", a)
		}
		if sv.NeedsCH && !builtCH {
			buildCH(stdout, in)
			builtCH = true
		}
		start := time.Now()
		dist := sv.Solve(in, []int32{s})
		elapsed := time.Since(start)
		reached, maxD := summarize(dist)
		fmt.Fprintf(stdout, "%-14s %10v  reached=%d maxDist=%d\n", a, elapsed.Round(time.Microsecond), reached, maxD)
		if *certify {
			if err := verify.Distances(in.RT, g, []int32{s}, dist); err != nil {
				fmt.Fprintf(stderr, "sssp: %s: %v\n", a, err)
				failed = true
			}
		}
	}
	if failed {
		return 1
	}
	if *certify {
		fmt.Fprintln(stdout, "certification: all results are exact shortest-path distances")
	}
	return 0
}

// buildCH forces the instance's lazy hierarchy build and reports its time,
// which would otherwise be charged to the first solver that needs it.
func buildCH(stdout io.Writer, in *solver.Instance) {
	start := time.Now()
	h := in.Hierarchy()
	fmt.Fprintf(stdout, "component hierarchy: %d nodes built in %v\n", h.NumNodes(), time.Since(start).Round(time.Microsecond))
}

// runBatch answers one Thorup query per source in the .ss file, all sharing
// one hierarchy, and prints per-source reachability summaries.
func runBatch(stdout io.Writer, in *solver.Instance, srcFile string, certify bool) error {
	f, err := os.Open(srcFile)
	if err != nil {
		return err
	}
	sources, err := cli.ReadSources(f, in.G)
	f.Close()
	if err != nil {
		return err
	}
	start := time.Now()
	results := in.Thorup().RunMany(sources)
	elapsed := time.Since(start)
	for i, s := range sources {
		reached, maxD := summarize(results[i])
		fmt.Fprintf(stdout, "source %-8d reached=%d maxDist=%d\n", s, reached, maxD)
		if certify {
			if err := verify.Distances(in.RT, in.G, []int32{s}, results[i]); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(stdout, "%d simultaneous queries over one shared CH: %v\n", len(sources), elapsed.Round(time.Microsecond))
	return nil
}

func summarize(dist []int64) (reached int, max int64) {
	for _, d := range dist {
		if d < graph.Inf {
			reached++
			if d > max {
				max = d
			}
		}
	}
	return reached, max
}
