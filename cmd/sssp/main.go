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
// Algorithms: thorup, thorup-serial, delta, dijkstra, mlb, bfs (unit
// weights), all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bfs"
	"repro/internal/ch"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/deltastep"
	"repro/internal/dijkstra"
	"repro/internal/graph"
	"repro/internal/mlb"
	"repro/internal/par"
	"repro/internal/verify"
)

func main() {
	var (
		graphFile = flag.String("graph", "", "DIMACS .gr input file")
		genClass  = flag.String("gen", "", "generate instead: rand, rmat, grid, geometric, smallworld")
		logN      = flag.Int("logn", 14, "generated size: n = 2^logn")
		logC      = flag.Int("logc", 14, "generated weights: C = 2^logc")
		pwd       = flag.Bool("pwd", false, "generated weights poly-log instead of uniform")
		seed      = flag.Uint64("seed", 1, "generator seed")
		algo      = flag.String("algo", "thorup", "thorup, thorup-serial, delta, dijkstra, mlb, bfs, all")
		src       = flag.Int("src", 0, "source vertex (0-based)")
		srcFile   = flag.String("sources", "", "DIMACS .ss file: run one query per source (shared CH)")
		st        = flag.Int("st", -1, "target vertex: print the s-t distance (bidirectional Dijkstra) and exit")
		workers   = flag.Int("workers", 4, "goroutines for parallel solvers")
		certify   = flag.Bool("certify", false, "certify results in linear time (feasibility+tightness)")
		delta     = flag.Int64("delta", 0, "delta-stepping bucket width (0 = heuristic)")
	)
	flag.Parse()

	g, name, err := cli.Spec{
		File: *graphFile, Class: *genClass,
		LogN: *logN, LogC: *logC, PWD: *pwd, Seed: *seed,
	}.Load()
	if err != nil {
		fatal(err)
	}
	if *src < 0 || *src >= g.NumVertices() {
		fatalf("source %d out of range [0,%d)", *src, g.NumVertices())
	}
	fmt.Printf("instance %s: n=%d m=%d weights [%d,%d]\n",
		name, g.NumVertices(), g.NumEdges(), g.MinWeight(), g.MaxWeight())

	s := int32(*src)
	rt := par.NewExec(*workers)

	if *st >= 0 {
		if *st >= g.NumVertices() {
			fatalf("target %d out of range", *st)
		}
		start := time.Now()
		d := dijkstra.STDistance(g, s, int32(*st))
		if d == graph.Inf {
			fmt.Printf("st(%d,%d) = unreachable (%v)\n", s, *st, time.Since(start).Round(time.Microsecond))
		} else {
			fmt.Printf("st(%d,%d) = %d (%v)\n", s, *st, d, time.Since(start).Round(time.Microsecond))
		}
		return
	}

	var h *ch.Hierarchy
	buildCH := func() *ch.Hierarchy {
		if h != nil {
			return h
		}
		start := time.Now()
		h = ch.BuildKruskal(g)
		fmt.Printf("component hierarchy: %d nodes built in %v\n", h.NumNodes(), time.Since(start).Round(time.Microsecond))
		return h
	}

	if *srcFile != "" {
		runBatch(rt, g, buildCH(), *srcFile, *certify, *workers)
		return
	}

	algos := map[string]func() []int64{
		"thorup":        func() []int64 { return core.NewSolver(buildCH(), rt).SSSP(s) },
		"thorup-serial": func() []int64 { return core.SerialSSSP(buildCH(), s) },
		"delta": func() []int64 {
			d := *delta
			if d <= 0 {
				d = deltastep.DefaultDelta(g)
			}
			return deltastep.SSSP(rt, g, s, d)
		},
		"dijkstra": func() []int64 { return dijkstra.SSSP(g, s) },
		"mlb":      func() []int64 { return mlb.SSSP(g, s) },
		"bfs":      func() []int64 { return bfs.Distances(bfs.Parallel(rt, g, s)) },
	}
	order := []string{"thorup", "thorup-serial", "delta", "dijkstra", "mlb"}

	selected := strings.Split(strings.ToLower(*algo), ",")
	if *algo == "all" {
		selected = order
	}
	failed := false
	for _, a := range selected {
		run, ok := algos[a]
		if !ok {
			fatalf("unknown algorithm %q", a)
		}
		start := time.Now()
		dist := run()
		elapsed := time.Since(start)
		reached, maxD := summarize(dist)
		fmt.Printf("%-14s %10v  reached=%d maxDist=%d\n", a, elapsed.Round(time.Microsecond), reached, maxD)
		if *certify && a != "bfs" {
			if err := verify.Distances(rt, g, []int32{s}, dist); err != nil {
				fmt.Fprintf(os.Stderr, "sssp: %s: %v\n", a, err)
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
	if *certify {
		fmt.Println("certification: all results are exact shortest-path distances")
	}
}

// runBatch answers one Thorup query per source in the .ss file, all sharing
// one hierarchy, and prints per-source reachability summaries.
func runBatch(rt *par.Runtime, g *graph.Graph, h *ch.Hierarchy, srcFile string, certify bool, workers int) {
	f, err := os.Open(srcFile)
	if err != nil {
		fatal(err)
	}
	sources, err := cli.ReadSources(f, g)
	f.Close()
	if err != nil {
		fatal(err)
	}
	solver := core.NewSolver(h, rt)
	start := time.Now()
	results := solver.RunMany(sources)
	elapsed := time.Since(start)
	for i, s := range sources {
		reached, maxD := summarize(results[i])
		fmt.Printf("source %-8d reached=%d maxDist=%d\n", s, reached, maxD)
		if certify {
			if err := verify.Distances(rt, g, []int32{s}, results[i]); err != nil {
				fatal(err)
			}
		}
	}
	fmt.Printf("%d simultaneous queries over one shared CH: %v\n", len(sources), elapsed.Round(time.Microsecond))
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

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sssp: %v\n", err)
	os.Exit(1)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sssp: "+format+"\n", args...)
	os.Exit(1)
}
