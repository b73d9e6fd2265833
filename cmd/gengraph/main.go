// Command gengraph emits synthetic benchmark instances in DIMACS .gr format,
// following the paper's families and naming convention.
//
// Usage:
//
//	gengraph -class rand -dist uwd -logn 16 -logc 16 -seed 1 -o rand.gr
//	gengraph -class rmat -dist pwd -logn 14 -logc 2
//	gengraph -class grid -logn 12 -logc 4 -o grid.gr
//	gengraph -class rand -logn 18 -snap rand.snap
//	gengraph -in city.gr -snap city.snap
//
// With no -o the graph is written to stdout. With -snap the Component
// Hierarchy is also built and the (graph, hierarchy) pair written as one
// binary snapshot — the only persisted form of the pair, which ssspd's
// catalog loads an order of magnitude faster than re-parsing text and
// rebuilding the hierarchy, and serves zero-copy via mmap. With -in the graph
// is parsed from a DIMACS .gr file instead of generated (the generator flags
// are then ignored), so -in with -snap is the converter from text to
// snapshot.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/ch"
	"repro/internal/cli"
	"repro/internal/dimacs"
	"repro/internal/graph"
	"repro/internal/snapshot"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "gengraph: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gengraph", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in    = fs.String("in", "", "read the graph from this DIMACS .gr file instead of generating one")
		class = fs.String("class", "rand", "graph family: rand, rmat, grid, geometric, smallworld")
		dist  = fs.String("dist", "uwd", "weight distribution: uwd, pwd")
		logN  = fs.Int("logn", 14, "vertices = 2^logn")
		logC  = fs.Int("logc", 14, "max weight = 2^logc")
		seed  = fs.Uint64("seed", 1, "generator seed")
		out   = fs.String("o", "", "output file (default stdout)")
		snap  = fs.String("snap", "", "also build the hierarchy and write a binary snapshot here")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	pwd := false
	switch strings.ToLower(*dist) {
	case "uwd":
	case "pwd":
		pwd = true
	default:
		return fmt.Errorf("unknown distribution %q", *dist)
	}
	g, name, err := cli.Spec{File: *in, Class: *class, LogN: *logN, LogC: *logC, PWD: pwd, Seed: *seed}.Load()
	if err != nil {
		return err
	}
	// Text output goes to -o, or stdout — unless only a snapshot was asked
	// for, in which case a megabyte text dump on stdout helps nobody.
	if *out != "" || *snap == "" {
		if err := writeText(*out, stdout, g, name); err != nil {
			return err
		}
		dest := *out
		if dest == "" {
			dest = "stdout"
		}
		fmt.Fprintf(stderr, "gengraph: wrote %s to %s: n=%d m=%d weights [%d,%d]\n",
			name, dest, g.NumVertices(), g.NumEdges(), g.MinWeight(), g.MaxWeight())
	}
	if *snap != "" {
		h := ch.BuildKruskal(g)
		if err := snapshot.WriteFile(*snap, g, h); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		fmt.Fprintf(stderr, "gengraph: snapshot %s: CH %d nodes, fingerprint %s\n",
			*snap, h.NumNodes(), g.Fingerprint())
	}
	return nil
}

// writeText writes g in DIMACS form to path, or to stdout when path is empty.
func writeText(path string, stdout io.Writer, g *graph.Graph, name string) error {
	comment := fmt.Sprintf("%s (9th DIMACS Challenge style)", name)
	if path == "" {
		return dimacs.WriteGraph(stdout, g, comment)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dimacs.WriteGraph(f, g, comment); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
