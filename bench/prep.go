package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/ch"
	"repro/internal/dimacs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/snapshot"
)

// site is where one benchmark process works: the repository it measures, the
// daemons it built from it, and a scratch directory the daemons run in.
type site struct {
	root   string // repository root (module repro)
	out    string // bench/out: result files and traces
	work   string // bench/out/work: graph files, daemon logs; the daemons' cwd
	ssspd  string
	ssspr  string
	port   int     // first of six consecutive loopback ports
	buildS float64 // seconds spent building the daemons
}

// hardTimeout caps one daemon start and one group of ladder rungs; a
// workload's deadline is built from it. Nothing here should take a tenth of it.
const hardTimeout = 60 * time.Second

// findRoot walks up from the working directory to the directory whose go.mod
// declares module repro: the benchmark runs both from the root (run.sh) and
// from bench/ (go -C bench run .).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			first, _, _ := strings.Cut(string(data), "\n")
			if strings.TrimSpace(first) == "module repro" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod declaring module repro above the working directory: run from the repository")
		}
		dir = parent
	}
}

// newSite runs the pre-flight checks and builds the daemons.
func newSite(port int) (*site, error) {
	s := &site{port: port}
	if runtime.NumCPU() < 2 {
		return nil, fmt.Errorf("pre-flight: %d CPU; the workloads need 2 (two closed-loop clients against a parallel solver)", runtime.NumCPU())
	}
	for i := 0; i < 6; i++ {
		if addr := s.addr(i); !portFree(addr) {
			return nil, fmt.Errorf("pre-flight: %s is taken (a daemon left over from an earlier run? pick another -port)", addr)
		}
	}
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	s.root = root
	s.out = filepath.Join(root, "bench", "out")
	s.work = filepath.Join(s.out, "work")
	bin := filepath.Join(s.out, "bin")
	for _, d := range []string{s.work, bin} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	s.ssspd, s.ssspr = filepath.Join(bin, "ssspd"), filepath.Join(bin, "ssspr")
	t0 := time.Now()
	// One go build for both: the toolchain relinks only what is stale, so a
	// second run in the same checkout pays a fraction of a second here.
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/ssspd", "./cmd/ssspr")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/ssspd ./cmd/ssspr: %v\n%s", err, out)
	}
	s.buildS = time.Since(t0).Seconds()
	return s, nil
}

func (s *site) addr(i int) string { return fmt.Sprintf("127.0.0.1:%d", s.port+i) }

// instance is one generated graph together with the file a daemon boots from.
type instance struct {
	g    *graph.Graph
	h    *ch.Hierarchy // built only for snapshot instances
	file string        // name relative to the work directory; also the graph's catalog name
}

// randomGraph is the paper's Rand-UWD family at m = 4n, C = n.
func randomGraph(logn int, seed uint64) *graph.Graph {
	n := 1 << logn
	return gen.Random(n, 4*n, uint32(n), gen.UWD, seed)
}

// textInstance generates the graph and writes it as DIMACS text: a daemon
// started on it parses the file and builds the hierarchy.
func (s *site) textInstance(logn int, seed uint64) (*instance, error) {
	in := &instance{g: randomGraph(logn, seed), file: fmt.Sprintf("rand%d.gr", logn)}
	f, err := os.Create(filepath.Join(s.work, in.file))
	if err != nil {
		return nil, err
	}
	if err := dimacs.WriteGraph(f, in.g, fmt.Sprintf("bench seed %d", seed)); err != nil { // buffers and flushes itself
		f.Close()
		return nil, err
	}
	return in, f.Close()
}

// snapInstance generates the graph, builds its hierarchy and writes both as a
// v2 snapshot: a daemon started on it maps the file.
func (s *site) snapInstance(logn int, seed uint64) (*instance, error) {
	g := randomGraph(logn, seed)
	in := &instance{g: g, h: ch.BuildKruskal(g), file: fmt.Sprintf("rand%d.snap", logn)}
	return in, snapshot.WriteFile(filepath.Join(s.work, in.file), in.g, in.h)
}
