// Command costfit fits the learned cost model from a ssspd training
// dataset and generates capacity-planning tables from the result.
//
// Fit mode (default) consumes the JSON-lines dataset exported by
// GET /debug/costmodel/dataset — one executed solve per line, with the
// instance features and the measured duration — and fits one ridge
// regression per solver over the shared feature basis
// (costmodel.FeatureNames). The output is the versioned, checksummed
// coefficients file ssspd loads with -cost-model or hot-swaps with
// POST /debug/costmodel/reload:
//
//	curl -s http://host:8080/debug/costmodel/dataset > dataset.jsonl
//	costfit -dataset dataset.jsonl -out model.json
//	curl -s -X POST http://host:8080/debug/costmodel/reload -d '{"path":"model.json"}'
//
// After fitting, per-solver training error (MAE and median absolute
// percentage error) is printed so a regression in model quality is visible
// before the file ever reaches a daemon.
//
// Capacity mode (-capacity) renders a markdown table from an existing
// coefficients file instead of fitting: for a grid of instance sizes it
// prints every solver's predicted cost, the cheapest solver, and the
// single-worker and fleet throughput that prediction implies. The capacity
// tables in OPERATIONS.md §6 are generated this way — from measured
// coefficients, not hand-waved constants:
//
//	costfit -capacity -model model.json -workers 8 -timeout 30s
//
// The grid is controlled by -min-logn/-max-logn (n = 2^logn), -degree
// (m = degree·n), -logc (max weight 2^logc), and -sources. Every solver in
// the model file gets a column, but bfs — which only answers unit-weight
// graphs — is excluded from the best/throughput columns on weighted grids.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/costmodel"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "costfit: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("costfit", flag.ContinueOnError)
	var (
		dataset   = fs.String("dataset", "-", "JSON-lines training dataset (/debug/costmodel/dataset export); - reads stdin")
		out       = fs.String("out", "costmodel.json", "output coefficients file (fit mode)")
		ridge     = fs.Float64("ridge", 0, "ridge regularization strength (0 = default)")
		trainedAt = fs.String("trained-at", "", "timestamp to stamp into the file (default: now, RFC 3339)")
		capacity  = fs.Bool("capacity", false, "capacity mode: render markdown throughput tables from -model instead of fitting")
		model     = fs.String("model", "", "coefficients file to plan capacity from (capacity mode)")
		workers   = fs.Int("workers", 8, "fleet size for the capacity table's aggregate-throughput column")
		timeout   = fs.Duration("timeout", 30*time.Second, "per-query deadline the capacity table checks predictions against")
		headroom  = fs.Float64("admit-headroom", 0.8, "predictive-admission headroom factor used for the table's admitted/shed column")
		minLogN   = fs.Int("min-logn", 12, "capacity grid: smallest instance, n = 2^min-logn")
		maxLogN   = fs.Int("max-logn", 20, "capacity grid: largest instance, n = 2^max-logn")
		degree    = fs.Int("degree", 4, "capacity grid: edges per vertex (m = degree*n)")
		logC      = fs.Int("logc", 14, "capacity grid: max edge weight 2^logc")
		sources   = fs.Int("sources", 1, "capacity grid: sources per query")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *capacity {
		if *model == "" {
			return fmt.Errorf("capacity mode needs -model")
		}
		f, err := costmodel.ReadFile(*model)
		if err != nil {
			return err
		}
		return writeCapacity(stdout, costmodel.NewModel(f), capacityPlan{
			workers: *workers, timeout: *timeout, headroom: *headroom,
			minLogN: *minLogN, maxLogN: *maxLogN, degree: *degree, logC: *logC, sources: *sources,
		})
	}
	return fit(stdout, *dataset, *out, *ridge, *trainedAt)
}

func fit(stdout io.Writer, dataset, out string, ridge float64, trainedAt string) error {
	var r io.Reader = os.Stdin
	if dataset != "-" {
		fh, err := os.Open(dataset)
		if err != nil {
			return err
		}
		defer fh.Close()
		r = fh
	}
	samples, err := costmodel.ReadSamples(r)
	if err != nil {
		return err
	}
	if len(samples) == 0 {
		return fmt.Errorf("dataset is empty")
	}
	f, err := costmodel.Fit(samples, ridge)
	if err != nil {
		return err
	}
	if trainedAt == "" {
		trainedAt = time.Now().UTC().Format(time.RFC3339)
	}
	f.TrainedAt = trainedAt
	b, err := f.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		return err
	}
	// Round-trip through the exact load path the daemon uses: a file this
	// binary cannot re-read must never be shipped.
	if _, err := costmodel.ReadFile(out); err != nil {
		return fmt.Errorf("self-check failed on %s: %w", out, err)
	}
	fmt.Fprintf(stdout, "wrote %s: %d solvers from %d samples (%d usable)\n",
		out, len(f.Solvers), len(samples), f.TotalSamples)
	reportErrors(stdout, costmodel.NewModel(f), samples)
	return nil
}

// reportErrors prints per-solver training error: mean absolute error and
// the median absolute percentage error, which together catch both a bad fit
// and a fit dominated by a few huge queries.
func reportErrors(stdout io.Writer, m *costmodel.Model, samples []costmodel.Sample) {
	type agg struct {
		absSum float64
		pct    []float64
		n      int
	}
	by := make(map[string]*agg)
	for _, s := range samples {
		if s.DurUS <= 0 {
			continue
		}
		pred, ok := m.PredictFor(s.Graph, s.Solver, s.Features)
		if !ok {
			continue
		}
		a := by[s.Solver]
		if a == nil {
			a = &agg{}
			by[s.Solver] = a
		}
		errUS := math.Abs(float64(pred.Microseconds()) - float64(s.DurUS))
		a.absSum += errUS
		a.pct = append(a.pct, errUS/float64(s.DurUS))
		a.n++
	}
	names := make([]string, 0, len(by))
	for name := range by {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := by[name]
		sort.Float64s(a.pct)
		fmt.Fprintf(stdout, "  %-14s n=%-6d mae=%.0fus  medape=%.1f%%\n",
			name, a.n, a.absSum/float64(a.n), 100*a.pct[len(a.pct)/2])
	}
}

type capacityPlan struct {
	workers  int
	timeout  time.Duration
	headroom float64
	minLogN  int
	maxLogN  int
	degree   int
	logC     int
	sources  int
}

// writeCapacity renders the capacity table: one row per instance size, one
// predicted-cost column per solver in the model, then the cheapest solver
// and the throughput its prediction implies.
func writeCapacity(w io.Writer, m *costmodel.Model, p capacityPlan) error {
	if p.minLogN > p.maxLogN {
		return fmt.Errorf("min-logn %d > max-logn %d", p.minLogN, p.maxLogN)
	}
	if p.workers < 1 {
		p.workers = 1
	}
	file := m.File()
	fmt.Fprintf(w, "Capacity plan: model v%d (trained %s, %d samples), %d sources/query, m = %d·n, C = 2^%d.\n",
		file.Version, orDash(file.TrainedAt), file.TotalSamples, p.sources, p.degree, p.logC)
	limit := time.Duration(float64(p.timeout) * p.headroom)
	fmt.Fprintf(w, "Deadline %s, admission headroom %.2f (predictions over %s are shed with 503).\n\n",
		p.timeout, p.headroom, limit.Round(time.Millisecond))

	solvers := m.Solvers()
	fmt.Fprint(w, "| n | m |")
	for _, s := range solvers {
		fmt.Fprintf(w, " %s |", s)
	}
	fmt.Fprintf(w, " best | QPS/worker | QPS@%d | admitted |\n", p.workers)
	fmt.Fprint(w, "|---|---|")
	for range solvers {
		fmt.Fprint(w, "---|")
	}
	fmt.Fprint(w, "---|---|---|---|\n")

	for logN := p.minLogN; logN <= p.maxLogN; logN++ {
		n := 1 << logN
		f := costmodel.Features{
			N:         n,
			M:         int64(n) * int64(p.degree),
			MaxWeight: uint32(1) << p.logC,
			Sources:   p.sources,
		}
		fmt.Fprintf(w, "| 2^%d | %s |", logN, humanCount(f.M))
		best, bestCost := "", time.Duration(0)
		for _, s := range solvers {
			cost, ok := m.Predict(s, f)
			if !ok {
				fmt.Fprint(w, " — |")
				continue
			}
			fmt.Fprintf(w, " %s |", humanDur(cost))
			if s == "bfs" && f.MaxWeight > 1 {
				continue // bfs only answers unit-weight graphs; price it, don't pick it
			}
			if best == "" || cost < bestCost {
				best, bestCost = s, cost
			}
		}
		if best == "" {
			fmt.Fprint(w, " — | — | — | — |\n")
			continue
		}
		perWorker := 0.0
		if us := bestCost.Microseconds(); us > 0 {
			perWorker = 1e6 / float64(us)
		}
		admitted := "yes"
		if limit > 0 && bestCost > limit {
			admitted = "shed"
		}
		fmt.Fprintf(w, " %s | %.1f | %.1f | %s |\n", best, perWorker, perWorker*float64(p.workers), admitted)
	}
	fmt.Fprint(w, "\nPredictions are per-solver regressions priced at the grid point; the bfs\n")
	fmt.Fprint(w, "column is shown but excluded from `best` on weighted grids (-logc >= 1),\n")
	fmt.Fprint(w, "since bfs only answers unit-weight graphs.\n")
	return nil
}

func orDash(s string) string {
	if s == "" {
		return "—"
	}
	return s
}

func humanDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1e3)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

func humanCount(m int64) string {
	switch {
	case m >= 1<<20:
		return fmt.Sprintf("%.1fM", float64(m)/float64(1<<20))
	case m >= 1<<10:
		return fmt.Sprintf("%.1fK", float64(m)/float64(1<<10))
	default:
		return fmt.Sprintf("%d", m)
	}
}
