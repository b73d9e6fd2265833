// Command bench is the repository's benchmark: four solve-to-serve workloads
// driven against real ssspd daemons over loopback, end-to-end metrics with
// regression bounds, and a per-layer ladder measured on the same instances.
// README.md in this directory has the tables and the reasoning.
//
//	bash bench/run.sh --workload single --seed 1 --seconds 20 --trace 0   one run, BENCHMARK.json's contract
//	go -C bench run .                      full run: every workload, then the ladder
//	go -C bench run . -ladder              the per-layer ladder alone
//	go -C bench run . -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// Ladder sizes: 32 seeded sources for a full ladder; a traced contract run
// has to fit a workload window and the ladder into one run's time budget.
const (
	ladderIDs       = 32
	tracedLadderIDs = 6
)

func main() { os.Exit(run()) }

// fail reports err and yields the exit code.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print the contract's JSON line (single, multi, batch, churn)")
		seed         = flag.Uint64("seed", 1, "seed for the graphs and every source, target and delta")
		seconds      = flag.Int("seconds", 20, "length of the timed window")
		traceOn      = flag.Int("trace", 0, "with -workload: 1 runs the traced variant and prints the per-layer metrics")
		ladderOnly   = flag.Bool("ladder", false, "run the per-layer ladder alone")
		compare      = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		out          = flag.String("out", "", "full run: result file (default bench/out/result.json)")
		port         = flag.Int("port", 18411, "first of six consecutive loopback ports the daemons listen on")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		oldF, err := readResultFile(flag.Arg(0))
		if err != nil {
			return fail(err)
		}
		newF, err := readResultFile(flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if _, worse := compareFiles(os.Stdout, oldF, newF); worse {
			return 1
		}
		return 0
	}
	if *seconds < 1 {
		return fail(fmt.Errorf("-seconds must be at least 1"))
	}

	// Daemons die with the benchmark on every path: a normal return and an
	// error both pass through the deferred stopAll, a signal through the
	// handler, and a SIGKILL of this process through Pdeathsig.
	defer stopAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(130)
	}()

	s, err := newSite(*port)
	if err != nil {
		return fail(err)
	}
	cfg := runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second, logBig: defaultLogBig, logSmall: defaultLogSmall}

	switch {
	case *ladderOnly:
		lad, err := s.runLadder(*seed, ladderIDs, cfg.logBig, cfg.logSmall)
		if err != nil {
			return fail(err)
		}
		printLayers("ladder", lad.Values, lad.Samples)
		if err := writeJSONFile(filepath.Join(s.out, "ladder-trace.json"), lad.spans); err != nil {
			return fail(err)
		}
		return 0
	case *workloadName != "":
		w, ok := workloadByName(*workloadName)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *workloadName))
		}
		return s.contractRun(w, cfg, *traceOn == 1)
	}
	return s.fullRun(cfg, *seconds, *out)
}

// tracedWindow is the share of the window a traced run drives the workload
// for; the rest of its time goes to the ladder.
const tracedWindow = 0.4

func traced(cfg runConfig) runConfig {
	cfg.trace = true
	cfg.window = time.Duration(float64(cfg.window) * tracedWindow)
	return cfg
}

// contractLine is the last line of standard output of a contract run.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractRun is one run of one workload under BENCHMARK.json's contract:
// the end-to-end metrics untraced, or every per-layer metric traced.
func (s *site) contractRun(w workload, cfg runConfig, withTrace bool) int {
	line := contractLine{Metrics: map[string]contractMetric{}}
	if withTrace {
		cfg = traced(cfg)
	}
	res, err := s.runWorkload(w, cfg)
	if err != nil {
		return fail(err)
	}
	printRun(w.name, res)
	printLayers(w.name, res.Layers, nil)
	line.Attempted, line.Failed, line.Correct = res.Attempted, res.Failed, res.Failed == 0
	if !withTrace {
		for _, m := range contractMetrics {
			line.Metrics[m.Name] = contractMetric{res.Metrics[m.Name], m.Unit}
		}
	} else {
		lad, err := s.runLadder(cfg.seed, tracedLadderIDs, cfg.logBig, cfg.logSmall)
		if err != nil {
			return fail(err)
		}
		printLayers("ladder", lad.Values, lad.Samples)
		if err := writeJSONFile(filepath.Join(s.out, w.name+"-trace.json"), append(res.spans, lad.spans...)); err != nil {
			return fail(err)
		}
		for _, m := range layerMetrics {
			v, ok := res.Layers[m.Name]
			if !ok {
				v = lad.Values[m.Name]
			}
			line.Metrics[m.Name] = contractMetric{v, m.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(data))
	if !line.Correct {
		return 1
	}
	return 0
}

// fullRuns is how many timed runs of each workload a full run makes, on seeds
// seed, seed+1, ...: enough for -compare to tell a run-to-run spread.
const fullRuns = 5

// fullRun measures every workload fullRuns times untraced and once traced,
// then the full ladder, prints every metric and writes the result file.
func (s *site) fullRun(cfg runConfig, seconds int, out string) int {
	if out == "" {
		out = filepath.Join(s.out, "result.json")
	}
	file := &resultFile{Schema: 1, Env: newEnvelope(s.root, cfg.seed, seconds), Workloads: map[string]*workloadRes{}}
	failed := 0
	var spans []span
	for _, w := range workloads {
		wr := &workloadRes{}
		file.Workloads[w.name] = wr
		for i := 0; i < fullRuns; i++ {
			c := cfg
			c.seed += uint64(i)
			res, err := s.runWorkload(w, c)
			if err != nil {
				return fail(err)
			}
			fmt.Printf("# %s run %d/%d (seed %d)\n", w.name, i+1, fullRuns, c.seed)
			printRun(w.name, res)
			failed += res.Failed
			wr.Runs = append(wr.Runs, res)
		}
		res, err := s.runWorkload(w, traced(cfg))
		if err != nil {
			return fail(err)
		}
		fmt.Printf("# %s traced run\n", w.name)
		printLayers(w.name, res.Layers, nil)
		failed += res.Failed
		wr.Traced = res
		spans = append(spans, res.spans...)
	}
	lad, err := s.runLadder(cfg.seed, ladderIDs, cfg.logBig, cfg.logSmall)
	if err != nil {
		return fail(err)
	}
	file.Ladder = lad
	fmt.Println("# ladder")
	printLayers("ladder", lad.Values, lad.Samples)

	fmt.Println("# medians over the timed runs")
	for _, w := range workloads {
		for _, m := range endToEnd {
			if vs := file.Workloads[w.name].values(m.Name); len(vs) > 0 {
				fmt.Printf("%-7s %-14s %12.4f %-5s runs=%d spread=%.1f%% bound=%.0f%%\n",
					w.name, m.Name, median(vs), m.Unit, len(vs), 100*spread(vs), 100*m.Bound)
			}
		}
	}
	if err := writeJSONFile(filepath.Join(s.out, "ladder-trace.json"), append(spans, lad.spans...)); err != nil {
		return fail(err)
	}
	if err := writeJSONFile(out, file); err != nil {
		return fail(err)
	}
	fmt.Println("# wrote", out)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d requests failed or were answered wrongly\n", failed)
		return 1
	}
	return 0
}
