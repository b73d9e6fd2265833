package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// envelope says where and on what a result was measured; every result file
// carries one, so two files can be told apart before their numbers are.
type envelope struct {
	Commit     string    `json:"commit"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NProc      int       `json:"nproc"`
	CPUModel   string    `json:"cpu_model"`
	Seed       uint64    `json:"seed"`
	Seconds    int       `json:"window_seconds"`
	Started    time.Time `json:"started"`
}

func newEnvelope(root string, seed uint64, seconds int) envelope {
	e := envelope{
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), CPUModel: "unknown", Seed: seed, Seconds: seconds, Started: time.Now().UTC(),
	}
	// A driver's checkout is not a git repository; "unknown" is the answer there.
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// resultFile is what a full run writes and -compare reads.
type resultFile struct {
	Schema    int                     `json:"schema"`
	Env       envelope                `json:"env"`
	Workloads map[string]*workloadRes `json:"workloads"`
	Ladder    *ladderResult           `json:"ladder,omitempty"`
}

// workloadRes is every run of one workload: Runs are the timed, untraced
// ones the end-to-end metrics come from; Traced is the one traced run whose
// window yields that workload's per-layer metrics.
type workloadRes struct {
	Runs   []*runResult `json:"runs"`
	Traced *runResult   `json:"traced,omitempty"`
}

// values returns one value per run of an end-to-end metric, skipping runs
// that do not report it (write_p50_ms outside churn).
func (w *workloadRes) values(metric string) []float64 {
	var out []float64
	for _, r := range w.Runs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != 1 || len(f.Workloads) == 0 {
		return nil, fmt.Errorf("%s: not a bench result file (schema %d, %d workloads)", path, f.Schema, len(f.Workloads))
	}
	return &f, nil
}

// printRun prints one run's end-to-end metrics, one per line, by name with
// unit and sample count; a duration also shows what the wall clock read.
func printRun(name string, r *runResult) {
	for _, m := range endToEnd {
		v, ok := r.Metrics[m.Name]
		if !ok {
			continue
		}
		fmt.Printf("%-7s %-14s %12.4f %-5s n=%d", name, m.Name, v, m.Unit, r.Samples[m.Name])
		if raw, ok := r.Raw[m.Name]; ok {
			fmt.Printf("  (wall clock %.4f)", raw)
		}
		fmt.Println()
	}
	for _, note := range r.Notes {
		fmt.Printf("%-7s note: %s\n", name, note)
	}
}

// printLayers prints per-layer values in table order, then any extra ones
// (diagnostics the ladder records beside the registered metrics).
func printLayers(prefix string, values map[string]float64, samples map[string]int) {
	seen := map[string]bool{}
	line := func(name string) {
		n := 1
		if samples != nil {
			n = samples[name]
		}
		fmt.Printf("%-7s %-34s %14.4f %-5s n=%d\n", prefix, name, values[name], unitOf(name), n)
	}
	for _, m := range layerMetrics {
		if _, ok := values[m.Name]; ok {
			seen[m.Name] = true
			line(m.Name)
		}
	}
	var extra []string
	for name := range values {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		line(name)
	}
}
