package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/costmodel"
)

// writeDataset renders samples as the JSON-lines export the daemon serves.
func writeDataset(t *testing.T, samples []costmodel.Sample) string {
	t.Helper()
	var buf bytes.Buffer
	for _, s := range samples {
		s.V = costmodel.DatasetVersion
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "dataset.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// synthetic generates samples whose durations follow a known linear law, so
// the end-to-end fit is checkable.
func synthetic() []costmodel.Sample {
	var out []costmodel.Sample
	for i := 0; i < 32; i++ {
		n := 512 + 256*i
		m := int64(4 * n)
		srcs := 1 + i%4
		// dijkstra: 100 + 0.01·s·m µs; thorup: 3000 + 0.05·m µs.
		out = append(out, costmodel.Sample{
			Solver:   "dijkstra",
			Features: costmodel.Features{N: n, M: m, MaxWeight: 1 << 10, Sources: srcs},
			DurUS:    int64(100 + 0.01*float64(srcs)*float64(m)),
		})
		out = append(out, costmodel.Sample{
			Solver:   "thorup",
			Features: costmodel.Features{N: n, M: m, MaxWeight: 1 << 10, Sources: srcs},
			DurUS:    int64(3000 + 0.05*float64(m)),
		})
	}
	return out
}

// The fit pipeline end to end: dataset file in, sealed coefficients file
// out, loadable by the same reader the daemon uses, with sane predictions.
func TestFitRoundTrip(t *testing.T) {
	dataset := writeDataset(t, synthetic())
	out := filepath.Join(t.TempDir(), "model.json")
	var stdout bytes.Buffer
	err := run([]string{"-dataset", dataset, "-out", out, "-trained-at", "2026-08-07T00:00:00Z"}, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "2 solvers") {
		t.Fatalf("stdout: %s", stdout.String())
	}
	f, err := costmodel.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if f.TrainedAt != "2026-08-07T00:00:00Z" || len(f.Solvers) != 2 {
		t.Fatalf("file: %+v", f)
	}
	m := costmodel.NewModel(f)
	// At s·m = 8·4096 the truth is 100+327.68µs ≈ 428µs; allow 10%.
	pred, ok := m.Predict("dijkstra", costmodel.Features{N: 1024, M: 4096, MaxWeight: 1 << 10, Sources: 8})
	if !ok {
		t.Fatal("no dijkstra prediction")
	}
	if us := float64(pred.Microseconds()); us < 385 || us > 470 {
		t.Fatalf("dijkstra prediction %v outside 10%% of 428µs", pred)
	}
}

// Capacity mode renders a markdown table with a row per grid size and a
// throughput column sized to -workers.
func TestCapacityTable(t *testing.T) {
	dataset := writeDataset(t, synthetic())
	dir := t.TempDir()
	model := filepath.Join(dir, "model.json")
	if err := run([]string{"-dataset", dataset, "-out", model}, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-capacity", "-model", model, "-workers", "16",
		"-min-logn", "12", "-max-logn", "14", "-timeout", "1s"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"| n | m |", "QPS@16", "| 2^12 |", "| 2^14 |", "dijkstra", "thorup"} {
		if !strings.Contains(got, want) {
			t.Fatalf("capacity output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "| 2^15 |") {
		t.Fatal("grid exceeded -max-logn")
	}
}

// A dataset from a different schema version is refused, not silently
// misfitted.
func TestFitRefusesWrongDatasetVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	line := fmt.Sprintf(`{"v":%d,"solver":"dijkstra","n":10,"m":40,"max_weight":4,"sources":1,"dur_us":50}`,
		costmodel.DatasetVersion+1)
	if err := os.WriteFile(path, []byte(line+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-dataset", path, "-out", filepath.Join(t.TempDir(), "m.json")}, new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("err = %v, want dataset version refusal", err)
	}
}
