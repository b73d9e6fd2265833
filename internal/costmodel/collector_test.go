package costmodel

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorRing(t *testing.T) {
	c := NewCollector(4)
	if c.Len() != 0 || c.Total() != 0 {
		t.Fatal("fresh collector not empty")
	}
	for i := 1; i <= 6; i++ {
		c.Add(Sample{Solver: "dijkstra", Features: Features{N: i}, DurUS: int64(i)})
	}
	if c.Len() != 4 || c.Total() != 6 {
		t.Fatalf("len=%d total=%d", c.Len(), c.Total())
	}
	snap := c.Snapshot()
	for i, s := range snap {
		if s.N != i+3 {
			t.Fatalf("snapshot not oldest-first: %+v", snap)
		}
		if s.V != DatasetVersion {
			t.Fatalf("sample missing dataset version: %+v", s)
		}
	}
}

func TestDatasetRoundTrip(t *testing.T) {
	c := NewCollector(16)
	c.Add(Sample{Graph: "g", Gen: 3, Solver: "delta", Features: Features{N: 100, M: 400, MaxWeight: 255, Sources: 2},
		DurUS: 1234, Counters: map[string]int64{"relaxations": 800}})
	c.Add(Sample{Graph: "g", Gen: 3, Solver: "bfs", Features: Features{N: 100, M: 400, MaxWeight: 1, Sources: 1}, DurUS: 77})
	var buf bytes.Buffer
	n, err := c.WriteJSONL(&buf)
	if err != nil || n != 2 {
		t.Fatalf("WriteJSONL n=%d err=%v", n, err)
	}
	got, err := ReadSamples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Counters["relaxations"] != 800 || got[1].Solver != "bfs" {
		t.Fatalf("round trip: %+v", got)
	}
	if f := got[0].Features; f != (Features{N: 100, M: 400, MaxWeight: 255, Sources: 2}) {
		t.Fatalf("features did not round-trip: %+v", f)
	}
	// The embedded Features must flatten into the version-1 line layout.
	line, _ := json.Marshal(got[0])
	const want = `{"v":1,"graph":"g","gen":3,"solver":"delta","n":100,"m":400,"max_weight":255,"sources":2,"dur_us":1234,"counters":{"relaxations":800}}`
	if string(line) != want {
		t.Fatalf("dataset line:\n got %s\nwant %s", line, want)
	}
}

func TestReadSamplesRefusals(t *testing.T) {
	if _, err := ReadSamples(strings.NewReader(`{"v":1,"solver":"x","dur_us":1}` + "\n\n")); err != nil {
		t.Fatalf("blank lines should be fine: %v", err)
	}
	if _, err := ReadSamples(strings.NewReader(`{"v":99,"solver":"x"}`)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future dataset version accepted: %v", err)
	}
	if _, err := ReadSamples(strings.NewReader(`{"v":1}`)); err == nil || !strings.Contains(err.Error(), "solver") {
		t.Fatalf("missing solver accepted: %v", err)
	}
	if _, err := ReadSamples(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}
