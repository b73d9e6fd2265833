package catalog

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/ch"
	"repro/internal/dimacs"
	"repro/internal/gen"
	"repro/internal/snapshot"
)

// TestWriteCatalogBenchJSON emits BENCH_catalog.json when BENCH_CATALOG_OUT
// is set (see `make bench-catalog`): the ladder of graph-activation costs a
// catalog can pay — text parse plus hierarchy build, snapshot copy load,
// cold mmap (first map of a file: full verification), warm mmap (re-map of a
// verified file: O(1)). A text activation serves after the parse alone and
// builds a hierarchy only when a query demands one; text_load_ns stays the sum
// of the two, the work a snapshot saves. Gates: a snapshot copy load is faster
// than that sum (>= 2x), and warm mmap >= 50x over the copy load.
func TestWriteCatalogBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_CATALOG_OUT")
	if out == "" {
		t.Skip("set BENCH_CATALOG_OUT=path to write the catalog benchmark JSON")
	}

	dir := t.TempDir()
	g := gen.Random(1<<15, 1<<17, 1<<10, gen.UWD, 42)
	h := ch.BuildKruskal(g)

	grPath := filepath.Join(dir, "g.gr")
	f, err := os.Create(grPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := dimacs.WriteGraph(f, g, "bench instance"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "g.snap")
	if err := snapshot.WriteFile(snapPath, g, h); err != nil {
		t.Fatal(err)
	}

	avg := func(reps int, fn func()) time.Duration {
		var total time.Duration
		for i := 0; i < reps; i++ {
			start := time.Now()
			fn()
			total += time.Since(start)
		}
		return total / time.Duration(reps)
	}

	// The work of a text activation: parse DIMACS (what the first answer
	// waits for), then build the Component Hierarchy (the first Thorup query).
	textLoad := avg(3, func() {
		rf, err := os.Open(grPath)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := dimacs.ReadGraph(rf)
		rf.Close()
		if err != nil {
			t.Fatal(err)
		}
		ch.BuildKruskal(g2)
	})
	snapLoad := avg(10, func() {
		if _, _, err := snapshot.ReadFile(snapPath); err != nil {
			t.Fatal(err)
		}
	})

	// Cold mmap: the first Map of a never-seen file pays full CRC
	// verification and a deep hierarchy check. Each rep copies the snapshot
	// to a fresh path (new inode) so none of them hits the verification
	// registry.
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	coldIdx := 0
	mmapCold := avg(5, func() {
		coldIdx++
		p := filepath.Join(dir, "cold", "g"+string(rune('0'+coldIdx))+".snap")
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, m, err := snapshot.Map(p)
		if err != nil {
			t.Skipf("mmap unavailable: %v", err)
		}
		m.Close()
	})
	// Prime the registry, then time the warm path the serving system
	// actually pays on every reload/evict-restore of an unchanged file.
	if _, _, m, err := snapshot.Map(snapPath); err != nil {
		t.Skipf("mmap unavailable: %v", err)
	} else {
		m.Close()
	}
	var mappings []*snapshot.Mapping
	mmapWarm := avg(20, func() {
		_, _, m, err := snapshot.Map(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		mappings = append(mappings, m) // Close outside the clock
	})
	for _, m := range mappings {
		m.Close()
	}

	grInfo, _ := os.Stat(grPath)
	snapInfo, _ := os.Stat(snapPath)
	speedup := float64(textLoad) / float64(snapLoad)
	mmapSpeedup := float64(snapLoad) / float64(mmapWarm)
	doc := map[string]any{
		"vertices":             g.NumVertices(),
		"edges":                g.NumEdges(),
		"gr_bytes":             grInfo.Size(),
		"snapshot_bytes":       snapInfo.Size(),
		"text_load_ns":         textLoad.Nanoseconds(),
		"snapshot_load_ns":     snapLoad.Nanoseconds(),
		"snapshot_speedup":     speedup,
		"mmap_first_load_ns":   mmapCold.Nanoseconds(),
		"mmap_load_ns":         mmapWarm.Nanoseconds(),
		"mmap_speedup_vs_copy": mmapSpeedup,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: loads text %s / copy %s / mmap cold %s / mmap warm %s (copy %.1fx vs text, mmap %.0fx vs copy)",
		out, textLoad, snapLoad, mmapCold, mmapWarm, speedup, mmapSpeedup)
	if speedup < 2 {
		t.Errorf("snapshot load speedup %.1fx, want >= 2x over text parse + CH build", speedup)
	}
	if mmapSpeedup < 50 {
		t.Errorf("warm mmap load speedup %.1fx over copy load, want >= 50x", mmapSpeedup)
	}
}
