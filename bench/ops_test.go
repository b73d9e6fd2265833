package main

import (
	"strings"
	"testing"

	"repro/internal/ch"
	"repro/internal/mutate"
)

// sequence renders the first n requests of every client of a workload.
func sequence(t *testing.T, w workload, seed uint64, n int) string {
	t.Helper()
	var sources []opSource
	if w.snapshot {
		sources = []opSource{newChurnSource(randomGraph(10, seed), "rand10.snap", seed)}
	} else {
		sources = newStrideSources(w.name, 1<<10, w.clients, seed)
	}
	var b strings.Builder
	for _, src := range sources {
		for i := 0; i < n; i++ {
			b.WriteString(src.next().line())
		}
	}
	return b.String()
}

// The seed alone fixes every request: same seed, byte-identical sequence.
func TestSameSeedSameOps(t *testing.T) {
	for _, w := range workloads {
		a, b := sequence(t, w, 7, 1200), sequence(t, w, 7, 1200)
		if a != b {
			t.Errorf("%s: two sequences from seed 7 differ", w.name)
		}
		if c := sequence(t, w, 8, 1200); c == a {
			t.Errorf("%s: seeds 7 and 8 give the same sequence", w.name)
		}
	}
}

// The read-only workloads are cache-hostile: no source repeats.
func TestStrideSourcesNeverRepeat(t *testing.T) {
	for _, kind := range []string{"single", "multi", "batch"} {
		seen := map[int32]bool{}
		sources := newStrideSources(kind, 1<<12, 2, 3)
		for i := 0; i < 100; i++ {
			for _, src := range sources {
				for _, item := range src.next().items {
					for _, v := range item {
						if seen[v] {
							t.Fatalf("%s: source %d used twice", kind, v)
						}
						seen[v] = true
					}
				}
			}
		}
	}
}

// Every generated mutation must be valid against the graph all earlier ones
// left, and take the repair path the workload table says: three additive
// batches to one general.
func TestChurnWritesAreValidAndCycle(t *testing.T) {
	g := randomGraph(10, 5)
	src := newChurnSource(g, "rand10.snap", 5)
	h := ch.BuildKruskal(g)
	writes, reads := 0, 0
	for writes < 12 {
		o := src.next()
		if o.delta == nil {
			reads++
			continue
		}
		writes++
		if reads != writes*readsPerWrite {
			t.Fatalf("write %d came after %d reads, want %d", writes, reads, writes*readsPerWrite)
		}
		if len(o.delta.Ops) != opsPerWrite {
			t.Fatalf("write %d has %d ops, want %d", writes, len(o.delta.Ops), opsPerWrite)
		}
		res, err := mutate.Mutate(g, h, o.delta, mutate.Options{})
		if err != nil {
			t.Fatalf("write %d invalid against the current graph: %v", writes, err)
		}
		if res.Fallback {
			t.Fatalf("write %d fell back to a rebuild", writes)
		}
		if wantGeneral := writes%4 == 0; res.Additive == wantGeneral {
			t.Errorf("write %d: additive=%v, want general=%v", writes, res.Additive, wantGeneral)
		}
		g, h = res.G, res.H
	}
}
