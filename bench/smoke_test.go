package main

import (
	"testing"
	"time"
)

// TestSmoke builds the real daemons and runs all four workloads, oracle on,
// with one-second windows on 2^10-vertex graphs, then a two-source ladder.
// It keeps the whole path — spawn, drive, check, summarize, kill — from
// rotting, in a few seconds; -short skips it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemons; skipped under -short")
	}
	s, err := newSite(18431) // not the default port: a real run may be going on
	if err != nil {
		t.Fatal(err)
	}
	defer stopAll()
	cfg := runConfig{seed: 3, window: time.Second, logBig: 10, logSmall: 10}
	for _, w := range workloads {
		res, err := s.runWorkload(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d requests failed", w.name, res.Failed, res.Attempted)
		}
		for _, m := range contractMetrics {
			if res.Metrics[m.Name] <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", w.name, m.Name, res.Metrics[m.Name])
			}
		}
		if _, ok := res.Metrics["write_p50_ms"]; ok != w.snapshot {
			t.Errorf("%s: write_p50_ms present = %v, want %v", w.name, ok, w.snapshot)
		}
	}

	// A traced window plus the ladder must yield every registered per-layer
	// metric, as a --trace 1 contract run prints them.
	res, err := s.runWorkload(workloads[0], traced(cfg))
	if err != nil {
		t.Fatal(err)
	}
	lad, err := s.runLadder(cfg.seed, 2, cfg.logBig, cfg.logSmall)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range layerMetrics {
		_, fromWindow := res.Layers[m.Name]
		_, fromLadder := lad.Values[m.Name]
		if !fromWindow && !fromLadder {
			t.Errorf("per-layer metric %s was not produced", m.Name)
		}
	}
	if len(live) != 0 {
		t.Errorf("%d daemons still running after the runs returned", len(live))
	}
}
