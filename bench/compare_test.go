package main

import (
	"io"
	"testing"
)

// The fixtures hold one row of each kind: see the comments on want.
func TestCompareVerdictsOnFixtures(t *testing.T) {
	oldF, err := readResultFile("testdata/old.json")
	if err != nil {
		t.Fatal(err)
	}
	newF, err := readResultFile("testdata/new.json")
	if err != nil {
		t.Fatal(err)
	}
	rows, worse := compareFiles(io.Discard, oldF, newF)
	if !worse {
		t.Error("new.json regresses single p50_ms by 40%; compare reported nothing worse")
	}
	want := map[string]string{
		"single/p50_ms":        verdictWorse,      // +40% against a 25% bound, tight runs
		"single/ops_per_s":     verdictOK,         // +30% throughput: every run better than every old run
		"single/p95_ms":        verdictUnresolved, // median inside the bound, spread far wider than it
		"single/setup_s":       verdictOK,         // +2.5% against 25%
		"single/cpu_ms_per_op": verdictOK,
		"single/fail_ratio":    verdictOK,    // 0 and 0
		"churn/write_p50_ms":   verdictOK,    // +5% against 25%
		"churn/fail_ratio":     verdictWorse, // any increase
		"churn/ops_per_s":      verdictOK,    // -0.25%
	}
	got := map[string]string{}
	for _, r := range rows {
		got[r.Workload+"/"+r.Metric] = r.Verdict
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: verdict %q, want %q", k, got[k], v)
		}
	}
	if _, ok := got["single/write_p50_ms"]; ok {
		t.Error("write_p50_ms is a churn-only metric; single must have no such row")
	}
	if _, ok := got["multi/p50_ms"]; ok {
		t.Error("a workload in neither file got a row")
	}
	// A file compared with itself is clean.
	if rows, worse := compareFiles(io.Discard, oldF, oldF); worse {
		t.Errorf("old.json against itself reported a regression: %+v", rows)
	}
}

func TestReadResultFileRejectsOtherJSON(t *testing.T) {
	if _, err := readResultFile("../BENCHMARK.json"); err == nil {
		t.Error("BENCHMARK.json was accepted as a result file")
	}
}
