package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of one workload × metric row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareRow is one line of the regression diff.
type compareRow struct {
	Workload, Metric, Unit string
	Old, New               float64 // medians over each file's runs
	Change                 float64 // signed share of Old; positive is worse
	Spread                 float64 // the wider of the two files' interquartile spreads
	Bound                  float64
	Verdict                string
}

// judge applies the choosing-metrics guide's rule to one metric's runs.
// A change is worse when the new median is worse than the old by more than
// the bound. Where the run-to-run spread is wider than the bound the row is
// unresolved, not unchanged — unless the runs do not overlap at all, in which
// case the direction is not in doubt.
func judge(m metricDef, oldRuns, newRuns []float64) (change, sp float64, verdict string) {
	o, n := median(oldRuns), median(newRuns)
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	switch {
	case o != 0:
		change = sign * (n - o) / math.Abs(o)
	case n != o: // a ratio that was 0 (fail_ratio): any move is unbounded
		change = sign * math.Inf(int(math.Copysign(1, n-o)))
	}
	sp = math.Max(spread(oldRuns), spread(newRuns))

	worseThan := func(a, b float64) bool { return sign*(a-b) > 0 } // a worse than b
	allBetter, allWorse := true, true
	for _, a := range newRuns {
		for _, b := range oldRuns {
			if !worseThan(b, a) {
				allBetter = false
			}
			if !worseThan(a, b) {
				allWorse = false
			}
		}
	}
	switch {
	case allBetter:
		return change, sp, verdictOK
	case allWorse && change > m.Bound:
		return change, sp, verdictWorse
	case sp > m.Bound && m.Bound > 0:
		return change, sp, verdictUnresolved
	case change > m.Bound:
		return change, sp, verdictWorse
	}
	return change, sp, verdictOK
}

// compareFiles diffs two result files row by row and reports whether any row
// is worse. Workloads or metrics present in only one file are skipped: the
// diff is about what both measured.
func compareFiles(w io.Writer, oldF, newF *resultFile) (rows []compareRow, anyWorse bool) {
	fmt.Fprintf(w, "old: %s  %s  %s  %d CPU\nnew: %s  %s  %s  %d CPU\n",
		oldF.Env.Commit, oldF.Env.GoVersion, oldF.Env.CPUModel, oldF.Env.NProc,
		newF.Env.Commit, newF.Env.GoVersion, newF.Env.CPUModel, newF.Env.NProc)
	fmt.Fprintf(w, "%-8s %-14s %12s %12s %-5s %8s %8s %7s  %s\n",
		"workload", "metric", "old", "new", "unit", "change", "spread", "bound", "verdict")
	for _, wl := range workloads {
		ow, nw := oldF.Workloads[wl.name], newF.Workloads[wl.name]
		if ow == nil || nw == nil {
			continue
		}
		for _, m := range endToEnd {
			ov, nv := ow.values(m.Name), nw.values(m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			row := compareRow{Workload: wl.name, Metric: m.Name, Unit: m.Unit, Old: median(ov), New: median(nv), Bound: m.Bound}
			row.Change, row.Spread, row.Verdict = judge(m, ov, nv)
			rows = append(rows, row)
			anyWorse = anyWorse || row.Verdict == verdictWorse
			fmt.Fprintf(w, "%-8s %-14s %12.4f %12.4f %-5s %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				row.Workload, row.Metric, row.Old, row.New, row.Unit, 100*row.Change, 100*row.Spread, 100*row.Bound, row.Verdict)
		}
	}
	return rows, anyWorse
}
