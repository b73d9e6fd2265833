package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/dijkstra"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/rng"
)

// Response shapes of the endpoints the workloads call.
type distResp struct {
	Dist   int64  `json:"dist"`
	Solver string `json:"solver"`
	Via    string `json:"via"`
}

type answer struct {
	Solver       string  `json:"solver"`
	Via          string  `json:"via"`
	Reached      int     `json:"reached"`
	Eccentricity int64   `json:"eccentricity"`
	Error        string  `json:"error"`
	Dist         []int64 `json:"dist"`
}

type batchResp struct {
	Results []answer `json:"results"`
}

type mutateResp struct {
	Status string `json:"status"`
	Gen    uint64 `json:"gen"`
}

// jsonDist is the daemon's wire form of a distance: -1 for unreachable.
func jsonDist(d int64) int64 {
	if d >= graph.Inf {
		return -1
	}
	return d
}

func rngPerm(seed uint64, stream, n int) []int { return rng.NewStream(seed, stream).Perm(n) }

// answersOf decodes the per-item answers of a successful read. A body that
// does not decode yields no answers, which checkAnswers reports as a failure.
// checkAnswers keeps the result on the record for summarize.
func answersOf(r *opRecord) []answer {
	switch {
	case r.op.method == "POST":
		var b batchResp
		if json.Unmarshal(r.body, &b) != nil {
			return nil
		}
		return b.Results
	case r.op.dst >= 0:
		var d distResp
		if json.Unmarshal(r.body, &d) != nil {
			return nil
		}
		return []answer{{Solver: d.Solver, Via: d.Via}}
	default:
		var a answer
		if json.Unmarshal(r.body, &a) != nil {
			return nil
		}
		return []answer{a}
	}
}

// oracleSamples is how many answers per workload are recomputed with
// in-process Dijkstra.
const oracleSamples = 32

// checkAnswers runs after the window has closed, never during it. Every
// answered request gets a shape check; oracleSamples of them, spread evenly
// over the window, are recomputed: `dist` on single, `reached` and
// `eccentricity` on multi and batch against min-folded dijkstra.SSSP. On
// churn every write must have advanced the generation by exactly one, and 8
// full distance vectors served by the final generation must equal Dijkstra
// over mutate.ReferenceApply of every accepted delta. A wrong answer marks
// its request failed, so it counts in fail_ratio and fails the run.
func checkAnswers(ctx context.Context, client *http.Client, d *daemon, w workload, in *instance, cfg runConfig, win *window) error {
	var checked []*opRecord // successful reads inside the window
	for i := range win.ops {
		r := &win.ops[i]
		if r.failed || r.op.delta != nil {
			continue
		}
		r.answers = answersOf(r)
		if len(r.answers) != len(r.op.items) {
			r.failed = true
			continue
		}
		for _, a := range r.answers {
			if a.Error != "" || a.Via == "" {
				r.failed = true
			}
		}
		if !r.failed && win.inWindow(r) {
			checked = append(checked, r)
		}
	}
	if w.snapshot {
		return checkChurn(ctx, client, d, in, cfg, win)
	}
	if len(checked) == 0 {
		return fmt.Errorf("no successful request inside the window")
	}

	// Sample i checks one item of one request; items rotate so every position
	// of a batch gets checked. Two goroutines: the host has two CPUs and the
	// daemon is idle now.
	match := make([]bool, oracleSamples)
	pick := func(i int) (*opRecord, int) {
		r := checked[i*len(checked)/oracleSamples]
		return r, i % len(r.op.items)
	}
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < oracleSamples; i += 2 {
				r, item := pick(i)
				match[i] = answerMatches(in.g, r, item)
			}
		}(k)
	}
	wg.Wait()
	for i, ok := range match {
		if r, _ := pick(i); !ok {
			r.failed = true
		}
	}
	return nil
}

// answerMatches recomputes one answered item with Dijkstra.
func answerMatches(g *graph.Graph, r *opRecord, item int) bool {
	srcs := r.op.items[item]
	ref := append([]int64(nil), dijkstra.SSSP(g, srcs[0])...)
	for _, s := range srcs[1:] {
		for v, dv := range dijkstra.SSSP(g, s) {
			if dv < ref[v] {
				ref[v] = dv
			}
		}
	}
	if r.op.dst >= 0 {
		var got distResp
		return json.Unmarshal(r.body, &got) == nil && got.Dist == jsonDist(ref[r.op.dst])
	}
	reached, ecc := 0, int64(0)
	for _, dv := range ref {
		if dv < graph.Inf {
			reached++
			if dv > ecc {
				ecc = dv
			}
		}
	}
	got := r.answers[item]
	return got.Reached == reached && got.Eccentricity == ecc
}

// checkChurn verifies the write path: generations advance one per accepted
// mutation, and what the last generation serves is what a naive replay of
// every delta gives.
func checkChurn(ctx context.Context, client *http.Client, d *daemon, in *instance, cfg runConfig, win *window) error {
	var (
		deltas  []*mutate.Batch
		lastGen uint64
	)
	for i := range win.ops {
		r := &win.ops[i]
		if r.op.delta == nil {
			continue
		}
		var m mutateResp
		if r.failed || json.Unmarshal(r.body, &m) != nil || m.Status != "mutated" {
			// Refused, shed or rebuilt in the background: the workload is
			// sized so none of these happens, and the replay below needs to
			// know exactly which deltas were applied.
			return fmt.Errorf("write %d not applied incrementally: status %d body %s", len(deltas)+1, r.status, r.body)
		}
		if lastGen != 0 && m.Gen != lastGen+1 {
			r.failed = true
		}
		lastGen = m.Gen
		deltas = append(deltas, r.op.delta)
	}
	if len(deltas) == 0 {
		return fmt.Errorf("no write completed; the window is too short for the %d-read cycle", readsPerWrite)
	}
	final, err := mutate.ReferenceApply(in.g, deltas...)
	if err != nil {
		return fmt.Errorf("reference replay of %d deltas: %w", len(deltas), err)
	}
	for _, src := range rngPerm(cfg.seed, streamLadder, in.g.NumVertices())[:8] {
		body, status, err := get(ctx, client, fmt.Sprintf("%s/sssp?src=%d&full=1", d.url, src))
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("final-generation read src=%d: status %d: %v", src, status, err)
		}
		var a answer
		if err := json.Unmarshal(body, &a); err != nil {
			return fmt.Errorf("final-generation read src=%d: %w", src, err)
		}
		ref := dijkstra.SSSP(final, int32(src))
		same := len(a.Dist) == len(ref)
		for v := 0; same && v < len(ref); v++ {
			same = a.Dist[v] == jsonDist(ref[v])
		}
		if !same {
			return fmt.Errorf("final generation (gen %d, %d deltas) serves wrong distances from src=%d", lastGen, len(deltas), src)
		}
	}
	return nil
}
