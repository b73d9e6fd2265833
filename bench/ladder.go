package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cc"
	"repro/internal/ch"
	"repro/internal/dimacs"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// span is one timed call into a layer. Spans that share an ID were made on
// the same input (the same source vertex, or the same mutation). Parent names
// the rung one layer up, whose own call does this rung's work inside it; a
// rung's self time is its duration minus that of the same-ID spans naming it
// as Parent.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	ID      int    `json:"id"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// daemonWorkers is ssspd's default -workers: the in-process rungs size their
// runtime and batch pool the way a daemon started with default flags does.
const daemonWorkers = 4

// ladder measures every layer on the same instances, one rung at a time on
// an otherwise idle process. Spans are kept in memory and written out by the
// caller when the benchmark ends.
type ladder struct {
	s       *site
	t0      time.Time
	spans   []span
	samples map[string][]float64 // metric -> one value per id
}

// timed runs fn as the rung `name` for input `id`, records its span and adds
// its duration, in `unit` ("ms" or "us"), as a sample of metric name_unit.
func (l *ladder) timed(name, parent string, id int, unit string, fn func()) time.Duration {
	start := time.Since(l.t0)
	fn()
	end := time.Since(l.t0)
	l.spans = append(l.spans, span{Name: name, Parent: parent, ID: id, StartUS: start.Microseconds(), EndUS: end.Microseconds()})
	d := end - start
	scale := float64(time.Millisecond)
	if unit == "us" {
		scale = float64(time.Microsecond)
	}
	l.add(name+"_"+unit, float64(d)/scale)
	return d
}

func (l *ladder) add(metric string, v float64) { l.samples[metric] = append(l.samples[metric], v) }

// guard runs one group of rungs under the site's hard timeout. A rung that
// overruns cannot be interrupted, so the caller must treat the error as fatal
// and exit; that is what keeps a stuck rung from hanging the benchmark.
func (l *ladder) guard(group string, fn func() error) error {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("ladder %s: %w", group, err)
		}
		return nil
	case <-time.After(hardTimeout):
		return fmt.Errorf("ladder %s: hard timeout after %s", group, hardTimeout)
	}
}

// ladderResult is the ladder's medians with their sample counts.
type ladderResult struct {
	Values  map[string]float64 `json:"values"`
	Samples map[string]int     `json:"samples"`
	spans   []span
}

// runLadder measures the per-layer metrics that do not depend on a workload.
// ids is how many seeded sources each per-query rung runs on (32 for a full
// ladder, fewer inside a traced contract run).
func (s *site) runLadder(seed uint64, ids, logBig, logSmall int) (*ladderResult, error) {
	l := &ladder{s: s, t0: time.Now(), samples: map[string][]float64{}}
	big, err := s.textInstance(logBig, seed)
	if err != nil {
		return nil, err
	}
	small, err := s.snapInstance(logSmall, seed)
	if err != nil {
		return nil, err
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"build", func() error { return l.buildRungs(big) }},
		{"snapshot", func() error { return l.snapshotRungs(small) }},
		{"mutate", func() error { return l.mutateRungs(small, seed) }},
	}
	for _, st := range steps {
		if err := l.guard(st.name, st.fn); err != nil {
			return nil, err
		}
	}
	if err := l.queryRungs(big, small, seed, ids); err != nil {
		return nil, err
	}
	res := &ladderResult{Values: map[string]float64{}, Samples: map[string]int{}, spans: l.spans}
	for name, xs := range l.samples {
		res.Values[name], res.Samples[name] = median(xs), len(xs)
	}
	return res, nil
}

// onceReps is how often a rung that has no per-source input is repeated.
const onceReps = 3

// buildRungs times what a text cold start pays: the DIMACS parse and the
// hierarchy build (Kruskal is what the daemon runs; Algorithm 1 with the
// bully kernel on real goroutines is the paper's construction).
func (l *ladder) buildRungs(big *instance) error {
	path := filepath.Join(l.s.work, big.file)
	for i := 0; i < onceReps; i++ {
		var err error
		l.timed("dimacs.parse", "", i, "ms", func() {
			var f *os.File
			if f, err = os.Open(path); err != nil {
				return
			}
			defer f.Close()
			_, err = dimacs.ReadGraph(f)
		})
		if err != nil {
			return err
		}
		var h *ch.Hierarchy
		l.timed("ch.build_kruskal", "", i, "ms", func() { h = ch.BuildKruskal(big.g) })
		l.add("ch.nodes", float64(h.NumNodes()))
	}
	rt := par.NewExec(runtime.NumCPU())
	l.timed("ch.build_naive", "", 0, "ms", func() { ch.BuildNaive(rt, big.g, cc.Bully) })
	return nil
}

// snapshotRungs times the four ways a (graph, CH) pair reaches memory from a
// v2 snapshot; the daemon's -snapshot start is map_cold.
func (l *ladder) snapshotRungs(small *instance) error {
	for i := 0; i < onceReps; i++ {
		// A fresh name per repetition: the map registry remembers verified
		// files, so only a file never mapped before is cold.
		path := filepath.Join(l.s.work, fmt.Sprintf("ladder-%d.snap", i))
		var err error
		l.timed("snapshot.write", "", i, "ms", func() { err = snapshot.WriteFile(path, small.g, small.h) })
		if err != nil {
			return err
		}
		l.timed("snapshot.read_copy", "", i, "ms", func() { _, _, err = snapshot.ReadFile(path) })
		if err != nil {
			return err
		}
		for _, rung := range []struct{ name, unit string }{{"snapshot.map_cold", "ms"}, {"snapshot.map_warm", "us"}} {
			var m *snapshot.Mapping
			l.timed(rung.name, "", i, rung.unit, func() { _, _, m, err = snapshot.Map(path) })
			if err != nil {
				return err
			}
			if err := m.Close(); err != nil {
				return err
			}
		}
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	return nil
}

// mutateReps is how many mutations of each kind the repair rungs apply.
const mutateReps = 8

// mutateRungs times the write path bottom-up on the churn workload's own
// deltas: the copy-on-write overlay in its two regimes (a weight-only delta
// aliases the parent's offset and target arrays, a structural one rebuilds
// the CSR), the hierarchy repair, and mutate.Mutate, which is overlay plus
// repair plus validation. Each mutation is applied to the result of the one
// before, as the daemon's generations are.
func (l *ladder) mutateRungs(small *instance, seed uint64) error {
	model := newEdgeModel(small.g, rng.NewStream(seed, streamWrites))
	g, h := small.g, small.h
	for i := 0; i < 2*mutateReps; i++ {
		general := i%2 == 1
		kind := "additive"
		if general {
			kind = "general"
		}
		b := model.nextBatch(general)
		set, ins, del := b.Split()
		var (
			aliased bool
			err     error
		)
		l.timed("graph.overlay_weight", "mutate."+kind, i, "ms", func() { _, aliased, err = g.Overlay(set, nil, nil) })
		if err != nil || !aliased {
			return fmt.Errorf("weight-only overlay: aliased=%v err=%v", aliased, err)
		}
		l.timed("graph.overlay_struct", "mutate."+kind, i, "ms", func() { _, _, err = g.Overlay(nil, ins, del) })
		if err != nil {
			return err
		}
		g2, _, err := g.Overlay(set, ins, del)
		if err != nil {
			return err
		}
		l.timed("ch.repair_"+kind, "mutate."+kind, i, "ms", func() {
			if general {
				_, _, err = ch.Repair(h, g2, b.Touched())
			} else {
				_, _, err = ch.RepairAdditive(h, g2, append(append([]graph.Edge(nil), ins...), set...))
			}
		})
		if err != nil {
			return err
		}
		var res *mutate.Result
		l.timed("mutate."+kind, "", i, "ms", func() { res, err = mutate.Mutate(g, h, b, mutate.Options{}) })
		if err != nil {
			return err
		}
		if res.Fallback || res.Additive == general {
			return fmt.Errorf("mutation %d took the wrong path (fallback=%v additive=%v, want general=%v)", i, res.Fallback, res.Additive, general)
		}
		g, h = res.G, res.H
	}
	return nil
}
