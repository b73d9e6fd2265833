package stress

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/ch"
	"repro/internal/dijkstra"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/solver"
)

// checkMutate is the dynamic-graph oracle: a deterministic random mutation
// sequence (weight changes, inserts, deletes) is driven through the
// production incremental path on both lineages a served graph can be on —
// one whose hierarchy a query has demanded (copy-on-write overlay plus
// hierarchy repair, with the fallback full-rebuild path forced periodically)
// and one where nothing has (overlay alone, whatever the threshold; the
// hierarchy built at the end, as the first solver=thorup would) — and each end
// state is differenced against an implementation-disjoint replay
// (mutate.ReferenceApply) of the same batches onto a fresh copy of the base
// graph: edge multisets must match exactly, and Thorup queries over the
// lineage's hierarchy must agree with Dijkstra on the replayed graph.
func checkMutate(cfg Config, rt *par.Runtime, name string, g *graph.Graph, sources []int32) *Failure {
	if cfg.MutateRounds < 0 || g.NumVertices() < 2 || len(sources) == 0 {
		return nil
	}
	seed := cfg.Seed ^ uint64(g.NumVertices())<<32 ^ uint64(g.NumEdges())<<8 ^ uint64(sources[0])
	batches := genMutationSequence(g, cfg.MutateRounds, seed)
	if len(batches) == 0 {
		return nil
	}
	return checkMutationSequence(cfg, rt, name, g, sources, batches, cfg.MutateFault)
}

// genMutationSequence derives a valid batch sequence from the seed: each
// batch is generated against (and validated on) the graph state left by its
// predecessors.
func genMutationSequence(base *graph.Graph, rounds int, seed uint64) []*mutate.Batch {
	r := rng.New(seed)
	cur := base
	var batches []*mutate.Batch
	for i := 0; i < rounds; i++ {
		b := randomValidBatch(cur, r)
		if b == nil {
			break
		}
		next, _, err := mutate.Apply(cur, b)
		if err != nil {
			break // generator guard; a valid batch cannot fail to apply
		}
		batches = append(batches, b)
		cur = next
	}
	return batches
}

// randomValidBatch builds one small batch of ops valid against g: weight
// changes and deletes on existing edges, inserts anywhere (parallel edges and
// self-loops are legal), at most one op per (u,v) slot.
func randomValidBatch(g *graph.Graph, r *rng.Xoshiro256) *mutate.Batch {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	edges := g.Edges()
	k := 1 + r.Intn(4)
	seen := make(map[[2]int32]bool, k)
	var ops []mutate.Op
	for attempts := 0; len(ops) < k && attempts < 16*k; attempts++ {
		var op mutate.Op
		switch choice := r.Intn(3); {
		case choice == 0 && len(edges) > 0:
			e := edges[r.Intn(len(edges))]
			op = mutate.Op{Op: mutate.OpSetWeight, U: e.U, V: e.V, W: uint32(1 + r.Intn(1<<10))}
		case choice == 1 && len(edges) > 0:
			e := edges[r.Intn(len(edges))]
			op = mutate.Op{Op: mutate.OpDelete, U: e.U, V: e.V}
		default:
			op = mutate.Op{Op: mutate.OpInsert, U: int32(r.Intn(n)), V: int32(r.Intn(n)), W: uint32(1 + r.Intn(1<<10))}
		}
		u, v := op.U, op.V
		if u > v {
			u, v = v, u
		}
		if seen[[2]int32{u, v}] {
			continue
		}
		seen[[2]int32{u, v}] = true
		ops = append(ops, op)
	}
	if len(ops) == 0 {
		return nil
	}
	b := &mutate.Batch{Ops: ops}
	if err := b.Validate(g); err != nil {
		return nil
	}
	return b
}

// checkMutationSequence replays the batch sequence through the production
// mutation machinery and diffs the result against the reference replay. A
// sequence that fails validation mid-replay returns nil — that marks an
// invalid shrink candidate, not a bug (the sweep only generates valid
// sequences). fault plants the repair bug (mutate.Options.InjectFault) on
// every incremental batch; the oracle must catch it.
func checkMutationSequence(cfg Config, rt *par.Runtime, name string, base *graph.Graph, sources []int32, batches []*mutate.Batch, fault bool) *Failure {
	fail := func(check, format string, args ...any) *Failure {
		return &Failure{Check: check, Inst: name, Detail: fmt.Sprintf(format, args...),
			G: base, Sources: sources, Mutations: batches, MutateFault: fault}
	}
	ref, err := mutate.ReferenceApply(base, batches...)
	if err != nil {
		return nil // invalid candidate sequence
	}
	for _, lineage := range []string{"demanded", "undemanded"} {
		cur := base
		var h *ch.Hierarchy // stays nil on the lineage nothing has demanded one on
		if lineage == "demanded" {
			h = ch.BuildKruskal(base)
		}
		for i, b := range batches {
			threshold := 1.0
			if i%3 == 2 {
				threshold = -1 // periodically force the fallback full-rebuild path
			}
			res, err := mutate.Mutate(cur, h, b, mutate.Options{Threshold: threshold, InjectFault: fault})
			if err != nil {
				if errors.Is(err, mutate.ErrInvalid) {
					return nil
				}
				return fail("mutate-internal", "%s batch %d/%d: %v", lineage, i+1, len(batches), err)
			}
			if h == nil {
				if res.Fallback || res.H != nil {
					return fail("mutate-undemanded", "batch %d/%d at threshold %v: fallback %v, hierarchy %p; want a bare overlay",
						i+1, len(batches), threshold, res.Fallback, res.H)
				}
				cur = res.G
				continue
			}
			if res.Fallback {
				// What the background rebuild replays (source + delta log); the
				// next solver=thorup builds over it.
				g2, _, err := mutate.Apply(cur, b)
				if err != nil {
					if errors.Is(err, mutate.ErrInvalid) {
						return nil
					}
					return fail("mutate-internal", "fallback batch %d/%d: %v", i+1, len(batches), err)
				}
				cur, h = g2, ch.BuildKruskal(g2)
				continue
			}
			if err := res.H.Validate(); err != nil {
				return fail("mutate-ch-validate", "batch %d/%d: %v", i+1, len(batches), err)
			}
			cur, h = res.G, res.H
		}

		if err := cur.Validate(); err != nil {
			return fail("mutate-graph-validate", "%s, after %d batches: %v", lineage, len(batches), err)
		}
		if diff := edgeMultisetDiff(cur, ref); diff != "" {
			return fail("mutate-oracle-edges", "%s, after %d batches: %s", lineage, len(batches), diff)
		}
		// Thorup queries over the repaired — or only now built — hierarchy vs
		// Dijkstra on the independently replayed graph.
		res := solver.NewInstanceWithHierarchy(cur, rt, h).Thorup().RunMany(sources)
		for i, s := range sources {
			want := dijkstra.SSSP(ref, s)
			if v := firstDiff(res[i], want); v >= 0 {
				return fail("mutate-oracle", "%s, after %d batches, src %d: d[%d] = %d, replayed reference %d",
					lineage, len(batches), s, v, res[i][v], want[v])
			}
		}
	}
	return nil
}

// edgeMultisetDiff compares two graphs' undirected edge multisets (endpoint
// order normalized); it returns "" when identical.
func edgeMultisetDiff(a, b *graph.Graph) string {
	ea, eb := normalizedEdges(a), normalizedEdges(b)
	if len(ea) != len(eb) {
		return fmt.Sprintf("%d edges vs %d in the reference replay", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			return fmt.Sprintf("edge %d: (%d,%d,w=%d) vs reference (%d,%d,w=%d)",
				i, ea[i].U, ea[i].V, ea[i].W, eb[i].U, eb[i].V, eb[i].W)
		}
	}
	return ""
}

func normalizedEdges(g *graph.Graph) []graph.Edge {
	es := g.Edges()
	out := make([]graph.Edge, len(es))
	for i, e := range es {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		out[i] = e
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		if out[i].V != out[j].V {
			return out[i].V < out[j].V
		}
		return out[i].W < out[j].W
	})
	return out
}

// ShrinkMutations minimizes a failing mutation sequence with a ddmin loop:
// drop whole batches coarse-to-fine, then individual ops, while the property
// keeps holding. Candidates that become invalid mid-replay are simply
// rejected by the property (checkMutationSequence returns nil on them).
func ShrinkMutations(batches []*mutate.Batch, keep func([]*mutate.Batch) bool) []*mutate.Batch {
	budget := shrinkBudget
	try := func(cand []*mutate.Batch) bool {
		if budget <= 0 || len(cand) == 0 {
			return false
		}
		budget--
		return keep(cand)
	}
	cur := batches
	for chunks := 2; len(cur) >= 2 && chunks <= len(cur) && budget > 0; {
		size := (len(cur) + chunks - 1) / chunks
		removed := false
		for at := 0; at < len(cur); at += size {
			end := min(at+size, len(cur))
			cand := append(append([]*mutate.Batch{}, cur[:at]...), cur[end:]...)
			if try(cand) {
				cur = cand
				removed = true
				break
			}
		}
		if removed {
			chunks = 2
		} else {
			chunks *= 2
		}
	}
	for changed := true; changed && budget > 0; {
		changed = false
		for bi := 0; bi < len(cur) && !changed; bi++ {
			ops := cur[bi].Ops
			if len(cur) == 1 && len(ops) == 1 {
				break // already minimal
			}
			for oi := 0; oi < len(ops); oi++ {
				cand := make([]*mutate.Batch, 0, len(cur))
				for j, b := range cur {
					if j != bi {
						cand = append(cand, b)
						continue
					}
					rest := append(append([]mutate.Op{}, ops[:oi]...), ops[oi+1:]...)
					if len(rest) > 0 {
						cand = append(cand, &mutate.Batch{Ops: rest})
					}
				}
				if len(cand) > 0 && try(cand) {
					cur = cand
					changed = true
					break
				}
			}
		}
	}
	return cur
}

// shrinkMutationSequence minimizes a mutation failure's batch sequence on its
// (already graph-shrunk) witness instance.
func shrinkMutationSequence(cfg Config, rt *par.Runtime, f *Failure) *Failure {
	keep := func(cand []*mutate.Batch) bool {
		f2 := checkMutationSequence(cfg, rt, "shrink-seq", f.G, f.Sources, cand, f.MutateFault)
		return f2 != nil && f2.Check == f.Check
	}
	shrunk := ShrinkMutations(f.Mutations, keep)
	f2 := checkMutationSequence(cfg, rt, f.Inst, f.G, f.Sources, shrunk, f.MutateFault)
	if f2 == nil {
		return f // never trade a real failure for a nil one
	}
	f2.Seed = f.Seed
	return f2
}
