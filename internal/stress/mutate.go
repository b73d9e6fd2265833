package stress

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/ch"
	"repro/internal/dijkstra"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/solver"
)

// checkMutate is the dynamic-graph oracle: a deterministic random mutation
// sequence (weight changes, inserts, deletes; every third batch a wide one) is
// driven through mutate.Mutate on two lineages — "undemanded", the serving path
// (the overlay alone, as catalog.Mutate has it; the hierarchy built at the end,
// as the first solver=thorup after a write would), and "demanded" (plus the
// hierarchy repair, which no serving path takes; kept until it is deleted) —
// and each end state is differenced against an implementation-disjoint replay
// (mutate.ReferenceApply) of the same batches onto a fresh copy of the base
// graph: edge multisets must match exactly, and Thorup queries over the
// lineage's hierarchy must agree with Dijkstra on the replayed graph. Beside
// the graphs runs what serves them: an engine per generation, each child
// inheriting its parent's answers as catalog.Mutate has it (engine.Inherit),
// the same source sets asked again on every generation and every answer held
// to Dijkstra on the replay so far.
func checkMutate(cfg Config, rt par.Runtime, name string, g *graph.Graph, sources []int32) *Failure {
	if cfg.MutateRounds < 0 || g.NumVertices() < 2 || len(sources) == 0 {
		return nil
	}
	seed := cfg.Seed ^ uint64(g.NumVertices())<<32 ^ uint64(g.NumEdges())<<8 ^ uint64(sources[0])
	batches := genMutationSequence(g, cfg.MutateRounds, seed)
	if len(batches) == 0 {
		return nil
	}
	return checkMutationSequence(cfg, rt, name, g, sources, batches, faults{cfg.MutateFault, cfg.InheritFault})
}

// faults are the planted bugs the mutation oracle must catch: Repair is
// mutate.Options.InjectFault on every batch; Inherit hides from
// engine.Inherit the slots that were removed or got heavier, which is Inherit
// without its tightness test and the repair without its decremental phase —
// no distance a batch lengthened is ever corrected.
type faults struct{ Repair, Inherit bool }

// inheritTally sums, over a lineage's generations, what engine.Inherit did:
// entries carried exact, pending, and unread on the parent; resumes, and of
// those the repairs that met a removed or heavier tight slot. Widened counts
// the inherited answers whose eccentricity needed more bits than the same
// source set's answer a generation before: a resume that reached vertices the
// parent's vector held unreachable, past its width.
type inheritTally struct{ Exact, Pending, Unread, Resumed, Repaired, Widened int64 }

// genMutationSequence derives a valid batch sequence from the seed: each
// batch is generated against (and validated on) the graph state left by its
// predecessors. Every third batch is wide (WideBatch), alternately
// all-additive and with deletes, so that both repairs meet wide deltas.
func genMutationSequence(base *graph.Graph, rounds int, seed uint64) []*mutate.Batch {
	r := rng.New(seed)
	cur := base
	var batches []*mutate.Batch
	for i := 0; i < rounds; i++ {
		var b *mutate.Batch
		if i%3 == 2 {
			b = WideBatch(cur, r, 0.25, i%6 == 2)
		} else {
			b = randomValidBatch(cur, r)
		}
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

// WideBatch builds a batch valid against g that touches at least frac of its
// vertices: one op at each still untouched vertex u, in a random order — so
// never two on a slot. additive batches hold inserts and set_weights below the lightest
// copy of an edge at u — ch.RepairAdditive's input; the others delete at the
// first u with an edge, then mix deletes, re-weightings either way and
// inserts — ch.Repair's.
// It is the oracle's wide arm and mutate.BenchmarkMutateWidth's input.
func WideBatch(g *graph.Graph, r *rng.Xoshiro256, frac float64, additive bool) *mutate.Batch {
	n := g.NumVertices()
	want := int(math.Ceil(frac * float64(n)))
	touched := make([]bool, n)
	var ops []mutate.Op
	deleted := false
	for count, i, perm := 0, 0, r.Perm(n); count < want && i < n; i++ {
		u := int32(perm[i])
		if touched[u] {
			continue
		}
		ts, ws := g.Neighbors(u)
		kind := r.Intn(3)
		if !additive && !deleted {
			kind = 1
		}
		op := mutate.Op{Op: mutate.OpInsert, U: u, V: int32(r.Intn(n)), W: uint32(1 + r.Intn(1<<10))}
		if kind > 0 && len(ts) > 0 {
			j := r.Intn(len(ts))
			switch {
			case additive:
				lightest := ws[j]
				for k, t := range ts {
					if t == ts[j] {
						lightest = min(lightest, ws[k])
					}
				}
				op = mutate.Op{Op: mutate.OpSetWeight, U: u, V: ts[j], W: uint32(1 + r.Intn(int(lightest)))}
			case kind == 1:
				op, deleted = mutate.Op{Op: mutate.OpDelete, U: u, V: ts[j]}, true
			default:
				op.Op, op.V = mutate.OpSetWeight, ts[j]
			}
		}
		ops = append(ops, op)
		for _, v := range [2]int32{op.U, op.V} {
			if !touched[v] {
				touched[v], count = true, count+1
			}
		}
	}
	if b := (&mutate.Batch{Ops: ops}); b.Validate(g) == nil {
		return b
	}
	return nil
}

// checkMutationSequence replays the batch sequence through the production
// mutation machinery and diffs the result against the reference replay. A
// sequence that fails validation mid-replay returns nil — that marks an
// invalid shrink candidate, not a bug (the sweep only generates valid
// sequences). fault plants bugs the oracle must catch.
func checkMutationSequence(cfg Config, rt par.Runtime, name string, base *graph.Graph, sources []int32, batches []*mutate.Batch, fault faults) *Failure {
	refs, err := referenceChain(base, batches)
	if err != nil {
		return nil // invalid candidate sequence
	}
	for _, lineage := range []string{"demanded", "undemanded"} {
		f, tally := replayLineage(cfg, rt, name, lineage, refs, sources, batches, fault)
		if f != nil {
			return f
		}
		cfg.Logf("stress: %s %s lineage: answers inherited %d exact + %d pending (%d resumed, %d repaired, %d widened), %d unread",
			name, lineage, tally.Exact, tally.Pending, tally.Resumed, tally.Repaired, tally.Widened, tally.Unread)
	}
	return nil
}

// referenceChain replays the batches naively, one at a time: refs[i] is base +
// batches[:i].
func referenceChain(base *graph.Graph, batches []*mutate.Batch) ([]*graph.Graph, error) {
	refs := []*graph.Graph{base}
	for _, b := range batches {
		ref, err := mutate.ReferenceApply(refs[len(refs)-1], b)
		if err != nil {
			return nil, err
		}
		refs = append(refs, ref)
	}
	return refs, nil
}

// rareEvery is how often replayLineage asks its rare source set: every fourth
// generation, so that an entry crosses three writes unread.
const rareEvery = 4

// replayLineage is checkMutationSequence on one lineage, with what its
// engines inherited along the way.
func replayLineage(cfg Config, rt par.Runtime, name, lineage string, refs []*graph.Graph, sources []int32, batches []*mutate.Batch, fault faults) (*Failure, inheritTally) {
	base, ref := refs[0], refs[len(refs)-1]
	var tally inheritTally
	fail := func(check, format string, args ...any) (*Failure, inheritTally) {
		return &Failure{Check: check, Inst: name, Detail: fmt.Sprintf(format, args...),
			G: base, Sources: sources, Mutations: batches, MutateFault: fault.Repair, InheritFault: fault.Inherit}, tally
	}

	// The serving side. sets[0] is asked of a generation as soon as it serves,
	// the rest just before the next swap — or, every other generation unless
	// NoRace wants one deterministic order, while that swap's Inherit walks the
	// cache they are in: hits on entries inherited a swap ago and not yet
	// resolved. rare is asked as soon as generations 1, 1+rareEvery, …
	// serve, and of the last: its entry crosses rareEvery−1 generations unread,
	// owing what every batch between did.
	sets := [][]int32{sources[:1]}
	if len(sources) > 1 {
		sets = append(sets, sources, sources[1:2])
	}
	var rare [][]int32
	if len(sources) > 2 {
		rare = [][]int32{sources[2:3]}
	}
	first := func(gen int) [][]int32 {
		if gen%rareEvery == 1 {
			return append(sets[:1:1], rare...)
		}
		return sets[:1]
	}
	width := make(map[string]int) // per source set: the bits its latest answer's eccentricity needs
	ask := func(e *engine.Gen, gen int, sets [][]int32) string {
		for _, srcs := range sets {
			res, via, err := e.Query(context.Background(), engine.Request{Sources: srcs})
			if err != nil {
				return fmt.Sprintf("%s gen %d, sources %v: %v", lineage, gen, srcs, err)
			}
			if diff := answerDiff(res, dijkstra.SSSPFromSources(refs[gen-1], srcs)); diff != "" {
				return fmt.Sprintf("%s gen %d, sources %v: %s", lineage, gen, srcs, diff)
			}
			key, w := fmt.Sprint(srcs), bits.Len64(uint64(res.Eccentricity)+1)
			if via == engine.ViaCache && w > width[key] && width[key] > 0 {
				tally.Widened++
			}
			width[key] = w
		}
		return ""
	}
	// One engine serves the lineage; eng is its newest generation.
	eng := engine.New(solver.NewInstance(base, rt), engine.Config{CacheEntries: 8})
	if diff := ask(eng, 1, first(1)); diff != "" {
		return fail("mutate-served", "%s", diff)
	}

	cur := base
	var h *ch.Hierarchy // stays nil on the lineage nothing has demanded one on
	if lineage == "demanded" {
		h = ch.BuildKruskal(base)
	}
	for i, b := range batches {
		res, err := mutate.Mutate(cur, h, b, mutate.Options{InjectFault: fault.Repair})
		if err != nil {
			if errors.Is(err, mutate.ErrInvalid) {
				return nil, tally
			}
			return fail("mutate-internal", "%s batch %d/%d: %v", lineage, i+1, len(batches), err)
		}
		switch {
		case h == nil && res.H != nil:
			return fail("mutate-undemanded", "batch %d/%d: hierarchy %p; want a bare overlay", i+1, len(batches), res.H)
		case h != nil:
			if err := res.H.Validate(); err != nil {
				return fail("mutate-ch-validate", "batch %d/%d (%d touched): %v", i+1, len(batches), res.Touched, err)
			}
		}

		// Generation i+2 serves res.G and inherits, beside queries in flight on
		// the parent, which miss once the swap is done.
		child := eng.Next(solver.NewInstance(res.G, rt))
		late := make(chan string, 1)
		if cfg.NoRace || i%2 == 0 {
			late <- ask(eng, i+1, sets[1:])
		} else {
			go func() { late <- ask(eng, i+1, sets[1:]) }()
		}
		changes := mutate.Changes(cur, res.G, b)
		if fault.Inherit {
			kept := changes[:0]
			for _, c := range changes {
				if c.After < c.Before {
					kept = append(kept, c)
				}
			}
			changes = kept
		}
		exact, pending, unread := child.Swap(child.Inherit(changes))
		tally.Exact, tally.Pending, tally.Unread = tally.Exact+int64(exact), tally.Pending+int64(pending), tally.Unread+int64(unread)
		if diff := <-late; diff != "" {
			return fail("mutate-served", "%s", diff)
		}
		if diff := ask(child, i+2, first(i+2)); diff != "" {
			return fail("mutate-served", "%s", diff)
		}
		cur, h, eng = res.G, res.H, child
	}
	if diff := ask(eng, len(batches)+1, append(sets, rare...)); diff != "" {
		return fail("mutate-served", "%s", diff)
	}
	tally.Resumed, tally.Repaired = eng.Counter("resumed"), eng.Counter("repaired") // the engine's, over every generation

	if err := cur.Validate(); err != nil {
		return fail("mutate-graph-validate", "%s, after %d batches: %v", lineage, len(batches), err)
	}
	if diff := edgeMultisetDiff(cur, ref); diff != "" {
		return fail("mutate-oracle-edges", "%s, after %d batches: %s", lineage, len(batches), diff)
	}
	// Thorup queries over the repaired — or only now built — hierarchy vs
	// Dijkstra on the independently replayed graph.
	many := solver.NewInstanceWithHierarchy(cur, rt, h).Thorup().RunMany(sources)
	for i, s := range sources {
		want := dijkstra.SSSP(ref, s)
		if v := firstDiff(many[i], want); v >= 0 {
			return fail("mutate-oracle", "%s, after %d batches, src %d: d[%d] = %d, replayed reference %d",
				lineage, len(batches), s, v, many[i][v], want[v])
		}
	}
	return nil, tally
}

// answerDiff holds every face of an engine answer — At, Len, Reached,
// Eccentricity, DistJSON — to the reference vector; "" when they agree.
func answerDiff(res *engine.Result, want []int64) string {
	if res.Len() != len(want) {
		return fmt.Sprintf("%d distances, reference has %d", res.Len(), len(want))
	}
	if v := vectorDiff(res, want); v >= 0 {
		return fmt.Sprintf("d[%d] = %d, replayed reference %d", v, res.At(v), want[v])
	}
	reached, ecc := 0, int64(0)
	js := make([]int64, len(want))
	for v, d := range want {
		if js[v] = -1; d < graph.Inf {
			reached, ecc, js[v] = reached+1, max(ecc, d), d
		}
	}
	if res.Reached != reached || res.Eccentricity != ecc {
		return fmt.Sprintf("reached %d, eccentricity %d; reference %d and %d", res.Reached, res.Eccentricity, reached, ecc)
	}
	if wantJS, _ := json.Marshal(js); !bytes.Equal(res.DistJSON(), wantJS) {
		return fmt.Sprintf("DistJSON %.80s, reference %.80s", res.DistJSON(), wantJS)
	}
	return ""
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
func shrinkMutationSequence(cfg Config, rt par.Runtime, f *Failure) *Failure {
	keep := func(cand []*mutate.Batch) bool {
		f2 := checkMutationSequence(cfg, rt, "shrink-seq", f.G, f.Sources, cand, faults{f.MutateFault, f.InheritFault})
		return f2 != nil && f2.Check == f.Check
	}
	shrunk := ShrinkMutations(f.Mutations, keep)
	f2 := checkMutationSequence(cfg, rt, f.Inst, f.G, f.Sources, shrunk, faults{f.MutateFault, f.InheritFault})
	if f2 == nil {
		return f // never trade a real failure for a nil one
	}
	f2.Seed = f.Seed
	return f2
}
