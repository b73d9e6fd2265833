package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/rng"
)

// op is one HTTP request of a workload, with what the oracle needs to check
// its answer afterwards.
type op struct {
	method string
	path   string
	body   []byte
	items  [][]int32     // source set of each answered item (one item unless /batch)
	dst    int32         // /dist target; -1 otherwise
	delta  *mutate.Batch // the mutation a write carries; nil for reads
}

// line renders the op the way the determinism test compares op sequences.
func (o op) line() string { return o.method + " " + o.path + " " + string(o.body) + "\n" }

// opSource yields one closed-loop client's requests in order. Sources are
// built from the seed alone; nothing a daemon answers feeds back into them.
type opSource interface{ next() op }

// Stream indices for rng.NewStream, so each seeded choice is independent.
const (
	streamSources = iota + 1
	streamTargets
	streamReads
	streamWrites
	streamLadder
)

// strideSource serves the three read-only workloads. Client c of k takes
// slots c, c+k, c+2k, ... of one seeded permutation of the vertices, `take`
// sources per slot, so no source repeats within a run until the permutation
// wraps (65536 sources outlast every window at 2^16) and the result cache
// never helps.
type strideSource struct {
	kind    string // "single", "multi" or "batch"
	perm    []int  // sources
	targets []int  // /dist targets, single only
	take    int
	slot    int
	stride  int
}

// Workload shapes: a nearest-of-4-facilities multi-source query, and 8
// single-source items per /batch request.
const (
	multiSources = 4
	batchItems   = 8
)

func newStrideSources(kind string, n, clients int, seed uint64) []opSource {
	perm := rng.NewStream(seed, streamSources).Perm(n)
	targets := rng.NewStream(seed, streamTargets).Perm(n)
	take := map[string]int{"single": 1, "multi": multiSources, "batch": batchItems}[kind]
	out := make([]opSource, clients)
	for c := range out {
		out[c] = &strideSource{kind: kind, perm: perm, targets: targets, take: take, slot: c, stride: clients}
	}
	return out
}

func (s *strideSource) next() op {
	n := len(s.perm)
	srcs := make([]int32, s.take)
	for i := range srcs {
		srcs[i] = int32(s.perm[(s.slot*s.take+i)%n])
	}
	dst := int32(s.targets[s.slot%n])
	s.slot += s.stride
	switch s.kind {
	case "single":
		return op{method: "GET", path: fmt.Sprintf("/dist?src=%d&dst=%d", srcs[0], dst), items: [][]int32{srcs}, dst: dst}
	case "multi":
		return batchOp([][]int32{srcs})
	default:
		items := make([][]int32, len(srcs))
		for i, v := range srcs {
			items[i] = []int32{v}
		}
		return batchOp(items)
	}
}

// batchOp builds a POST /batch whose items are the given source sets.
func batchOp(items [][]int32) op {
	type item struct {
		Srcs []int32 `json:"srcs"`
	}
	req := struct {
		Queries []item `json:"queries"`
	}{Queries: make([]item, len(items))}
	for i, srcs := range items {
		req.Queries[i].Srcs = srcs
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a struct of int slices always marshals
	}
	return op{method: "POST", path: "/batch", body: body, items: items, dst: -1}
}

// churnSource is the read-mostly workload beside writes: readsPerWrite Zipf
// reads, then one mutation of opsPerWrite edge ops. Three writes in four are
// additive (weight decreases and inserts, the RepairAdditive path); the
// fourth carries a delete and a weight increase (the general Repair path).
type churnSource struct {
	graphName string
	perm      []int
	zipf      *rand.Zipf
	edges     *edgeModel
	i         int // position in the read/write cycle
	writes    int
}

const (
	readsPerWrite = 499
	opsPerWrite   = 4
	zipfS         = 1.5
)

func newChurnSource(g *graph.Graph, graphName string, seed uint64) *churnSource {
	n := g.NumVertices()
	// math/rand's generators keep their seeded sequences across Go releases,
	// which is what makes the Zipf stream reproducible.
	zr := rand.New(rand.NewSource(int64(rng.NewStream(seed, streamReads).Uint64() >> 1)))
	return &churnSource{
		graphName: graphName,
		perm:      rng.NewStream(seed, streamSources).Perm(n),
		zipf:      rand.NewZipf(zr, zipfS, 1, uint64(n-1)),
		edges:     newEdgeModel(g, rng.NewStream(seed, streamWrites)),
	}
}

func (s *churnSource) next() op {
	s.i++
	if s.i%(readsPerWrite+1) != 0 {
		src := int32(s.perm[s.zipf.Uint64()])
		return op{method: "GET", path: "/sssp?src=" + strconv.Itoa(int(src)), items: [][]int32{{src}}, dst: -1}
	}
	s.writes++
	b := s.edges.nextBatch(s.writes%4 == 0)
	body, err := json.Marshal(b)
	if err != nil {
		panic(err) // a struct of ints and strings always marshals
	}
	return op{method: "POST", path: "/graphs/" + s.graphName + "/mutate", body: body, dst: -1, delta: b}
}

// edgeModel tracks which undirected edge slots exist and the lightest weight
// stored in each, so every generated mutation is valid against the graph as
// all earlier mutations left it: set_weight and delete name an existing slot,
// a "decrease" goes below every parallel copy (the additive condition), and
// no batch names a slot twice.
type edgeModel struct {
	r     *rng.Xoshiro256
	n     int
	maxW  uint32
	slots [][2]int32          // existing slots, for uniform picking
	index map[[2]int32]int    // slot -> position in slots
	minW  map[[2]int32]uint32 // slot -> lightest stored copy
}

func newEdgeModel(g *graph.Graph, r *rng.Xoshiro256) *edgeModel {
	m := &edgeModel{r: r, n: g.NumVertices(), maxW: g.MaxWeight(),
		index: map[[2]int32]int{}, minW: map[[2]int32]uint32{}}
	for _, e := range g.Edges() {
		m.add(e.U, e.V, e.W)
	}
	return m
}

func slotOf(u, v int32) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}

func (m *edgeModel) add(u, v int32, w uint32) {
	k := slotOf(u, v)
	if old, ok := m.minW[k]; ok {
		if w < old {
			m.minW[k] = w
		}
		return
	}
	m.index[k] = len(m.slots)
	m.slots = append(m.slots, k)
	m.minW[k] = w
}

func (m *edgeModel) remove(k [2]int32) {
	i := m.index[k]
	last := m.slots[len(m.slots)-1]
	m.slots[i], m.index[last] = last, i
	m.slots = m.slots[:len(m.slots)-1]
	delete(m.index, k)
	delete(m.minW, k)
}

// pick returns a random existing slot not yet used in this batch that
// satisfies ok.
func (m *edgeModel) pick(used map[[2]int32]bool, ok func(k [2]int32) bool) [2]int32 {
	for {
		k := m.slots[m.r.Intn(len(m.slots))]
		if !used[k] && ok(k) {
			used[k] = true
			return k
		}
	}
}

// nextBatch generates the next mutation and applies it to the model.
// Additive: two weight decreases and two inserts. General: one delete, one
// weight increase, one decrease, one insert.
func (m *edgeModel) nextBatch(general bool) *mutate.Batch {
	used := map[[2]int32]bool{}
	var ops []mutate.Op
	decrease := func() {
		k := m.pick(used, func(k [2]int32) bool { return m.minW[k] > 1 })
		w := 1 + uint32(m.r.Intn(int(m.minW[k]-1)))
		ops = append(ops, mutate.Op{Op: mutate.OpSetWeight, U: k[0], V: k[1], W: w})
		m.minW[k] = w
	}
	insert := func() {
		for {
			k := slotOf(int32(m.r.Intn(m.n)), int32(m.r.Intn(m.n)))
			if used[k] {
				continue
			}
			used[k] = true
			w := 1 + uint32(m.r.Intn(int(m.maxW)))
			ops = append(ops, mutate.Op{Op: mutate.OpInsert, U: k[0], V: k[1], W: w})
			m.add(k[0], k[1], w)
			return
		}
	}
	if general {
		k := m.pick(used, func([2]int32) bool { return true })
		ops = append(ops, mutate.Op{Op: mutate.OpDelete, U: k[0], V: k[1]})
		m.remove(k)
		k = m.pick(used, func(k [2]int32) bool { return m.minW[k] < m.maxW })
		w := m.minW[k] + 1 + uint32(m.r.Intn(int(m.maxW-m.minW[k])))
		ops = append(ops, mutate.Op{Op: mutate.OpSetWeight, U: k[0], V: k[1], W: w})
		m.minW[k] = w // set_weight re-weights every copy
		decrease()
		insert()
	} else {
		decrease()
		decrease()
		insert()
		insert()
	}
	return &mutate.Batch{Ops: ops}
}
