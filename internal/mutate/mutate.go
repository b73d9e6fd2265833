package mutate

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/ch"
	"repro/internal/graph"
)

// Op kinds accepted in a mutation batch.
const (
	OpSetWeight = "set_weight"
	OpInsert    = "insert"
	OpDelete    = "delete"
)

// Limits on one mutation request. MaxOps bounds validation and repair work
// per call; MaxRequestBytes bounds the JSON body a server will buffer.
const (
	MaxOps          = 65536
	MaxRequestBytes = 4 << 20
)

// ErrInvalid marks a batch that fails validation — a malformed op, an
// out-of-range endpoint, a reference to a missing edge, or conflicting ops on
// one edge. Servers map it to 400; everything else is an internal failure.
var ErrInvalid = errors.New("invalid mutation")

// Op is one edge mutation. set_weight re-weights every stored copy of edge
// (u,v) — parallel copies do not survive with distinct weights; delete
// removes every copy; insert adds one new copy (parallel edges and
// self-loops are allowed, matching what the DIMACS generators emit).
type Op struct {
	Op string `json:"op"`
	U  int32  `json:"u"`
	V  int32  `json:"v"`
	W  uint32 `json:"w,omitempty"`
}

// Batch is one mutation request: ops applied together as a single delta,
// producing one new generation. At most one op per undirected edge slot is
// allowed per batch — sequencing within a batch would make the delta
// order-sensitive and the replay log ambiguous.
type Batch struct {
	Ops []Op `json:"ops"`
}

// ParseRequest decodes a JSON mutation request strictly: unknown fields,
// trailing garbage, and bodies over MaxRequestBytes are rejected. The result
// still needs Validate against the target graph.
func ParseRequest(r io.Reader) (*Batch, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxRequestBytes+1))
	dec.DisallowUnknownFields()
	var b Batch
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("%w: bad request body: %v", ErrInvalid, err)
	}
	if err := checkTrailing(dec); err != nil {
		return nil, err
	}
	return &b, nil
}

func checkTrailing(dec *json.Decoder) error {
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("%w: trailing data after request object", ErrInvalid)
	}
	return nil
}

// pairKey normalizes an undirected edge slot.
func pairKey(u, v int32) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}

// Validate checks the batch against the graph it will be applied to: op kinds
// and endpoint ranges, weight bounds (the same ones Builder.AddEdge
// enforces), existence of set_weight/delete targets, and one-op-per-edge.
// All failures wrap ErrInvalid.
func (b *Batch) Validate(g *graph.Graph) error {
	if len(b.Ops) == 0 {
		return fmt.Errorf("%w: batch has no ops", ErrInvalid)
	}
	if len(b.Ops) > MaxOps {
		return fmt.Errorf("%w: batch has %d ops (max %d)", ErrInvalid, len(b.Ops), MaxOps)
	}
	n := int32(g.NumVertices())
	seen := make(map[[2]int32]bool, len(b.Ops))
	for i, op := range b.Ops {
		if op.U < 0 || op.U >= n || op.V < 0 || op.V >= n {
			return fmt.Errorf("%w: op %d: edge (%d,%d) out of range [0,%d)", ErrInvalid, i, op.U, op.V, n)
		}
		k := pairKey(op.U, op.V)
		if seen[k] {
			return fmt.Errorf("%w: op %d: duplicate op on edge (%d,%d)", ErrInvalid, i, k[0], k[1])
		}
		seen[k] = true
		switch op.Op {
		case OpSetWeight, OpInsert:
			if op.W == 0 {
				return fmt.Errorf("%w: op %d: %s needs a positive weight", ErrInvalid, i, op.Op)
			}
			if op.W > graph.MaxWeight {
				return fmt.Errorf("%w: op %d: weight %d exceeds max %d", ErrInvalid, i, op.W, graph.MaxWeight)
			}
		case OpDelete:
			if op.W != 0 {
				return fmt.Errorf("%w: op %d: delete takes no weight", ErrInvalid, i)
			}
		default:
			return fmt.Errorf("%w: op %d: unknown op %q (want %s, %s, or %s)", ErrInvalid, i, op.Op, OpSetWeight, OpInsert, OpDelete)
		}
		if op.Op == OpSetWeight || op.Op == OpDelete {
			if !edgeExists(g, op.U, op.V) {
				return fmt.Errorf("%w: op %d: %s of missing edge (%d,%d)", ErrInvalid, i, op.Op, op.U, op.V)
			}
		}
	}
	return nil
}

func edgeExists(g *graph.Graph, u, v int32) bool {
	ts, _ := g.Neighbors(u)
	for _, t := range ts {
		if t == v {
			return true
		}
	}
	return false
}

// Split separates the batch into the three normalized lists graph.Overlay
// takes.
func (b *Batch) Split() (set, ins, del []graph.Edge) {
	for _, op := range b.Ops {
		e := graph.Edge{U: op.U, V: op.V, W: op.W}
		switch op.Op {
		case OpSetWeight:
			set = append(set, e)
		case OpInsert:
			ins = append(ins, e)
		case OpDelete:
			del = append(del, e)
		}
	}
	return set, ins, del
}

// Touched returns the sorted distinct endpoints of every op — the dirty leaf
// set ch.Repair starts from.
func (b *Batch) Touched() []int32 {
	out := make([]int32, 0, 2*len(b.Ops))
	for _, op := range b.Ops {
		out = append(out, op.U, op.V)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// EncodeDelta renders the batch in its canonical byte form: the form the
// catalog's replay log stores and repro files embed. DecodeDelta inverts it
// exactly (the fuzz target holds ParseRequest-accepted batches to the same
// round-trip).
func EncodeDelta(b *Batch) []byte {
	data, err := json.Marshal(b)
	if err != nil {
		// Batch is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("mutate: encode delta: %v", err))
	}
	return data
}

// DecodeDelta parses a canonical delta produced by EncodeDelta.
func DecodeDelta(data []byte) (*Batch, error) {
	return ParseRequest(bytes.NewReader(data))
}

// Apply validates the batch and produces the mutated graph through the
// copy-on-write overlay. aliased reports that the result shares CSR arrays
// with g (weight-only batches), in which case g's backing storage must
// outlive the result.
func Apply(g *graph.Graph, b *Batch) (g2 *graph.Graph, aliased bool, err error) {
	if err := b.Validate(g); err != nil {
		return nil, false, err
	}
	set, ins, del := b.Split()
	g2, aliased, err = g.Overlay(set, ins, del)
	if err != nil {
		// Validate vouched for the batch; an overlay rejection is a bug here,
		// not client error.
		return nil, false, fmt.Errorf("mutate: overlay after validation: %v", err)
	}
	return g2, aliased, nil
}

// Change is what a batch did to one undirected edge slot, as a shortest path
// sees it: the weight of the lightest stored copy before and after, graph.Inf
// where no copy is stored.
type Change struct {
	U, V          int32
	Before, After int64
}

// Changes compares every slot b names between before and after = before + b,
// and returns those whose lightest copy moved. (A parallel insert above the
// lightest copy, or a set_weight of copies to their minimum, moves nothing.)
func Changes(before, after *graph.Graph, b *Batch) []Change {
	out := make([]Change, 0, len(b.Ops))
	for _, op := range b.Ops {
		if c := (Change{op.U, op.V, lightest(before, op.U, op.V), lightest(after, op.U, op.V)}); c.Before != c.After {
			out = append(out, c)
		}
	}
	return out
}

func lightest(g *graph.Graph, u, v int32) int64 {
	w := graph.Inf
	ts, ws := g.Neighbors(u)
	for i, t := range ts {
		if t == v && int64(ws[i]) < w {
			w = int64(ws[i])
		}
	}
	return w
}

// ReferenceApply replays batches onto g's edge multiset naively — no overlay,
// no repair, just list surgery and a from-scratch CSR build — and returns the
// resulting graph. It is the independent reference the stress oracle and the
// tests diff the incremental machinery against, so it must stay
// implementation-disjoint from Apply.
func ReferenceApply(g *graph.Graph, batches ...*Batch) (*graph.Graph, error) {
	edges := g.Edges()
	for bi, b := range batches {
		for i, op := range b.Ops {
			k := pairKey(op.U, op.V)
			switch op.Op {
			case OpSetWeight:
				found := 0
				for j := range edges {
					if pairKey(edges[j].U, edges[j].V) == k {
						edges[j].W = op.W
						found++
					}
				}
				if found == 0 {
					return nil, fmt.Errorf("%w: batch %d op %d: set_weight of missing edge (%d,%d)", ErrInvalid, bi, i, op.U, op.V)
				}
			case OpDelete:
				kept := edges[:0]
				found := 0
				for _, e := range edges {
					if pairKey(e.U, e.V) == k {
						found++
						continue
					}
					kept = append(kept, e)
				}
				if found == 0 {
					return nil, fmt.Errorf("%w: batch %d op %d: delete of missing edge (%d,%d)", ErrInvalid, bi, i, op.U, op.V)
				}
				edges = kept
			case OpInsert:
				edges = append(edges, graph.Edge{U: op.U, V: op.V, W: op.W})
			default:
				return nil, fmt.Errorf("%w: batch %d op %d: unknown op %q", ErrInvalid, bi, i, op.Op)
			}
		}
	}
	return graph.FromEdges(g.NumVertices(), edges), nil
}

// Options tunes Mutate.
type Options struct {
	// InjectFault, for tests only, makes Mutate mis-apply the first weighted op
	// by one — the planted repair bug the stress harness proves its mutation
	// oracle catches.
	InjectFault bool
}

// Result is an accepted mutation: G is the overlay graph, H the incrementally
// repaired hierarchy (nil when Mutate was given none), and Aliased reports
// whether G shares arrays with the parent graph.
type Result struct {
	G       *graph.Graph
	H       *ch.Hierarchy
	Aliased bool
	Stats   ch.RepairStats
	// Additive reports that the repair ran on the additive fast path (no
	// deletes, no weight increases): structure replayed from the old
	// hierarchy instead of re-sweeping the graph's edges.
	Additive bool
	// Touched is the distinct mutated-endpoint count.
	Touched int
	// Fallback is always false: every batch is repaired, whatever its width —
	// ch.Repair is the build's own sweep, run over the edges crossing kept
	// subtrees (DESIGN.md §5, decision 18). The field stays because the
	// benchmark module (bench/), which this module does not change, reads it.
	Fallback bool
}

// Mutate validates the batch against g and applies it: a copy-on-write
// overlay, plus a repair of h when h is non-nil — the additive repair when the
// batch only adds connectivity, the general one otherwise — whatever the
// batch's width. Validation errors wrap ErrInvalid; any other error means the
// incremental machinery itself failed.
func Mutate(g *graph.Graph, h *ch.Hierarchy, b *Batch, opts Options) (*Result, error) {
	if err := b.Validate(g); err != nil {
		return nil, err
	}
	touched := b.Touched()
	res := &Result{Touched: len(touched)}

	applied := b
	if opts.InjectFault {
		applied = corruptForTest(b)
	}
	set, ins, del := applied.Split()
	var err error
	if res.G, res.Aliased, err = g.Overlay(set, ins, del); err != nil {
		return nil, fmt.Errorf("mutate: overlay: %v", err)
	}
	if h == nil {
		return res, nil
	}
	if len(del) == 0 && setsNonIncreasing(g, set) {
		// Connectivity can only grow: every insert adds an edge and every
		// set_weight lowers one, so the additive repair can replay the old
		// hierarchy's structure instead of re-sweeping the graph's edges.
		added := make([]graph.Edge, 0, len(ins)+len(set))
		added = append(added, ins...)
		added = append(added, set...)
		res.H, res.Stats, err = ch.RepairAdditive(h, res.G, added)
		res.Additive = true
	} else {
		res.H, res.Stats, err = ch.Repair(h, res.G, touched)
	}
	if err != nil {
		return nil, fmt.Errorf("mutate: repair: %v", err)
	}
	return res, nil
}

// setsNonIncreasing reports whether every set_weight op lowers (or keeps) the
// weight of every stored copy of its edge — the condition under which a
// re-weight only adds connectivity and qualifies for the additive repair.
func setsNonIncreasing(g *graph.Graph, set []graph.Edge) bool {
	for _, e := range set {
		ts, ws := g.Neighbors(e.U)
		for i, t := range ts {
			if t == e.V && ws[i] < e.W {
				return false
			}
		}
	}
	return true
}

// corruptForTest returns a copy of the batch with the first weighted op's
// weight off by one — a minimal model of a repair that applied the delta
// wrong, invisible to structural validation but visible to a distance oracle.
func corruptForTest(b *Batch) *Batch {
	ops := append([]Op(nil), b.Ops...)
	for i := range ops {
		if ops[i].Op != OpSetWeight && ops[i].Op != OpInsert {
			continue
		}
		if ops[i].W < graph.MaxWeight {
			ops[i].W++
		} else {
			ops[i].W--
		}
		break
	}
	return &Batch{Ops: ops}
}
