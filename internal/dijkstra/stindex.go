package dijkstra

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/par"
)

// STIndex is the s-t search's copy of a graph's adjacency: each CSR row as
// one word per arc, uint64(weight)<<32 | uint32(target), sorted by weight
// within the row. A settled vertex's row is one run of words instead of a
// run of targets and a run of weights, and the search can stop reading it at
// the first arc too heavy to matter (DESIGN.md §5, decision 16). Immutable
// once built; any number of scratches may search it at once.
type STIndex struct {
	offsets []int64  // the graph's: row v is arcs[offsets[v]:offsets[v+1]]
	arcs    []uint64 // weight<<32 | target, ascending within each row
}

// NewSTIndex builds g's index: one pass over the CSR arrays that inserts each
// row's words into sorted place as it reads them, allocating the arc
// array and nothing per row. The rows are split into blocks that rt's workers
// build side by side; a nil rt builds them on the caller.
func NewSTIndex(g *graph.Graph, rt par.Runtime) *STIndex {
	off, ts, ws := g.AdjOffsets(), g.Targets(), g.Weights()
	n := g.NumVertices()
	arcs := make([]uint64, len(ts))
	blocks := (n + stIndexBlock - 1) / stIndexBlock
	fill := func(b int) {
		for v := b * stIndexBlock; v < min(n, (b+1)*stIndexBlock); v++ {
			lo, hi := off[v], off[v+1]
			row, rts, rws := arcs[lo:hi:hi], ts[lo:hi], ws[lo:hi]
			if len(row) > smallRow {
				for i, u := range rts {
					row[i] = uint64(rws[i])<<32 | uint64(uint32(u))
				}
				slices.Sort(row)
				continue
			}
			// Each word is inserted as it is made, without a data-dependent
			// branch: with row[:i] sorted and row[i] = a, slot j of the result
			// is max(row[j-1], min(row[j], a)) — the word shifted up, a
			// itself, or the word left in place — so a random weight costs no
			// misprediction.
			for i, u := range rts {
				a := uint64(rws[i])<<32 | uint64(uint32(u))
				row[i] = a
				for j := i; j > 0; j-- {
					row[j] = max(row[j-1], min(row[j], a))
				}
				row[0] = min(row[0], a)
			}
		}
	}
	if rt == nil {
		for b := 0; b < blocks; b++ {
			fill(b)
		}
	} else {
		rt.For(blocks, fill)
	}
	return &STIndex{offsets: off, arcs: arcs}
}

// smallRow is the longest row insertion-sorted in place; a longer one (an
// R-MAT hub's) takes slices.Sort, whose comparisons grow as d log d, not d².
const smallRow = 16

// stIndexBlock is the rows a worker builds at a time: enough that handing out
// a block costs nothing next to sorting it.
const stIndexBlock = 1024

// NumVertices is the indexed graph's vertex count.
func (x *STIndex) NumVertices() int { return max(len(x.offsets)-1, 0) }

// Bytes is the index's own memory: the arc words (the offsets are the
// graph's).
func (x *STIndex) Bytes() int64 { return 8 * int64(len(x.arcs)) }
