package graph

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// FromBlocks builds the graph FromEdges builds from the concatenation of
// blocks, leaving out edge i of blocks[b] wherever bit i of skip[b] is set
// (a nil skip leaves out nothing), on up to workers goroutines. It is
// NewSort(n, blocks, workers).Graph(skip).
func FromBlocks(n int, blocks [][]Edge, skip [][]uint64, workers int) *Graph {
	return NewSort(n, blocks, workers).Graph(skip)
}

// A Sort is a stable counting sort of the edges of blocks, taken in order as
// if they were one list, into n buckets. The blocks are split into
// contiguous runs of about equal edge counts, one a worker, and each run has
// a cursor into every bucket, placed after the earlier runs' (Place), so what
// the sort lays out is the same at any worker count. Graph sorts the edges'
// arcs into the rows of a CSR; a caller may first use the same runs and
// cursors for a sort of its own.
type Sort struct {
	n      int
	blocks [][]Edge
	first  []int     // each run's first block, then len(blocks)
	cur    [][]int64 // each run's cursor into every bucket
	work   int       // goroutines for the passes over buckets
}

// NewSort splits blocks into runs for a sort into n buckets on up to workers
// goroutines. A run's cursors cost 8n bytes, so there are no more runs than
// blocks, nor than one for every 2n edges.
func NewSort(n int, blocks [][]Edge, workers int) *Sort {
	total := 0
	for _, blk := range blocks {
		total += len(blk)
	}
	k := max(1, min(workers, len(blocks), total/max(2*n, 1)))
	s := &Sort{n: n, blocks: blocks, first: make([]int, 1, k+1), work: max(1, workers)}
	seen := 0
	for b, blk := range blocks {
		if len(s.first) < k && seen >= total*len(s.first)/k && b > s.first[len(s.first)-1] {
			s.first = append(s.first, b)
		}
		seen += len(blk)
	}
	s.first = append(s.first, len(blocks))
	s.cur = make([][]int64, len(s.first)-1)
	s.Each(func(r, _, _ int) { s.cur[r] = make([]int64, n) })
	return s
}

// Each calls f for every run, each on its own goroutine when there are
// several, with the run's index and its range of blocks.
func (s *Sort) Each(f func(r, first, end int)) {
	ForEach(len(s.cur), func(r int) { f(r, s.first[r], s.first[r+1]) })
}

// Cursors is run r's cursor array, one int64 a bucket. New, it is zero and
// ready to count the run's entries in each bucket for Place.
func (s *Sort) Cursors(r int) []int64 { return s.cur[r] }

// Ends is where each bucket ends once every run has moved its cursors past
// its entries: the last run's cursors.
func (s *Sort) Ends() []int64 { return s.cur[len(s.cur)-1] }

// Place turns the runs' counts into cursors: Cursors(r)[v], the number of
// entries run r puts into bucket v, becomes the index of the first of them,
// after every earlier bucket's entries and after every earlier run's in
// bucket v. It returns the number of entries.
func (s *Sort) Place() int64 {
	n := s.n
	k := max(1, min(s.work, n>>10))
	base := make([]int64, k+1) // entries before each range of buckets
	ForEach(k, func(t int) {
		var sum int64
		for _, c := range s.cur {
			for _, x := range c[n*t/k : n*(t+1)/k] {
				sum += x
			}
		}
		base[t+1] = sum
	})
	for t := 0; t < k; t++ {
		base[t+1] += base[t]
	}
	ForEach(k, func(t int) {
		at := base[t]
		for v := n * t / k; v < n*(t+1)/k; v++ {
			for _, c := range s.cur {
				c[v], at = at, at+c[v]
			}
		}
	})
	return base[k]
}

// Graph builds the graph of the edges skip keeps (see FromBlocks) by sorting
// their arcs into rows, with the cursors cleared for it. It panics on a zero
// weight.
func (s *Sort) Graph(skip [][]uint64) *Graph {
	n, blocks := s.n, s.blocks
	g := &Graph{n: int32(n), offsets: make([]int64, n+1)}
	type tally struct {
		m          int64
		minW, maxW uint32
		zero       *Edge
	}
	tallies := make([]tally, len(s.cur))
	s.Each(func(r, first, end int) {
		c, t := s.cur[r], tally{minW: math.MaxUint32}
		clear(c)
		for b := first; b < end; b++ {
			blk := blocks[b]
			for k := 0; k < len(blk); k += 64 {
				for keep := kept(blk, skip, b, k); keep != 0; keep &= keep - 1 {
					e := &blk[k+bits.TrailingZeros64(keep)]
					if e.W == 0 {
						t.zero = e
					}
					c[e.U]++
					if e.U != e.V {
						c[e.V]++
					}
					t.m++
					t.minW, t.maxW = min(t.minW, e.W), max(t.maxW, e.W)
				}
			}
		}
		tallies[r] = t
	})
	g.minW = math.MaxUint32
	for _, t := range tallies {
		if t.zero != nil {
			panic(fmt.Sprintf("graph: zero-weight edge (%d,%d)", t.zero.U, t.zero.V))
		}
		g.m += t.m
		g.minW, g.maxW = min(g.minW, t.minW), max(g.maxW, t.maxW)
	}
	if g.m == 0 {
		g.minW = 0
	}
	total := s.Place()
	copy(g.offsets, s.cur[0])
	g.offsets[n] = total
	g.targets = make([]int32, total)
	g.weights = make([]uint32, total)
	s.Each(func(r, first, end int) {
		c := s.cur[r]
		for b := first; b < end; b++ {
			blk := blocks[b]
			for k := 0; k < len(blk); k += 64 {
				for keep := kept(blk, skip, b, k); keep != 0; keep &= keep - 1 {
					e := blk[k+bits.TrailingZeros64(keep)]
					i := c[e.U]
					c[e.U]++
					g.targets[i], g.weights[i] = e.V, e.W
					if e.U != e.V {
						j := c[e.V]
						c[e.V]++
						g.targets[j], g.weights[j] = e.U, e.W
					}
				}
			}
		}
	})
	return g
}

// kept is the mask of the edges blk[k:k+64] that skip keeps.
func kept(blk []Edge, skip [][]uint64, b, k int) uint64 {
	keep := ^uint64(0)
	if skip != nil {
		keep = ^skip[b][k>>6]
	}
	if rest := len(blk) - k; rest < 64 {
		keep &= 1<<rest - 1
	}
	return keep
}

// ForEach calls f(0), …, f(k-1), each on its own goroutine when k > 1, and
// returns when all have returned.
func ForEach(k int, f func(i int)) {
	if k == 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); f(i) }()
	}
	wg.Wait()
}
