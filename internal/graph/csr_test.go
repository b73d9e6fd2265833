package graph

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// sameGraph fails unless got has want's arrays and summary numbers.
func sameGraph(t *testing.T, got, want *Graph, what string) {
	t.Helper()
	if got.n != want.n || got.m != want.m || got.minW != want.minW || got.maxW != want.maxW ||
		!slices.Equal(got.offsets, want.offsets) || !slices.Equal(got.targets, want.targets) ||
		!slices.Equal(got.weights, want.weights) {
		t.Fatalf("%s: got %v, want %v", what, got, want)
	}
}

// TestFromBlocksMatchesFromEdges: however the edges are cut into blocks
// (empty ones included), whichever are skipped and however many goroutines
// sort them, the arrays are those FromEdges builds from the edges kept. At
// n = 4096 the runs are several and Place splits the buckets into ranges.
func TestFromBlocksMatchesFromEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 40, 4096} {
		edges := make([]Edge, 8*n)
		for i := range edges {
			edges[i] = Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n)), W: uint32(1 + rng.Intn(9))}
		}
		var (
			blocks [][]Edge
			skip   [][]uint64
			kept   []Edge
		)
		for rest := edges; len(rest) > 0; {
			blk := rest[:min(len(rest), rng.Intn(300))]
			rest = rest[len(blk):]
			sk := make([]uint64, (len(blk)+63)/64)
			for i, e := range blk {
				if rng.Intn(3) == 0 {
					sk[i>>6] |= 1 << (i & 63)
				} else {
					kept = append(kept, e)
				}
			}
			blocks, skip = append(blocks, blk), append(skip, sk)
		}
		all, want := FromEdges(n, edges), FromEdges(n, kept)
		for _, workers := range []int{1, 2, 3, 8} {
			sameGraph(t, FromBlocks(n, blocks, skip, workers), want, "skipping")
			sameGraph(t, FromBlocks(n, blocks, nil, workers), all, "keeping all")
		}
	}
}

// A zero weight panics in the caller's goroutine, however many sort.
func TestFromBlocksPanicsOnZeroWeight(t *testing.T) {
	blocks := [][]Edge{make([]Edge, 600), make([]Edge, 600)}
	for b := range blocks {
		for i := range blocks[b] {
			blocks[b][i] = Edge{U: 0, V: 1, W: 1}
		}
	}
	blocks[1][7].W = 0
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "zero-weight") {
			t.Fatalf("recovered %q, want a zero-weight panic", r)
		}
	}()
	FromBlocks(2, blocks, nil, 2)
}
