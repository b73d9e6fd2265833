package engine

import (
	"bytes"
	"encoding/json"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/rng"
)

// FuzzResultVector: a random vector at a width of 1–61 bits, with unreachable
// entries and a length that ends anywhere in a word, reads back the same
// through At, the unpack and DistJSON after detach has packed it.
func FuzzResultVector(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint8(1), uint8(0))
	f.Add(uint64(2), uint16(1), uint8(1), uint8(255))
	f.Add(uint64(3), uint16(65), uint8(62), uint8(40))
	f.Add(uint64(4), uint16(300), uint8(18), uint8(10))
	f.Add(uint64(5), uint16(64), uint8(32), uint8(0))
	f.Add(uint64(6), uint16(7), uint8(33), uint8(128))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, w, unreachable uint8) {
		width := 1 + uint(w)%62
		// The largest distance that fits (all ones is unreachable), and that is
		// finite: at 62 bits graph.Inf is the bound, and the vector 61 bits.
		top := min(int64(1)<<width-2, graph.Inf-1)
		r := rng.New(seed)
		d := make([]int64, int(n)%2048)
		want := make([]int64, len(d))
		for i := range d {
			if r.Intn(256) < int(unreachable) {
				d[i], want[i] = graph.Inf, -1
			} else {
				d[i] = int64(r.Uint64() % uint64(top+1))
				want[i] = d[i]
			}
		}
		if len(d) > 0 {
			i := r.Intn(len(d))
			d[i], want[i] = top, top // the width is the eccentricity's
		}

		var res Result
		res.detach(slices.Clone(d))
		wantWidth := widthFor(top)
		if res.Reached == 0 {
			wantWidth = 1
		}
		if res.vec.width != wantWidth || len(res.vec.words) != (len(d)*int(wantWidth)+63)/64 || res.vectorBytes() != vectorSize(len(d), wantWidth) || res.Len() != len(d) {
			t.Fatalf("n %d: %d bits in %d bytes, want %d bits", len(d), res.vec.width, res.vectorBytes(), wantWidth)
		}
		for i, x := range d {
			if res.At(i) != x {
				t.Fatalf("width %d, n %d: At(%d) = %d, want %d", width, len(d), i, res.At(i), x)
			}
		}
		if got := res.vec.unpack(); !slices.Equal(got, d) {
			t.Fatalf("width %d, n %d: unpack differs", width, len(d))
		}
		js, _ := json.Marshal(want)
		if got := res.DistJSON(); !bytes.Equal(got, js) || cap(got) < len(got) {
			t.Fatalf("width %d: DistJSON %.80s, want %.80s", width, got, js)
		}
	})
}

// DistJSON allocates its buffer once, at the size the eccentricity bounds.
func TestEncodeJSONAllocatesOnce(t *testing.T) {
	d := make([]int64, 1<<12)
	for i := range d {
		d[i] = int64(i) * 97
	}
	d[5] = graph.Inf
	var res Result
	res.detach(d)
	if allocs := testing.AllocsPerRun(5, func() { res.encodeJSON() }); allocs != 1 {
		t.Fatalf("%v allocations a serialization, want 1", allocs)
	}
}

// A vector whose codes fill its last word exactly takes no word past them, and
// every path through it reads and writes that word right: At, put, the unpack,
// tally, DistJSON, and the repair of a pending entry. A 2^16-vertex vector at
// 18 bits, rand16's width, is 18 pages.
func TestVectorFillsItsLastWord(t *testing.T) {
	for _, tc := range []struct {
		n     int
		width uint
	}{{64, 1}, {64, 17}, {64, 61}, {32, 18}, {1 << 16, 18}} {
		top := int64(1)<<tc.width - 2
		r := rng.New(uint64(tc.n) + uint64(tc.width))
		d := make([]int64, tc.n)
		for i := range d {
			d[i] = int64(r.Uint64() % uint64(top+1))
		}
		d[0], d[tc.n-1] = top, graph.Inf // the last code is all ones
		var res Result
		res.detach(slices.Clone(d))
		if words := tc.n * int(tc.width) / 64; res.vec.width != tc.width || len(res.vec.words) != words || res.vectorBytes() != int64(allocBytes(8*words)) {
			t.Fatalf("n %d: %d bits in %d words, want %d bits in %d", tc.n, res.vec.width, len(res.vec.words), tc.width, words)
		}
		check := func(what string) {
			t.Helper()
			want := make([]int64, len(d))
			reached, ecc := 0, int64(0)
			for i, x := range d {
				if res.At(i) != x {
					t.Fatalf("%s, n %d, width %d: At(%d) = %d, want %d", what, tc.n, tc.width, i, res.At(i), x)
				}
				if want[i] = -1; x < graph.Inf {
					want[i], reached, ecc = x, reached+1, max(ecc, x)
				}
			}
			if !slices.Equal(res.vec.unpack(), d) {
				t.Fatalf("%s, n %d, width %d: unpack differs", what, tc.n, tc.width)
			}
			if gr, ge := res.vec.tally(); gr != reached || ge != ecc {
				t.Fatalf("%s, n %d, width %d: tally %d, %d, want %d, %d", what, tc.n, tc.width, gr, ge, reached, ecc)
			}
			res.jsonOnce, res.distJSON = sync.Once{}, nil
			if js, _ := json.Marshal(want); !bytes.Equal(res.DistJSON(), js) {
				t.Fatalf("%s, n %d, width %d: DistJSON differs", what, tc.n, tc.width)
			}
		}
		check("packed")
		for i, x := range map[int]int64{tc.n - 1: top, tc.n - 2: top / 3, 0: graph.Inf} {
			if d[i] = x; !res.vec.put(i, x) {
				t.Fatalf("n %d, width %d: put(%d, %d) refused", tc.n, tc.width, i, d[i])
			}
		}
		check("put")
	}
	if got := vectorSize(1<<16, 18); got != 18*8<<10 {
		t.Fatalf("a rand16 vector takes %d bytes, want 18 pages", got)
	}

	// 64 vertices: every width fills the vector's last word.
	g1 := testInstance(t, 64, 256).G
	b := &mutate.Batch{Ops: []mutate.Op{{Op: mutate.OpInsert, U: 0, V: 63, W: 1}}}
	g2, _, _ := mutate.Apply(g1, b)
	e1 := engineOn(g1, Config{CacheEntries: 4})
	ask(t, e1, 0)
	e2, _, pending, _ := inherit(e1, g2, mutate.Changes(g1, g2, b))
	res, via := ask(t, e2, 0)
	if pending != 1 || via != ViaCache || e2.Counter(cResumed) != 1 {
		t.Fatalf("%d pending, answered via %v, %d resumed; want the entry repaired on its hit", pending, via, e2.Counter(cResumed))
	}
	if len(res.vec.words) != int(res.vec.width) {
		t.Fatalf("the repaired vector is %d words at width %d", len(res.vec.words), res.vec.width)
	}
	sameAsCold(t, "repaired", res, g2, 0)
}
