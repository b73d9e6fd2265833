package engine

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/graph"
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
		if res.vec.width != wantWidth || len(res.vec.words) != (len(d)*int(wantWidth)+63)/64+1 || res.vectorBytes() != vectorSize(len(d), wantWidth) || res.Len() != len(d) {
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
