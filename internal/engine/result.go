package engine

import (
	"math/bits"
	"strconv"
	"sync"

	"repro/internal/graph"
	"repro/internal/mutate"
)

// Result is one immutable query answer, shared between the cache and every
// caller that received it. Read the distance vector through At and Len.
type Result struct {
	// Solver is the registry name of the solver that produced the vector.
	Solver string
	// Reached is the number of vertices with finite distance.
	Reached int
	// Eccentricity is the largest finite distance.
	Eccentricity int64
	// TargetDist is set on a partial result only (Len 0): the distance to
	// each of the request's Targets, in request order. Never cached or shared.
	TargetDist []int64

	vec vector

	g   *Gen // the generation the answer is for
	key string
	// pending is non-nil on an entry inherited across a mutation that may have
	// moved some of its distances: until resolve has run, the vector, Reached
	// and Eccentricity are those of the last generation it was exact on
	// (shared with that generation's cache), and only pending's lock guards
	// them. Query resolves before it hands a Result out.
	pending  *pending
	jsonOnce sync.Once
	distJSON []byte
}

// vector is a distance vector at the bits its largest finite distance needs:
// n codes of width bits each, packed low bits first into ⌈n·width/64⌉ words,
// the all-ones code where there is no path. graph.Inf keeps every finite
// distance below 2^61 − 1, so width is at most 61.
type vector struct {
	words []uint64
	n     int
	width uint
}

// widthFor is the code width of a vector whose largest finite distance is ecc:
// ecc itself must stay below the all-ones code.
func widthFor(ecc int64) uint { return uint(bits.Len64(uint64(ecc) + 1)) }

func (v *vector) mask() uint64 { return 1<<v.width - 1 }

// pack streams d into a vector of the given width through a shift register:
// codes fill acc from its low end, and each full word is stored once. (Every
// shift count below is under 64; the & 63 says so to the compiler.)
func pack(d []int64, width uint) vector {
	k := (len(d)*int(width) + 63) / 64
	v := vector{words: make([]uint64, k, allocBytes(8*k)/8), n: len(d), width: width}
	words, mask := v.words, v.mask()
	var acc uint64
	used, j := uint(0), 0
	for _, x := range d {
		c := mask
		if x < graph.Inf {
			c = uint64(x)
		}
		acc |= c << (used & 63)
		if used += width; used >= 64 {
			words[j] = acc
			j++
			used -= 64
			acc = c >> ((width - used) & 63) // the bits of c that did not fit
		}
	}
	if j < len(words) { // the last word's codes, unless they filled it
		words[j] = acc
	}
	return v
}

// code is the code that starts at bit: the word it starts in, and the next
// word for the bits that spill over. A code that fits its word masks off what
// it reads of the next one, which is the same word again for the last.
func code(words []uint64, bit uint, mask uint64) uint64 {
	i, s := bit/64, bit%64
	return (words[i]>>s | words[min(i+1, uint(len(words)-1))]<<1<<(63-s)) & mask
}

// unpack is the vector as plain distances (graph.Inf: unreachable), read
// through a shift register as pack wrote it.
func (v *vector) unpack() []int64 {
	d := make([]int64, v.n)
	words, width, mask := v.words, v.width, v.mask()
	var acc uint64
	avail, j := uint(0), 0 // avail: the bits of acc not yet read
	for i := range d {
		c := acc
		if avail < width {
			w := words[j]
			j++
			c |= w << (avail & 63)
			acc = w >> ((width - avail) & 63)
			avail += 64 - width
		} else {
			acc >>= width & 63
			avail -= width
		}
		if c &= mask; c != mask {
			d[i] = int64(c)
		} else {
			d[i] = graph.Inf
		}
	}
	return d
}

// pending is what an inherited entry still owes: one net change a slot, in
// slot order, from the graph its vector is exact on to this generation's (see
// Inherit), and what became of the repair once one ran. mu guards the
// Result's vector, Reached and Eccentricity while they may change: the first
// hit repairs under it, and a later write's Inherit reads under it.
type pending struct {
	mu      sync.Mutex
	changes []mutate.Change
	done    bool // resolve ran; the vector is exact unless failed
	failed  bool // the repair outgrew its budget; the entry answers nothing
}

// Len is the length of the distance vector: the vertex count, or 0 on a partial
// result.
func (r *Result) Len() int { return r.vec.n }

// At is the distance to v (graph.Inf: unreachable).
func (r *Result) At(v int) int64 { return r.vec.at(v) }

func (v *vector) at(i int) int64 {
	mask := v.mask()
	if c := code(v.words, uint(i)*v.width, mask); c != mask {
		return int64(c)
	}
	return graph.Inf
}

// put writes x as the code of i in place, unless x is finite and needs more
// bits than the vector has; it reports whether it wrote.
func (v *vector) put(i int, x int64) bool {
	mask := v.mask()
	c := mask
	if x < graph.Inf {
		if uint64(x) >= mask {
			return false
		}
		c = uint64(x)
	}
	bit := uint(i) * v.width
	w, s := bit/64, bit%64
	v.words[w] = v.words[w]&^(mask<<s) | c<<s
	if s+v.width > 64 { // the code spills into the next word
		v.words[w+1] = v.words[w+1]&^(mask>>(64-s)) | c>>(64-s)
	}
	return true
}

// tally is how many codes are finite, and the largest of them.
func (v *vector) tally() (reached int, ecc int64) {
	words, width, mask := v.words, v.width, v.mask()
	for i, bit := 0, uint(0); i < v.n; i, bit = i+1, bit+width {
		if c := code(words, bit, mask); c != mask {
			reached++
			ecc = max(ecc, int64(c))
		}
	}
	return reached, ecc
}

// Target is the distance to t, the request's i'th target: out of the vector, or
// out of TargetDist on a partial result.
func (r *Result) Target(i int, t int32) int64 {
	if r.TargetDist != nil {
		return r.TargetDist[i]
	}
	return r.At(int(t))
}

// allocBytes is what the allocator takes for n bytes past its largest size
// class, 32 KiB: whole 8 KiB pages. A vector or JSON buffer is allocated at
// that capacity, so a charge of its capacity is what it holds. (A size class
// rounds a smaller one up by at most an eighth, which the charge leaves out.)
func allocBytes(n int) int {
	if n <= 32<<10 {
		return n
	}
	return (n + 8<<10 - 1) &^ (8<<10 - 1)
}

// vectorBytes is what the vector occupies.
func (r *Result) vectorBytes() int64 { return 8 * int64(cap(r.vec.words)) }

// heldBytes is the vector and, on a pending entry, the list of changes it
// owes, at its capacity. It is read while nothing else holds r, or under its
// pending lock.
func (r *Result) heldBytes() int64 {
	if r.pending == nil {
		return r.vectorBytes()
	}
	return r.vectorBytes() + int64(cap(r.pending.changes))*changeBytes
}

// changeBytes is what one mutate.Change occupies: two int32 and two int64.
const changeBytes = 24

// detach packs a distance vector — a slot state's, or a resumed one — into
// the result: one pass tallies Reached and Eccentricity, and with them the
// width, a second packs.
func (r *Result) detach(d []int64) {
	reached, ecc := 0, int64(0)
	for _, x := range d {
		if x < graph.Inf {
			reached++
			ecc = max(ecc, x)
		}
	}
	r.Reached, r.Eccentricity = reached, ecc
	r.vec = pack(d, widthFor(ecc))
}

// DistJSON returns the JSON array form of the distance vector, with
// unreachable vertices encoded as -1. It is built at most once per Result;
// later calls — cache hits included — reuse the serialized bytes, which the
// engine counts as full_bytes_from_cache. The returned slice is immutable.
func (r *Result) DistJSON() []byte {
	first := false
	r.jsonOnce.Do(func() {
		first = true
		r.distJSON = r.encodeJSON()
		if r.g != nil {
			r.g.counters.C(cFullJSONBuilt).Inc()
			// The serialized form now lives alongside the vector; charge it
			// against the cache's byte budget.
			r.g.cache.grow(r, int64(cap(r.distJSON)))
		}
	})
	if !first && r.g != nil {
		r.g.counters.C(cFullBytesFromCache).Add(int64(len(r.distJSON)))
	}
	return r.distJSON
}

// encodeJSON writes the array in one pass over the codes, into a buffer
// allocated once at the longest the array can be: every element as wide as the
// eccentricity's digits, or as "-1", with its comma.
func (r *Result) encodeJSON() []byte {
	n := r.vec.n
	var ecc [20]byte
	digits := len(strconv.AppendInt(ecc[:0], r.Eccentricity, 10))
	buf := make([]byte, 0, allocBytes(2+n*(max(digits, 2)+1)))
	buf = append(buf, '[')
	words, width, mask := r.vec.words, r.vec.width, r.vec.mask()
	for i, bit := 0, uint(0); i < n; i, bit = i+1, bit+width {
		if i > 0 {
			buf = append(buf, ',')
		}
		if c := code(words, bit, mask); c != mask {
			buf = strconv.AppendUint(buf, c, 10)
		} else {
			buf = append(buf, '-', '1')
		}
	}
	return append(buf, ']')
}
