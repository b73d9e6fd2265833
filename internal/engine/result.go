package engine

import (
	"math"
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

	// The vector, at one of two widths: 32 bits a distance whenever the largest
	// finite one fits under the unreachable mark (half the bytes a cached
	// answer holds), 64 otherwise. At most one is non-nil.
	narrow []uint32 // unreachable32 where there is no path
	wide   []int64  // graph.Inf where there is no path

	e   *Engine
	key string
	// stale is non-nil on an entry inherited across a mutation that made some
	// distances shorter: until resolve has run, the vector is the parent
	// generation's (shared with it, an upper bound) and Reached and Eccentricity
	// are unset. Query resolves before it hands a Result out.
	stale    *staleness
	jsonOnce sync.Once
	distJSON []byte
}

const unreachable32 = math.MaxUint32

// staleness is what an inherited entry still owes: the edge slots that got
// cheaper and improve an endpoint of its vector.
type staleness struct {
	once  sync.Once
	seeds []mutate.Change
}

// Len is the length of the distance vector: the vertex count, or 0 on a partial
// result.
func (r *Result) Len() int {
	if r.wide != nil {
		return len(r.wide)
	}
	return len(r.narrow)
}

// At is the distance to v (graph.Inf: unreachable).
func (r *Result) At(v int) int64 {
	if r.wide != nil {
		return r.wide[v]
	}
	if d := r.narrow[v]; d != unreachable32 {
		return int64(d)
	}
	return graph.Inf
}

// Target is the distance to t, the request's i'th target: out of the vector, or
// out of TargetDist on a partial result.
func (r *Result) Target(i int, t int32) int64 {
	if r.TargetDist != nil {
		return r.TargetDist[i]
	}
	return r.At(int(t))
}

// set lowers v's distance in a vector this Result owns, widening it if d does
// not fit.
func (r *Result) set(v int32, d int64) {
	if r.wide == nil && d >= unreachable32 {
		wide := make([]int64, len(r.narrow))
		for i := range wide {
			wide[i] = r.At(i)
		}
		r.narrow, r.wide = nil, wide
	}
	if r.wide != nil {
		r.wide[v] = d
	} else {
		r.narrow[v] = uint32(d)
	}
}

// vectorBytes is what the vector occupies.
func (r *Result) vectorBytes() int64 { return 4*int64(len(r.narrow)) + 8*int64(len(r.wide)) }

// detach copies a pooled state's distance vector into the result, tallying
// Reached and Eccentricity — and with it the width — in the same pass.
func (r *Result) detach(pooled []int64) {
	narrow := make([]uint32, len(pooled))
	for v, d := range pooled {
		if d >= graph.Inf {
			narrow[v] = unreachable32
		} else {
			narrow[v] = uint32(d) // meaningless past the mark: the vector is then wide
		}
		r.count(d)
	}
	if r.Eccentricity < unreachable32 {
		r.narrow = narrow
	} else {
		r.wide = append([]int64(nil), pooled...)
	}
}

func (r *Result) count(d int64) {
	if d < graph.Inf {
		r.Reached++
		if d > r.Eccentricity {
			r.Eccentricity = d
		}
	}
}

// DistJSON returns the JSON array form of the distance vector, with
// unreachable vertices encoded as -1. It is built at most once per Result;
// later calls — cache hits included — reuse the serialized bytes, which the
// engine counts as full_bytes_from_cache. The returned slice is immutable.
func (r *Result) DistJSON() []byte {
	first := false
	r.jsonOnce.Do(func() {
		first = true
		n := r.Len()
		buf := make([]byte, 0, 4*n+2)
		buf = append(buf, '[')
		for i := 0; i < n; i++ {
			if i > 0 {
				buf = append(buf, ',')
			}
			if d := r.At(i); d >= graph.Inf {
				buf = append(buf, '-', '1')
			} else {
				buf = strconv.AppendInt(buf, d, 10)
			}
		}
		buf = append(buf, ']')
		r.distJSON = buf
		if r.e != nil {
			r.e.counters.C(cFullJSONBuilt).Inc()
			// The serialized form now lives alongside the vector; charge it
			// against the cache's byte budget.
			r.e.cache.grow(r, int64(len(buf)))
		}
	})
	if !first && r.e != nil {
		r.e.counters.C(cFullBytesFromCache).Add(int64(len(r.distJSON)))
	}
	return r.distJSON
}
