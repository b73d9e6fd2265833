package verify

import (
	"fmt"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
)

// Error describes a certification failure.
type Error struct {
	Rule   string // which rule failed
	Vertex int32
	Detail string
}

func (e *Error) Error() string {
	return fmt.Sprintf("verify: %s at vertex %d: %s", e.Rule, e.Vertex, e.Detail)
}

// precheck validates shape and source set and returns the source indicator
// array shared by both certification entry points.
func precheck(g *graph.Graph, sources []int32, dist []int64) ([]bool, *Error) {
	n := g.NumVertices()
	if len(dist) != n {
		return nil, &Error{Rule: "shape", Vertex: -1,
			Detail: fmt.Sprintf("%d distances for %d vertices", len(dist), n)}
	}
	if len(sources) == 0 && n > 0 {
		return nil, &Error{Rule: "sources", Vertex: -1, Detail: "empty source set"}
	}
	isSource := make([]bool, n)
	for _, s := range sources {
		if s < 0 || int(s) >= n {
			return nil, &Error{Rule: "sources", Vertex: s, Detail: "source out of range"}
		}
		isSource[s] = true
	}
	return isSource, nil
}

// checkVertex applies rules (1)-(3) at one vertex and returns the first
// violation, or nil. It is the shared kernel of Distances and
// DistancesSerial.
func checkVertex(g *graph.Graph, isSource []bool, dist []int64, v int32) *Error {
	dv := dist[v]
	switch {
	case dv < 0:
		return &Error{Rule: "range", Vertex: v, Detail: fmt.Sprintf("negative distance %d", dv)}
	case dv == 0 && !isSource[v]:
		return &Error{Rule: "zero", Vertex: v, Detail: "distance 0 at a non-source"}
	case dv != 0 && isSource[v]:
		return &Error{Rule: "zero", Vertex: v, Detail: fmt.Sprintf("source with distance %d", dv)}
	}
	ts, ws := g.Neighbors(v)
	tight := dv == 0 || dv == graph.Inf
	for i, u := range ts {
		if u == v {
			continue
		}
		w := int64(ws[i])
		du := dist[u]
		if du != graph.Inf && dv > du+w {
			return &Error{Rule: "feasibility", Vertex: v,
				Detail: fmt.Sprintf("d=%d but neighbour %d offers %d+%d", dv, u, du, w)}
		}
		if !tight && du != graph.Inf && du+w == dv {
			tight = true
		}
	}
	if !tight {
		return &Error{Rule: "tightness", Vertex: v,
			Detail: fmt.Sprintf("finite distance %d has no tight incoming edge", dv)}
	}
	return nil
}

// Distances certifies that dist is the exact shortest-path distance labelling
// of g from the given source set. It returns nil on success and a *Error
// describing the first violation found otherwise. The sweep runs on rt.
func Distances(rt par.Runtime, g *graph.Graph, sources []int32, dist []int64) error {
	isSource, perr := precheck(g, sources, dist)
	if perr != nil {
		return perr
	}
	var failure atomic.Pointer[Error]
	rt.For(g.NumVertices(), func(vi int) {
		if failure.Load() != nil {
			return
		}
		rt.Charge(int64(g.Degree(int32(vi))))
		if e := checkVertex(g, isSource, dist, int32(vi)); e != nil {
			failure.CompareAndSwap(nil, e)
		}
	})
	if e := failure.Load(); e != nil {
		return e
	}
	return nil
}

// DistancesSerial is Distances without a parallel runtime: a deterministic
// serial sweep reporting the lowest-vertex violation first. Harnesses that
// certify many small labellings (internal/stress) use it so certification
// stays cheap, single-threaded, and reproducible; it accepts the same
// multi-source source sets as Distances.
func DistancesSerial(g *graph.Graph, sources []int32, dist []int64) error {
	isSource, perr := precheck(g, sources, dist)
	if perr != nil {
		return perr
	}
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if e := checkVertex(g, isSource, dist, v); e != nil {
			return e
		}
	}
	return nil
}

// Tree certifies that parent is a valid shortest-path tree for dist: parents
// are -1 exactly at sources and unreachable vertices, and every other parent
// edge is tight. Distances must already be certified (or trusted).
func Tree(g *graph.Graph, sources []int32, dist []int64, parent []int32) error {
	n := g.NumVertices()
	if len(parent) != n || len(dist) != n {
		return &Error{Rule: "shape", Vertex: -1, Detail: "length mismatch"}
	}
	isSource := make([]bool, n)
	for _, s := range sources {
		isSource[s] = true
	}
	for v := int32(0); v < int32(n); v++ {
		p := parent[v]
		if isSource[v] || dist[v] == graph.Inf {
			if p != -1 {
				return &Error{Rule: "tree", Vertex: v, Detail: "source/unreachable vertex has a parent"}
			}
			continue
		}
		if p < 0 || int(p) >= n {
			return &Error{Rule: "tree", Vertex: v, Detail: fmt.Sprintf("invalid parent %d", p)}
		}
		ts, ws := g.Neighbors(p)
		ok := false
		for i, u := range ts {
			if u == v && dist[p]+int64(ws[i]) == dist[v] {
				ok = true
				break
			}
		}
		if !ok {
			return &Error{Rule: "tree", Vertex: v, Detail: fmt.Sprintf("parent edge (%d,%d) not tight", p, v)}
		}
	}
	return nil
}

// Path reconstructs the shortest path from the source set to v using a
// certified parent array, returned as source-to-v vertex sequence. It returns
// nil if v is unreachable.
func Path(dist []int64, parent []int32, v int32) []int32 {
	if dist[v] == graph.Inf {
		return nil
	}
	var rev []int32
	for x := v; x >= 0; x = parent[x] {
		rev = append(rev, x)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
