package dimacs

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

const (
	// maxVertices bounds the problem line's vertex count, which the CSR
	// offsets are allocated from: a 20-byte file must not ask for 16 GB.
	// cli.Spec.Generate puts the same bound on generated instances.
	maxVertices = 1 << 28
	readBlock   = 1 << 20 // text per parse task, cut back to a line end
	maxQuoted   = 64      // bytes of an offending line an error repeats
)

// ReadGraph parses a .gr file into an undirected graph; the package comment
// has the rule that pairs arcs up into edges. The text is read in blocks cut
// at line ends and tokenised on GOMAXPROCS goroutines. Memory in flight is a
// few blocks plus the arc array: never the whole file, never a size taken
// from the problem line.
func ReadGraph(r io.Reader) (*graph.Graph, error) {
	return readGraph(r, readBlock, runtime.GOMAXPROCS(0))
}

// chunk is what one block of whole lines parsed to.
type chunk struct {
	arcs  []graph.Edge // validated arcs in file order, 0-based endpoints
	lines int          // lines parsed: all of the block's, or up to a bad one
	n, m  int64        // the block's problem line; n < 0 when it has none
	err   string       // what is wrong with the last line parsed, "" if nothing
}

// readGraph is ReadGraph with the two sizes its tests vary.
func readGraph(r io.Reader, blockSize, workers int) (*graph.Graph, error) {
	var (
		chunks   []*chunk
		n        int64 = -1 // vertex count, once a problem line has been read
		declared int64
		failed   atomic.Bool // a block has an error: later blocks cannot matter
		wg       sync.WaitGroup
		sem      = make(chan struct{}, workers)
		// At most workers blocks are being parsed while one fills and one
		// holds its carried-over tail, so free never blocks a sender.
		free    = make(chan []byte, workers+2)
		buf     = make([]byte, blockSize)
		fill    int
		readErr error
	)
	for readErr == nil && !failed.Load() {
		for fill < len(buf) && readErr == nil {
			var k int
			k, readErr = r.Read(buf[fill:])
			fill += k
		}
		cut, next := fill, []byte(nil) // at the end of input the last line needs no newline
		if readErr == nil {
			if cut = bytes.LastIndexByte(buf, '\n') + 1; cut == 0 {
				buf = append(buf, make([]byte, len(buf))...) // one line outgrew the block
				continue
			}
			// The next block starts with this one's cut-off last line.
			select {
			case next = <-free:
			default:
				next = make([]byte, blockSize)
			}
			next = append(next[:0], buf[cut:fill]...)
			fill = len(next)
			next = next[:cap(next)]
		}

		c, block := &chunk{n: -1}, buf
		chunks = append(chunks, c)
		parse := func() {
			c.parse(block[:cut], n)
			if c.err != "" {
				failed.Store(true)
			}
			free <- block
		}
		if n < 0 {
			// Arcs are checked against the problem line, so blocks are parsed
			// here, in order, until it has been seen.
			parse()
			n, declared = c.n, c.m
		} else {
			sem <- struct{}{}
			wg.Add(1)
			go func() { defer wg.Done(); parse(); <-sem }()
		}
		buf = next
	}
	wg.Wait()

	line, total := 0, 0
	for _, c := range chunks {
		if c.err != "" {
			return nil, fmt.Errorf("dimacs: line %d: %s", line+c.lines, c.err)
		}
		line += c.lines
		total += len(c.arcs)
	}
	if readErr != io.EOF {
		return nil, fmt.Errorf("dimacs: read: %v", readErr)
	}
	if n < 0 {
		return nil, fmt.Errorf("dimacs: no problem line")
	}
	if declared != 0 && int64(total) != declared {
		return nil, fmt.Errorf("dimacs: problem line declares %d arcs, file has %d", declared, total)
	}
	arcs := make([]graph.Edge, 0, total)
	for _, c := range chunks {
		arcs = append(arcs, c.arcs...)
		c.arcs = nil
	}
	return graph.FromEdges(int(n), pairArcs(int(n), arcs)), nil
}

// parse tokenises the whole lines in buf and stops after the first bad one.
// n is the vertex count if an earlier block held the problem line and
// negative otherwise. It works on locals and fills c in at the end: chunks
// parsed side by side share cache lines.
func (c *chunk) parse(buf []byte, n int64) {
	arcs := make([]graph.Edge, 0, bytes.Count(buf, []byte{'\n'})+1)
	lines, bad := 0, ""
	for len(buf) > 0 && bad == "" {
		var line []byte
		line, buf, _ = bytes.Cut(buf, []byte{'\n'})
		lines++
		var f [4][]byte
		nf := fields(line, &f)
		switch {
		case nf == 0 || f[0][0] == 'c': // blank or comment
		case string(f[0]) == "p":
			pn, nOK := atoi(f[2])
			pm, mOK := atoi(f[3])
			switch {
			case n >= 0:
				bad = "duplicate problem line"
			case nf != 4 || string(f[1]) != "sp":
				bad = "malformed problem line " + quote(bytes.TrimSpace(line))
			case !nOK || pn < 0:
				bad = "bad vertex count " + quote(f[2])
			case pn > maxVertices:
				bad = fmt.Sprintf("vertex count %d exceeds the supported maximum 2^28", pn)
			case !mOK || pm < 0:
				bad = "bad arc count " + quote(f[3])
			default:
				n, c.n, c.m = pn, pn, pm
			}
		case string(f[0]) == "a":
			u, uOK := atoi(f[1])
			v, vOK := atoi(f[2])
			w, wOK := atoi(f[3])
			// Vertex 0 and ids past the declared count, the classic off-by-one
			// corruptions, are reported in the file's own 1-based coordinates.
			switch {
			case n < 0:
				bad = "arc before problem line"
			case nf != 4 || !uOK || !vOK || !wOK || u != int64(int32(u)) || v != int64(int32(v)):
				bad = "malformed arc " + quote(bytes.TrimSpace(line))
			case u < 1 || v < 1:
				bad = fmt.Sprintf("vertex ids are 1-based, got %d %d", u, v)
			case u > n || v > n:
				bad = fmt.Sprintf("arc (%d,%d) references a vertex beyond the declared count %d", u, v, n)
			case w < 1 || w > int64(graph.MaxWeight):
				bad = fmt.Sprintf("weight %d out of [1,%d]", w, graph.MaxWeight)
			default:
				arcs = append(arcs, graph.Edge{U: int32(u - 1), V: int32(v - 1), W: uint32(w)})
			}
		default:
			bad = "unknown record " + quote(f[0])
		}
	}
	c.arcs, c.lines, c.err = arcs, lines, bad
}

// fields counts line's fields, split at ASCII white space, and stores the
// first len(f) of them in f.
func fields(line []byte, f *[4][]byte) (nf int) {
	for i := 0; i < len(line); i++ {
		if isSpace(line[i]) {
			continue
		}
		j := i + 1
		for j < len(line) && !isSpace(line[j]) {
			j++
		}
		if nf < len(f) {
			f[nf] = line[i:j]
		}
		nf++
		i = j
	}
	return nf
}

var space = [256]bool{' ': true, '\t': true, '\n': true, '\v': true, '\f': true, '\r': true}

func isSpace(b byte) bool { return space[b] }

// atoi is strconv.ParseInt(string(tok), 10, 64), done on the bytes for every
// token short enough not to overflow.
func atoi(tok []byte) (int64, bool) {
	digits := tok
	if len(tok) > 0 && (tok[0] == '+' || tok[0] == '-') {
		digits = tok[1:]
	}
	if len(digits) == 0 || len(digits) > 18 {
		v, err := strconv.ParseInt(string(tok), 10, 64)
		return v, err == nil
	}
	var v int64
	for _, b := range digits {
		if b -= '0'; b > 9 {
			return 0, false
		}
		v = v*10 + int64(b)
	}
	if tok[0] == '-' {
		v = -v
	}
	return v, true
}

// quote renders untrusted input for an error message, at most maxQuoted
// bytes of it.
func quote(b []byte) string {
	if len(b) <= maxQuoted {
		return fmt.Sprintf("%q", b)
	}
	return fmt.Sprintf("%q…(%d bytes)", b[:maxQuoted], len(b))
}

// pairArcs applies the pairing rule in place and returns the arcs that stay,
// in file order. A stable counting sort groups arc indices by min(u,v);
// within a group (a vertex's handful of arcs) an arc is dropped iff the
// nearest earlier arc with its (max(u,v), w) stayed. A big group is sorted by
// key first, which makes "nearest earlier" the neighbour: O(m) on bounded
// degrees, O(m log m) at worst, no hashing.
func pairArcs(n int, arcs []graph.Edge) []graph.Edge {
	const sortGroup = 32 // group size from which sorting beats all-pairs
	type rec struct {
		hi int32
		w  uint32
		at int
	}
	if len(arcs) == 0 {
		return arcs
	}
	next := make([]int, n+1) // next[lo] walks from group lo's start to its end
	for _, e := range arcs {
		next[min(e.U, e.V)+1]++
	}
	for lo := 0; lo < n; lo++ {
		next[lo+1] += next[lo]
	}
	recs := make([]rec, len(arcs))
	for i, e := range arcs {
		lo := min(e.U, e.V)
		recs[next[lo]] = rec{max(e.U, e.V), e.W, i}
		next[lo]++
	}
	start := 0
	for lo, end := range next[:n] {
		grp := recs[start:end]
		start = end
		back := len(grp) // how far back an earlier arc with the same key can sit
		if len(grp) >= sortGroup {
			slices.SortFunc(grp, func(a, b rec) int {
				return cmp.Or(cmp.Compare(a.hi, b.hi), cmp.Compare(a.w, b.w), cmp.Compare(a.at, b.at))
			})
			back = 1
		}
		for i, r := range grp {
			if r.hi == int32(lo) {
				continue // self-loops never pair
			}
			for j := i - 1; j >= max(0, i-back); j-- {
				if grp[j].hi == r.hi && grp[j].w == r.w {
					if arcs[grp[j].at].W != 0 {
						arcs[r.at].W = 0 // the reverse of an arc that stayed; no accepted arc weighs 0
					}
					break
				}
			}
		}
	}
	kept := arcs[:0]
	for _, e := range arcs {
		if e.W != 0 {
			kept = append(kept, e)
		}
	}
	return kept
}
