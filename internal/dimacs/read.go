package dimacs

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
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
	readBlock   = 1 << 18 // text per parse task, cut back to a line end
	maxQuoted   = 64      // bytes of an offending line an error repeats
)

// ReadGraph parses a .gr file into an undirected graph; the package comment
// has the rule that pairs arcs up into edges. The text is read in blocks cut
// at line ends and tokenised on GOMAXPROCS goroutines, which then pair the
// arcs and build the CSR. Memory in flight is a few blocks of text, the arcs
// parsed from them (12 bytes an arc), a pairing key of 8 bytes an arc and a
// cursor array a goroutine beside the CSR: never the whole file, never a size
// taken from the problem line.
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
	blocks := make([][]graph.Edge, len(chunks))
	for i, c := range chunks {
		blocks[i] = c.arcs
	}
	// The pairing and the CSR are two counting sorts over the blocks' arcs
	// with the same runs and cursors; nothing is concatenated or compacted.
	s := graph.NewSort(int(n), blocks, workers)
	return s.Graph(pairArcs(s, blocks, workers)), nil
}

// parse tokenises the whole lines in buf and stops after the first bad one.
// n is the vertex count if an earlier block held the problem line and
// negative otherwise. An arc line in the Challenge's own spelling takes one
// forward scan (arcLine); every other line is split into fields. It works on
// locals and fills c in at the end: chunks parsed side by side share cache
// lines.
func (c *chunk) parse(buf []byte, n int64) {
	arcs := make([]graph.Edge, 0, bytes.Count(buf, []byte{'\n'})+1)
	lines, bad := 0, ""
	for len(buf) > 0 && bad == "" {
		lines++
		// A line the fast path turns down, for its spelling or its values,
		// is parsed again below, which has the error texts.
		if u, v, w, size := arcLine(buf); size > 0 && n >= 0 && u <= n && v <= n && w <= int64(graph.MaxWeight) {
			arcs = append(arcs, graph.Edge{U: int32(u - 1), V: int32(v - 1), W: uint32(w)})
			buf = buf[size:]
			continue
		}
		var line []byte
		line, buf, _ = bytes.Cut(buf, []byte{'\n'})
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

// arcLine parses the line b starts with if it is exactly "a u v w": single
// spaces, three numbers of 1 to 18 digits with no leading zero (so none is
// 0), then LF or the end of b. It returns the numbers and the bytes the line
// takes, LF included, or a size of 0 for any other line.
func arcLine(b []byte) (u, v, w int64, size int) {
	if len(b) < 7 || b[0] != 'a' || b[1] != ' ' {
		return 0, 0, 0, 0
	}
	u, i := number(b, 2)
	if i == 2 || i == len(b) || b[i] != ' ' {
		return 0, 0, 0, 0
	}
	v, j := number(b, i+1)
	if j == i+1 || j == len(b) || b[j] != ' ' {
		return 0, 0, 0, 0
	}
	w, k := number(b, j+1)
	if k == j+1 || k < len(b) && b[k] != '\n' {
		return 0, 0, 0, 0
	}
	return u, v, w, min(k+1, len(b))
}

// number reads the digits of b from i on, at most 18 of them, and returns
// their value and where they end; it reads none when b[i] is '0'.
func number(b []byte, i int) (int64, int) {
	if i < len(b) && b[i] == '0' {
		return 0, i
	}
	var v int64
	j := i
	for ; j < len(b) && j-i < 18; j++ {
		d := b[j] - '0'
		if d > 9 {
			break
		}
		v = v*10 + int64(d)
	}
	return v, j
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

// pairArcs applies the pairing rule to the arcs of blocks, taken in order,
// and returns a bitmap for each block of the arcs it drops. s, a sort into
// one bucket a vertex, lays every arc's key (max(u,v), w) out in its group
// min(u,v), in file order; dropRepeats marks the drops by their place in
// the groups; and each run, walking its arcs backwards, moves its cursors
// back over the places it filled and carries each mark to its arc's bit.
func pairArcs(s *graph.Sort, blocks [][]graph.Edge, workers int) [][]uint64 {
	s.Each(func(r, first, end int) {
		c := s.Cursors(r)
		for _, blk := range blocks[first:end] {
			for _, e := range blk {
				c[min(e.U, e.V)]++
			}
		}
	})
	keys := make([]uint64, s.Place())
	s.Each(func(r, first, end int) {
		c := s.Cursors(r)
		for _, blk := range blocks[first:end] {
			for _, e := range blk {
				lo := min(e.U, e.V)
				keys[c[lo]] = uint64(max(e.U, e.V))<<32 | uint64(e.W)
				c[lo]++
			}
		}
	})
	dropped := dropRepeats(keys, s.Ends(), workers)
	skip, words := make([][]uint64, len(blocks)), 0
	for _, blk := range blocks {
		words += (len(blk) + 63) / 64
	}
	all := make([]uint64, words)
	for b, blk := range blocks {
		skip[b], all = all[:(len(blk)+63)/64], all[(len(blk)+63)/64:]
	}
	s.Each(func(r, first, end int) {
		c := s.Cursors(r)
		for b := end - 1; b >= first; b-- {
			blk := blocks[b]
			for k := len(skip[b]) - 1; k >= 0; k-- {
				var word uint64
				for i := min(len(blk), 64*k+64) - 1; i >= 64*k; i-- {
					lo := min(blk[i].U, blk[i].V)
					c[lo]--
					p := c[lo]
					word |= dropped[p>>6] >> (p & 63) & 1 << (i & 63)
				}
				skip[b][k] = word
			}
		}
	})
	return skip
}

// dropRepeats returns the bitmap of the keys the pairing rule drops, keys
// grouped by min(u,v) and group lo ending at ends[lo]. Within a group (a
// vertex's handful of arcs) an arc is dropped iff the nearest earlier arc
// with its key stayed; self-loops never pair. A big group is sorted by key
// and position first, which makes "nearest earlier" the neighbour: O(m) on
// bounded degrees, O(m log m) at worst, no hashing. Ranges of groups with
// about equal numbers of keys are scanned on up to workers goroutines, each
// into a bitmap of its own, and OR'd together at the end.
func dropRepeats(keys []uint64, ends []int64, workers int) []uint64 {
	const sortGroup = 32 // group size from which sorting beats all-pairs
	type keyAt struct {
		key uint64
		at  int
	}
	start := func(lo int) int64 {
		if lo == 0 {
			return 0
		}
		return ends[lo-1]
	}
	k := max(1, min(workers, len(keys)>>10))
	first := make([]int, k+1) // the first group of each range
	first[k] = len(ends)
	for t := 1; t < k; t++ {
		first[t] = sort.Search(len(ends), func(lo int) bool { return ends[lo] > int64(len(keys)*t/k) })
	}
	parts := make([][]uint64, k)
	graph.ForEach(k, func(t int) {
		base := start(first[t]) &^ 63
		part := make([]uint64, (start(first[t+1])-base+63)/64)
		drop := func(p int64) { p -= base; part[p>>6] |= 1 << (p & 63) }
		var sorted []keyAt
		for lo := first[t]; lo < first[t+1]; lo++ {
			s := start(lo)
			grp := keys[s:ends[lo]]
			if len(grp) < sortGroup {
				var mask uint64 // bit i: grp[i] is dropped
				for i := 1; i < len(grp); i++ {
					if grp[i]>>32 == uint64(lo) {
						continue
					}
					for j := i - 1; j >= 0; j-- {
						if grp[j] == grp[i] {
							mask |= (^mask >> j & 1) << i
							break
						}
					}
				}
				if mask != 0 {
					p := s - base
					part[p>>6] |= mask << (p & 63)
					if p&63+int64(len(grp)) > 64 {
						part[p>>6+1] |= mask >> (64 - p&63)
					}
				}
				continue
			}
			sorted = sorted[:0]
			for i, key := range grp {
				sorted = append(sorted, keyAt{key, i})
			}
			slices.SortFunc(sorted, func(a, b keyAt) int {
				return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.at, b.at))
			})
			dropPrev := false
			for i := 1; i < len(sorted); i++ {
				r := sorted[i]
				dropPrev = !dropPrev && r.key == sorted[i-1].key && r.key>>32 != uint64(lo)
				if dropPrev {
					drop(s + int64(r.at))
				}
			}
		}
		parts[t] = part
	})
	dropped := make([]uint64, (len(keys)+63)/64)
	for t, part := range parts {
		base := int(start(first[t]) >> 6)
		for i, x := range part {
			dropped[base+i] |= x
		}
	}
	return dropped
}
