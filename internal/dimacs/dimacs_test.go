package dimacs

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"repro/internal/dijkstra"
	"repro/internal/gen"
	"repro/internal/graph"
)

// readGraphReference is the reader ReadGraph replaced (bufio.Scanner,
// strings.Fields, strconv.ParseInt and a hash map of pending reverse arcs),
// kept as the oracle: on ASCII input ReadGraph must accept and reject the same
// files, blame the same line, and build the same CSR arrays.
func readGraphReference(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var (
		b        *graph.Builder
		nVerts   int64
		declared int64
		seen     int64
		line     int
		// pending counts each (min,max,w) arc; a reverse arc cancels one.
		pending map[[3]int64]int64
	)
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == 'c' {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "p":
			if b != nil {
				return nil, fmt.Errorf("dimacs: line %d: duplicate problem line", line)
			}
			if len(fields) != 4 || fields[1] != "sp" {
				return nil, fmt.Errorf("dimacs: line %d: malformed problem line %q", line, text)
			}
			n, err := strconv.ParseInt(fields[2], 10, 32)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("dimacs: line %d: bad vertex count %q", line, fields[2])
			}
			m, err := strconv.ParseInt(fields[3], 10, 64)
			if err != nil || m < 0 {
				return nil, fmt.Errorf("dimacs: line %d: bad arc count %q", line, fields[3])
			}
			nVerts = n
			declared = m
			b = graph.NewBuilder(int(n))
			pending = make(map[[3]int64]int64)
		case "a":
			if b == nil {
				return nil, fmt.Errorf("dimacs: line %d: arc before problem line", line)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("dimacs: line %d: malformed arc %q", line, text)
			}
			u, err1 := strconv.ParseInt(fields[1], 10, 32)
			v, err2 := strconv.ParseInt(fields[2], 10, 32)
			w, err3 := strconv.ParseInt(fields[3], 10, 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("dimacs: line %d: malformed arc %q", line, text)
			}
			// Explicit 1-based range check, phrased in the file's own
			// coordinates. Vertex 0 and ids past the problem line's count are
			// the classic off-by-one corruptions; without this guard the
			// builder's 0-based error message would misreport them.
			if u < 1 || v < 1 {
				return nil, fmt.Errorf("dimacs: line %d: vertex ids are 1-based, got %d %d", line, u, v)
			}
			if u > nVerts || v > nVerts {
				return nil, fmt.Errorf("dimacs: line %d: arc (%d,%d) references a vertex beyond the declared count %d", line, u, v, nVerts)
			}
			if w < 1 || w > int64(graph.MaxWeight) {
				return nil, fmt.Errorf("dimacs: line %d: weight %d out of [1,%d]", line, w, graph.MaxWeight)
			}
			seen++
			lo, hi := u-1, v-1
			if lo > hi {
				lo, hi = hi, lo
			}
			key := [3]int64{lo, hi, w}
			if pending[key] > 0 && lo != hi {
				// Reverse of an arc we already have: same undirected edge.
				pending[key]--
				continue
			}
			pending[key]++
			if err := b.AddEdge(int32(u-1), int32(v-1), uint32(w)); err != nil {
				return nil, fmt.Errorf("dimacs: line %d: %v", line, err)
			}
		default:
			return nil, fmt.Errorf("dimacs: line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dimacs: read: %v", err)
	}
	if b == nil {
		return nil, fmt.Errorf("dimacs: no problem line")
	}
	if declared != 0 && seen != declared {
		return nil, fmt.Errorf("dimacs: problem line declares %d arcs, file has %d", declared, seen)
	}
	g := b.Build()
	return g, nil
}

// blamedLine is the line number err carries: 0 when it names none, -1 for nil.
func blamedLine(err error) int {
	if err == nil {
		return -1
	}
	n := 0
	fmt.Sscanf(err.Error(), "dimacs: line %d:", &n)
	return n
}

// checkAgainstReference fails unless read and readGraphReference agree on in:
// both reject it blaming the same line, or both accept it with identical CSR
// arrays and fingerprint. Input that is not ASCII may be rejected by read
// alone, since only the reference takes Unicode white space as a separator.
func checkAgainstReference(t testing.TB, in string, read func(io.Reader) (*graph.Graph, error)) {
	t.Helper()
	got, err := read(strings.NewReader(in))
	want, werr := readGraphReference(strings.NewReader(in))
	ascii := !strings.ContainsFunc(in, func(r rune) bool { return r >= 0x80 })
	if err != nil && !ascii {
		return
	}
	if blamedLine(err) != blamedLine(werr) {
		t.Fatalf("got error %v, reference %v\ninput: %.200q", err, werr, in)
	}
	if err != nil {
		return
	}
	if got.NumVertices() != want.NumVertices() || got.Fingerprint() != want.Fingerprint() ||
		!slices.Equal(got.AdjOffsets(), want.AdjOffsets()) ||
		!slices.Equal(got.Targets(), want.Targets()) ||
		!slices.Equal(got.Weights(), want.Weights()) {
		t.Fatalf("graph differs from the reference: %v vs %v\ninput: %.200q", got, want, in)
	}
}

func TestReadSimpleGraph(t *testing.T) {
	in := `c tiny test graph
p sp 3 4
a 1 2 5
a 2 1 5
a 2 3 7
a 3 2 7
`
	g, err := ReadGraph(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	d := dijkstra.SSSP(g, 0)
	if d[2] != 12 {
		t.Fatalf("d[2] = %d", d[2])
	}
}

func TestReadSingleArcPerEdge(t *testing.T) {
	in := "p sp 2 1\na 1 2 3\n"
	g, err := ReadGraph(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 || g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatalf("bad graph: %v", g)
	}
}

func TestReadParallelEdgesPreserved(t *testing.T) {
	// Two distinct parallel undirected edges, each listed as two arcs.
	in := "p sp 2 4\na 1 2 3\na 2 1 3\na 1 2 3\na 2 1 3\n"
	g, err := ReadGraph(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("m=%d, want 2 parallel edges", g.NumEdges())
	}
}

func TestReadSelfLoop(t *testing.T) {
	in := "p sp 1 1\na 1 1 9\n"
	g, err := ReadGraph(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("m=%d", g.NumEdges())
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"no problem line":    "a 1 2 3\n",
		"duplicate p":        "p sp 2 0\np sp 2 0\n",
		"bad record":         "p sp 2 1\nx 1 2 3\n",
		"zero weight":        "p sp 2 1\na 1 2 0\n",
		"negative weight":    "p sp 2 1\na 1 2 -4\n",
		"oversized weight":   "p sp 2 1\na 1 2 1073741825\n",
		"zero-based vertex":  "p sp 2 1\na 0 1 3\n",
		"zero-based target":  "p sp 2 1\na 1 0 3\n",
		"out-of-range":       "p sp 2 1\na 1 3 3\n",
		"out-of-range src":   "p sp 2 1\na 3 1 3\n",
		"arc in empty graph": "p sp 0 1\na 1 1 1\n",
		"arc count mismatch": "p sp 2 2\na 1 2 3\n",
		"malformed arc":      "p sp 2 1\na 1 2\n",
		"five-field arc":     "p sp 2 1\na 1 2 3 4\n",
		"not a number":       "p sp 2 1\nc fine\n\na 1 2x 3\n",
		"bare sign":          "p sp 2 1\na 1 + 3\n",
		"beyond int32":       "p sp 2 1\na 1 4294967298 3\n",
		"beyond int64":       "p sp 2 1\na 1 2 99999999999999999999\n",
		"not sp":             "p max 2 1\n",
		"negative n":         "p sp -2 0\n",
		"negative m":         "p sp 2 -1\n",
		"late error, no eol": "p sp 3 0\r\na 1 2 3\r\n\r\na 2 3 4\r\na 3 4 1",
		"empty":              "",
	}
	for name, in := range cases {
		if _, err := ReadGraph(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
		checkAgainstReference(t, in, ReadGraph)
	}
	// Sizes a problem line claims are never allocated from. The reference
	// reader would ask for 16 GB on the first of these, so it is not consulted.
	for in, line := range map[string]int{
		"p sp 2000000000 1\n":          1,
		"p sp 2 2000000000\na 1 2 3\n": 0, // the count mismatch names no line
	} {
		if _, err := ReadGraph(strings.NewReader(in)); blamedLine(err) != line {
			t.Errorf("%q: want an error on line %d, got %v", in, line, err)
		}
	}
}

// Signs, leading zeros and any mix of ASCII white space are what
// strconv.ParseInt and strings.Fields accepted, so they still load.
func TestReadLenientTokens(t *testing.T) {
	in := "\t c indented comment\n \tp  sp\t+3 \v-0\r\n\f\na +1\t002 0005 \r\n  a 3 2 1073741824\n"
	g, err := ReadGraph(strings.NewReader(in))
	if err != nil || g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("g=%v err=%v", g, err)
	}
	checkAgainstReference(t, in, ReadGraph)
}

// TestReadErrorTextIsBounded: an offending line is quoted up to 64 bytes,
// however long it is, and no line is too long to read.
func TestReadErrorTextIsBounded(t *testing.T) {
	long := strings.Repeat("x", 5<<20)
	for name, in := range map[string]string{
		"long record":  "p sp 2 1\n" + long + " 1 2\n",
		"long arc":     "p sp 2 1\na 1 " + long + "\n",
		"long problem": "c\np sp " + long + "\n",
		"long count":   "c\np sp " + long + " 1\n",
	} {
		_, err := ReadGraph(strings.NewReader(in))
		if blamedLine(err) != 2 || len(err.Error()) > 200 || !strings.Contains(err.Error(), "bytes)") {
			t.Errorf("%s: error is %.300v", name, err)
		}
	}
	in := "c " + long + "\np sp 2 1\na 1 2 3\n"
	if g, err := ReadGraph(strings.NewReader(in)); err != nil || g.NumEdges() != 1 {
		t.Errorf("5 MiB comment line: g=%v err=%v", g, err)
	}
}

// arcText renders g as .gr text in the Challenge convention (both == true:
// two arcs an edge, one for a self-loop) or with one arc an edge in a random
// direction, the arc lines shuffled, and a share of them dropped again so
// that some keys occur an odd number of times.
func arcText(g *graph.Graph, rng *rand.Rand, both bool, drop float64) string {
	var arcs []string
	for _, e := range g.Edges() {
		u, v := e.U+1, e.V+1
		if rng.Intn(2) == 0 {
			u, v = v, u
		}
		arcs = append(arcs, fmt.Sprintf("a %d %d %d\n", u, v, e.W))
		if both && u != v {
			arcs = append(arcs, fmt.Sprintf("a %d %d %d\n", v, u, e.W))
		}
	}
	rng.Shuffle(len(arcs), func(i, j int) { arcs[i], arcs[j] = arcs[j], arcs[i] })
	arcs = arcs[:len(arcs)-int(drop*float64(len(arcs)))]
	return fmt.Sprintf("p sp %d %d\n", g.NumVertices(), len(arcs)) + strings.Join(arcs, "")
}

// TestReadGraphMatchesReference is the seeded half of the oracle check
// (FuzzReadGraph is the other): every generator family, as WriteGraph emits
// it and rearranged every way the pairing rule is sensitive to, read whole
// and in 512-byte blocks on 2, 3 and 8 goroutines.
func TestReadGraphMatchesReference(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rand-uwd":   gen.Random(300, 1200, 1<<10, gen.UWD, 1),
		"rand-pwd":   gen.Random(300, 1200, 1<<10, gen.PWD, 2),
		"rmat":       gen.RMATGraph(256, 4096, 1<<4, gen.UWD, 3), // hubs and repeats
		"grid":       gen.GridGraph(12, 17, 64, gen.UWD, 4),
		"geometric":  gen.Geometric(200, 0.1, 1<<10, 5),
		"smallworld": gen.SmallWorld(200, 2, 0.1, 1<<10, gen.PWD, 6),
		"multigraph": gen.Random(6, 600, 3, gen.UWD, 7), // every key many times over, and self-loops
		"star":       gen.Star(50, 7),
		"complete":   gen.Complete(20, 4, 8),
		"one vertex": gen.Path(1, 1),
	}
	for name, g := range graphs {
		rng := rand.New(rand.NewSource(int64(len(name))))
		var buf bytes.Buffer
		if err := WriteGraph(&buf, g, name+"\nsecond comment line"); err != nil {
			t.Fatal(err)
		}
		written := buf.String()
		noisy := strings.ReplaceAll(written, "\na ", "\n\n \t\nc a 1 1 1\n\t a\t ")
		for variant, in := range map[string]string{
			"as written":          written,
			"crlf":                strings.ReplaceAll(written, "\n", "\r\n"),
			"no trailing newline": strings.TrimSuffix(written, "\n"),
			"blank and comment":   noisy,
			"both, shuffled":      arcText(g, rng, true, 0),
			"both, some dropped":  arcText(g, rng, true, 0.3),
			"single arc":          arcText(g, rng, false, 0),
			"single arc, dropped": arcText(g, rng, false, 0.3),
		} {
			t.Run(name+"/"+variant, func(t *testing.T) {
				checkAgainstReference(t, in, ReadGraph)
				for _, workers := range []int{2, 3, 8} {
					checkAgainstReference(t, in, func(r io.Reader) (*graph.Graph, error) {
						return readGraph(r, 512, workers)
					})
				}
			})
		}
	}
	// The hubs of the R-MAT family put 32 or more arcs in one pairing group,
	// which the pairing sorts rather than scans.
	group, big := map[int32]int{}, 0
	for _, e := range graphs["rmat"].Edges() {
		group[min(e.U, e.V)] += 2
		big = max(big, group[min(e.U, e.V)])
	}
	if big < 32 {
		t.Errorf("the largest R-MAT pairing group has %d arcs, want >= 32", big)
	}
}

// TestReadGraphBlockBoundaries: where the text is cut into blocks, how many
// goroutines parse them and sort the arcs, and how the reader hands bytes
// over change nothing, for accepted files and for the line an error blames.
func TestReadGraphBlockBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	good := "c header\r\n\np sp 300 0\n" + strings.SplitN(arcText(gen.Random(300, 1500, 1<<20, gen.UWD, 9), rng, true, 0.2), "\n", 2)[1]
	lines := strings.SplitAfter(good, "\n")
	inputs := map[string]string{
		"good":                good,
		"no trailing newline": strings.TrimSuffix(good, "\n"),
		"bad arc near end":    strings.Join(lines[:len(lines)-5], "") + "a 1 301 1\n" + strings.Join(lines[len(lines)-5:], ""),
		"duplicate p, middle": strings.Join(lines[:len(lines)/2], "") + "p sp 300 0\n" + strings.Join(lines[len(lines)/2:], ""),
		"late problem line":   strings.Repeat("c filler\n", 40) + good,
		"arc before p":        strings.Repeat("c filler\n", 40) + "a 1 2 3\n" + good,
		"count mismatch":      strings.Replace(good, "p sp 300 0", "p sp 300 7", 1),
	}
	for name, in := range inputs {
		for _, block := range []int{1, 7, 64, 4096} {
			for _, workers := range []int{1, 2, 3, 8} {
				checkAgainstReference(t, in, func(r io.Reader) (*graph.Graph, error) {
					return readGraph(r, block, workers)
				})
				if t.Failed() {
					t.Fatalf("%s: block size %d, %d workers", name, block, workers)
				}
			}
		}
		checkAgainstReference(t, in, func(r io.Reader) (*graph.Graph, error) {
			return ReadGraph(iotest.OneByteReader(r))
		})
	}
}

// A failing reader is reported once everything read before the failure has
// parsed cleanly, a cut-off last line included; a bad line among it is the
// better diagnosis and wins. The reference did the same.
func TestReadGraphReadError(t *testing.T) {
	boom := errors.New("boom")
	for prefix, line := range map[string]int{
		"p sp 2 0\na 1 2 3\n":        0, // the read error itself
		"p sp 2 0\na 1 2 3\na 2 1 3": 0,
		"p sp 2 0\na 1 2 3\na 2":     3,
		"p sp 2 0\na 1 9 3\na 2 1 3": 2,
	} {
		for _, read := range []func(io.Reader) (*graph.Graph, error){ReadGraph, readGraphReference} {
			_, err := read(io.MultiReader(strings.NewReader(prefix), iotest.ErrReader(boom)))
			if blamedLine(err) != line || (line == 0 && !strings.Contains(err.Error(), "boom")) {
				t.Errorf("%q then a read error: got %v, want line %d", prefix, err, line)
			}
		}
	}
}

// fastPathLines are arc lines that must leave the fast path, each for one
// reason, and decline marks those it turns down for their spelling alone.
// Read in a file with three vertices, each must give the reference's graph or
// its error on its line.
var fastPathLines = []struct {
	name, line string
	decline    bool
}{
	{"crlf", "a 1 2 3\r\n", true},
	{"tab", "a 1\t2 3\n", true},
	{"two spaces", "a 1  2 3\n", true},
	{"leading space", " a 1 2 3\n", true},
	{"trailing space", "a 1 2 3 \n", true},
	{"plus sign", "a 1 2 +3\n", true},
	{"leading zeros", "a 01 2 003\n", true},
	{"19 digits", "a 1 2 0000000000000000003\n", true},
	{"19-digit weight", "a 1 2 1000000000000000000\n", true},
	{"weight 0", "a 1 2 0\n", true},
	{"weight 2^30 + 1", "a 1 2 1073741825\n", false},
	{"weight 2^30", "a 1 2 1073741824\n", false},
	{"vertex 0", "a 0 2 3\n", true},
	{"vertex n + 1", "a 1 4 3\n", false},
	{"beyond int32", "a 1 4294967298 3\n", false},
	{"four numbers", "a 1 2 3 4\n", true},
	{"two numbers", "a 1 2\n", true},
}

// TestReadGraphFastPathDeclines: a line the fast path does not take is read
// the way every line was before it, in the middle of a file, as its last
// line with no LF, and before the problem line.
func TestReadGraphFastPathDeclines(t *testing.T) {
	if _, _, _, size := arcLine([]byte("a 12 3 456\na")); size != 11 {
		t.Fatalf("the fast path takes %d bytes of a Challenge arc line, want 11", size)
	}
	for _, c := range fastPathLines {
		if _, _, _, size := arcLine([]byte(c.line)); c.decline && size != 0 {
			t.Errorf("%s: the fast path took %q", c.name, c.line)
		}
		last := strings.TrimSuffix(c.line, "\n")
		for where, in := range map[string]string{
			"middle":      "c x\np sp 3 0\na 2 1 3\n" + c.line + "a 3 1 5\n",
			"last, no LF": "p sp 3 0\na 2 1 3\n" + last,
			"before p":    "c x\n" + c.line + "p sp 3 0\n",
		} {
			for _, workers := range []int{1, 3} {
				checkAgainstReference(t, in, func(r io.Reader) (*graph.Graph, error) {
					return readGraph(r, 8, workers)
				})
				if t.Failed() {
					t.Fatalf("%s, %s, %d workers", c.name, where, workers)
				}
			}
		}
	}
}

var rand16 = sync.OnceValue(func() []byte {
	var buf bytes.Buffer
	if err := WriteGraph(&buf, gen.Random(1<<16, 4<<16, 1<<16, gen.UWD, 1), ""); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// TestReadGraphAllocationBudget: reading the bench's rand16 shape allocates
// what the graph keeps and little more: a few blocks of text, the arcs, the
// pairing keys and a cursor array a worker. It was 31.0 MB when the arcs
// were concatenated before pairing and compacted after it. The text buffers
// and cursor arrays grow with the worker count, so it counts up to four.
func TestReadGraphAllocationBudget(t *testing.T) {
	const budget = 22e6
	text := rand16()
	workers := min(runtime.GOMAXPROCS(0), 4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := readGraph(bytes.NewReader(text), readBlock, workers)
	runtime.ReadMemStats(&after)
	if err != nil || g.NumEdges() != 4<<16 {
		t.Fatalf("g=%v err=%v", g, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("reading rand16 on %d workers allocated %.1f MB, budget %.0f MB", workers, float64(got)/1e6, budget/1e6)
	}
}

// BenchmarkReadGraph parses a generated Rand-UWD 2^16 instance (the bench
// ladder's rand16 shape: m = 4n, 10 MB of text). allocs/op must stay
// proportional to the number of blocks, not to the number of lines.
func BenchmarkReadGraph(b *testing.B) {
	text := rand16()
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadGraph(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGraphRoundTrip(t *testing.T) {
	g := gen.Random(200, 800, 1<<10, gen.PWD, 5)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g, "round trip\nsecond comment line"); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed sizes: %v vs %v", g2, g)
	}
	// Distances must be identical.
	a, b := dijkstra.SSSP(g, 0), dijkstra.SSSP(g2, 0)
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("distance changed at %d: %d vs %d", v, a[v], b[v])
		}
	}
}

func TestSourcesRoundTrip(t *testing.T) {
	want := []int32{0, 5, 17, 123}
	var buf bytes.Buffer
	if err := WriteSources(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSources(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestReadSourcesErrors(t *testing.T) {
	for name, in := range map[string]string{
		"malformed": "s\n",
		"zero":      "s 0\n",
		"garbage":   "s abc\n",
	} {
		if _, err := ReadSources(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// readSourcesCases are the .ss files that ReadSources read by other rules
// than ReadGraph's: a comment longer than a bufio.Scanner line, and a
// non-ASCII space between the fields. The first must load, and the second
// fail on its line like any malformed line.
var readSourcesCases = []string{
	"c " + strings.Repeat("x", 70<<10) + "\ns 3\n",
	"s 1\ns\u00a02\n",
}

func TestReadSourcesLineRules(t *testing.T) {
	if got, err := ReadSources(strings.NewReader(readSourcesCases[0])); err != nil || !slices.Equal(got, []int32{2}) {
		t.Errorf("70 KiB comment line: got %v, %v", got, err)
	}
	if _, err := ReadSources(strings.NewReader(readSourcesCases[1])); err == nil ||
		!strings.HasPrefix(err.Error(), "dimacs: line 2: malformed source line") {
		t.Errorf("non-ASCII space: got %v", err)
	}
	long := "s " + strings.Repeat("9", 100<<10) + "\n"
	if _, err := ReadSources(strings.NewReader("c\n" + long)); err == nil ||
		!strings.HasPrefix(err.Error(), "dimacs: line 2: bad source") || len(err.Error()) > 200 {
		t.Errorf("100 KiB source: got %.300v", err)
	}
}

// TestVertexRangeErrorsAreDescriptive: out-of-range arcs must produce errors
// phrased in the file's 1-based coordinates with the offending line number,
// not the in-memory 0-based builder message.
func TestVertexRangeErrorsAreDescriptive(t *testing.T) {
	_, err := ReadGraph(strings.NewReader("p sp 2 1\na 0 1 3\n"))
	if err == nil || !strings.Contains(err.Error(), "1-based") || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("vertex-0 error not descriptive: %v", err)
	}
	_, err = ReadGraph(strings.NewReader("p sp 2 1\na 1 5 3\n"))
	if err == nil || !strings.Contains(err.Error(), "declared count 2") || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("beyond-count error not descriptive: %v", err)
	}
}

// errAfterWriter fails every write after the first n bytes, like a disk
// filling up mid-export.
type errAfterWriter struct {
	n       int
	written int
}

func (w *errAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, fmt.Errorf("sink full after %d bytes", w.written)
	}
	w.written += len(p)
	return len(p), nil
}

// WriteGraph must surface sink errors instead of silently dropping output,
// for failures in the header as well as deep in the arc stream.
func TestWriteGraphPropagatesErrors(t *testing.T) {
	b := graph.NewBuilder(2000)
	for i := int32(0); i < 1999; i++ {
		b.MustAddEdge(i, i+1, uint32(i%7+1))
	}
	g := b.Build()
	for _, limit := range []int{0, 10, 20000} { // header, comment, mid-arcs
		if err := WriteGraph(&errAfterWriter{n: limit}, g, "big export"); err == nil {
			t.Errorf("limit %d: error not propagated", limit)
		}
	}
	// Sanity: an unbounded sink still round-trips.
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g, "big export"); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Fingerprint() != g.Fingerprint() {
		t.Fatal("round trip changed the graph")
	}
}
