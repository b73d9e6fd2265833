package dimacs

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"testing"

	"repro/internal/graph"
)

// declaredVertices is the vertex count the first well-formed problem line of
// in claims (0 without one), read the way the reference reader reads it.
func declaredVertices(in string) int64 {
	for _, line := range strings.Split(in, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "p" {
			n, _ := strconv.ParseInt(f[2], 10, 64)
			return n
		}
	}
	return 0
}

// FuzzReadGraph checks that the reader never panics on arbitrary input, that
// it agrees with the reader it replaced (same verdict, same blamed line, same
// CSR arrays) whole and cut into small blocks, and that anything it accepts
// is a structurally valid graph that survives a write/read round trip.
func FuzzReadGraph(f *testing.F) {
	f.Add("p sp 3 4\na 1 2 5\na 2 1 5\na 2 3 7\na 3 2 7\n")
	f.Add("c comment\np sp 1 1\na 1 1 9\n")
	f.Add("p sp 2 1\na 1 2 3\n")
	f.Add("p sp 0 0\n")
	f.Add("")
	f.Add("p sp 2 2\na 1 2 1000000000\na 2 1 1000000000\n")
	f.Add("a 1 2 3\np sp 2 1\n")
	f.Add("p sp 2 1\na 1 2 -1\n")
	// Regression: arcs referencing vertex 0 / vertices beyond the declared
	// count must be rejected with a parse error, never a panic.
	f.Add("p sp 2 1\na 0 1 3\n")
	f.Add("p sp 2 1\na 1 0 3\n")
	f.Add("p sp 2 1\na 1 5 3\n")
	f.Add("p sp 2 1\na 3 1 3\n")
	f.Add("p sp 0 1\na 1 1 1\n")
	// Regression: sizes claimed by the problem line are not allocated from.
	f.Add("p sp 2000000000 1\n")
	f.Add("p sp 2 2000000000\na 1 2 3\n")
	f.Add("p sp 3 0\r\n\n c x\na +1 02 5\na 2 1 5\na 1 2 5\na 3 3 1\na 3 3 1")
	// Lines that must leave the per-line fast path, after and before a
	// line that takes it, and last with no LF.
	for _, c := range fastPathLines {
		f.Add("p sp 3 0\na 2 1 3\n" + c.line + "a 3 1 5\n")
		f.Add("p sp 3 0\na 2 1 3\n" + strings.TrimSuffix(c.line, "\n"))
	}
	f.Add("a 1 2 3\np sp 3 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		// A graph costs memory in proportion to its declared vertex count,
		// isolated vertices included; keep a fuzzing run small.
		if n := declaredVertices(in); n <= 1<<16 {
			checkAgainstReference(t, in, ReadGraph)
			checkAgainstReference(t, in, func(r io.Reader) (*graph.Graph, error) {
				return readGraph(r, 64, 3) // many blocks, sorted in several runs
			})
		} else if n <= maxVertices {
			t.Skip()
		}
		g, err := ReadGraph(strings.NewReader(in))
		if err != nil {
			return // rejected: fine, as long as no panic
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted invalid graph: %v\ninput: %q", verr, in)
		}
		var buf bytes.Buffer
		if werr := WriteGraph(&buf, g, ""); werr != nil {
			t.Fatalf("write: %v", werr)
		}
		g2, rerr := ReadGraph(&buf)
		if rerr != nil {
			t.Fatalf("round trip rejected: %v", rerr)
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: %v vs %v", g2, g)
		}
	})
}

// FuzzReadSources checks the .ss parser never panics, bounds its output, and
// reports every error as the package's, in bounded text.
func FuzzReadSources(f *testing.F) {
	f.Add("p aux sp ss 2\ns 1\ns 7\n")
	f.Add("s 0\n")
	f.Add("c\n\n\ns 1\n")
	for _, in := range readSourcesCases {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		sources, err := ReadSources(strings.NewReader(in))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "dimacs: ") || len(err.Error()) > 200 {
				t.Fatalf("error %.300q from %q", err, in)
			}
			return
		}
		for _, s := range sources {
			if s < 0 {
				t.Fatalf("negative source %d accepted from %q", s, in)
			}
		}
	})
}
