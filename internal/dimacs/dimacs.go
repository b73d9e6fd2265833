package dimacs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// WriteGraph emits g as a .gr file using the Challenge convention of two arcs
// per undirected edge (one for self-loops). Output is buffered (1 MiB) and
// arc lines are formatted with strconv into a reused scratch buffer rather
// than per-line fmt calls, so exporting a large graph is neither
// syscall-bound nor allocation-bound. Every write error is checked, and a
// failing sink (full disk, closed pipe) aborts the export at the first
// failed flush instead of formatting the remaining millions of lines.
func WriteGraph(w io.Writer, g *graph.Graph, comment string) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if comment != "" {
		for _, l := range strings.Split(comment, "\n") {
			if _, err := fmt.Fprintf(bw, "c %s\n", l); err != nil {
				return fmt.Errorf("dimacs: write: %w", err)
			}
		}
	}
	if _, err := fmt.Fprintf(bw, "p sp %d %d\n", g.NumVertices(), g.NumArcs()); err != nil {
		return fmt.Errorf("dimacs: write: %w", err)
	}
	line := make([]byte, 0, 48)
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		ts, ws := g.Neighbors(v)
		for i, u := range ts {
			line = append(line[:0], 'a', ' ')
			line = strconv.AppendInt(line, int64(v)+1, 10)
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(u)+1, 10)
			line = append(line, ' ')
			line = strconv.AppendUint(line, uint64(ws[i]), 10)
			line = append(line, '\n')
			// bufio's error is sticky: the first failed flush surfaces here
			// and stops the export immediately.
			if _, err := bw.Write(line); err != nil {
				return fmt.Errorf("dimacs: write: %w", err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("dimacs: write: %w", err)
	}
	return nil
}

// ReadSources parses a .ss auxiliary file listing SSSP source vertices. It
// reads lines by the rules ReadGraph does: no length limit, ASCII white
// space, and an error that names the line and quotes at most 64 bytes of it.
func ReadSources(r io.Reader) ([]int32, error) {
	br := bufio.NewReader(r)
	var out []int32
	for line := 1; ; line++ {
		text, err := br.ReadBytes('\n')
		var f [4][]byte
		switch nf := fields(text, &f); {
		case nf == 0 || f[0][0] == 'c' || f[0][0] == 'p':
		case nf != 2 || string(f[0]) != "s":
			return nil, fmt.Errorf("dimacs: line %d: malformed source line %s", line, quote(bytes.TrimSpace(text)))
		default:
			v, ok := atoi(f[1])
			if !ok || v < 1 || v > math.MaxInt32 {
				return nil, fmt.Errorf("dimacs: line %d: bad source %s", line, quote(f[1]))
			}
			out = append(out, int32(v-1))
		}
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("dimacs: read: %v", err)
		}
	}
}

// WriteSources emits a .ss file.
func WriteSources(w io.Writer, sources []int32) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p aux sp ss %d\n", len(sources))
	for _, s := range sources {
		fmt.Fprintf(bw, "s %d\n", s+1)
	}
	return bw.Flush()
}
