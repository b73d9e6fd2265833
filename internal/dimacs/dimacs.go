package dimacs

import (
	"bufio"
	"fmt"
	"io"
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

// ReadSources parses a .ss auxiliary file listing SSSP source vertices.
func ReadSources(r io.Reader) ([]int32, error) {
	sc := bufio.NewScanner(r)
	var out []int32
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == 'c' || text[0] == 'p' {
			continue
		}
		fields := strings.Fields(text)
		if fields[0] != "s" || len(fields) != 2 {
			return nil, fmt.Errorf("dimacs: line %d: malformed source line %q", line, text)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("dimacs: line %d: bad source %q", line, fields[1])
		}
		out = append(out, int32(v-1))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
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
