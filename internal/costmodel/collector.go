package costmodel

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Sample is one dataset record: the instance features the prediction was
// made from, the solver that actually ran on which generation of which graph,
// the per-phase trace counters, and the measured solve-stage duration (the
// label). It is the JSON-lines schema of /debug/costmodel/dataset, stamped
// with DatasetVersion so readers can refuse lines they don't understand.
type Sample struct {
	V      int    `json:"v"`
	Graph  string `json:"graph,omitempty"`
	Gen    uint64 `json:"gen,omitempty"`
	Solver string `json:"solver"`
	Features
	DurUS    int64            `json:"dur_us"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Collector is the bounded in-memory sample ring behind a Provider, filled
// by Provider.Observe. When full, the oldest sample is dropped — the dataset
// is a sliding window over recent traffic, which is exactly what a retrain
// wants.
type Collector struct {
	mu    sync.Mutex
	buf   []Sample
	next  int
	full  bool
	total uint64
}

// NewCollector returns a collector holding at most capacity samples
// (minimum 1).
func NewCollector(capacity int) *Collector {
	if capacity < 1 {
		capacity = 1
	}
	return &Collector{buf: make([]Sample, capacity)}
}

// Add records one sample, stamping DatasetVersion.
func (c *Collector) Add(s Sample) {
	s.V = DatasetVersion
	c.mu.Lock()
	c.buf[c.next] = s
	c.next++
	if c.next == len(c.buf) {
		c.next = 0
		c.full = true
	}
	c.total++
	c.mu.Unlock()
}

// Len returns how many samples are currently held.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.full {
		return len(c.buf)
	}
	return c.next
}

// Total returns how many samples have ever been added, including ones that
// have since slid out of the window.
func (c *Collector) Total() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Snapshot returns the held samples, oldest first.
func (c *Collector) Snapshot() []Sample {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.full {
		return append([]Sample(nil), c.buf[:c.next]...)
	}
	out := make([]Sample, 0, len(c.buf))
	out = append(out, c.buf[c.next:]...)
	out = append(out, c.buf[:c.next]...)
	return out
}

// WriteJSONL streams the held samples as JSON lines, oldest first, and
// returns how many it wrote.
func (c *Collector) WriteJSONL(w io.Writer) (int, error) {
	samples := c.Snapshot()
	bw := bufio.NewWriter(w)
	for _, s := range samples {
		b, err := json.Marshal(s)
		if err != nil {
			return 0, err
		}
		b = append(b, '\n')
		if _, err := bw.Write(b); err != nil {
			return 0, err
		}
	}
	return len(samples), bw.Flush()
}

// ReadSamples parses a JSON-lines dataset, refusing lines from a different
// dataset version. Blank lines are skipped so concatenated exports work.
func ReadSamples(r io.Reader) ([]Sample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Sample
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var s Sample
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("costmodel: dataset line %d: %w", line, err)
		}
		if s.V != DatasetVersion {
			return nil, fmt.Errorf("costmodel: dataset line %d: version %d, this binary speaks %d", line, s.V, DatasetVersion)
		}
		if s.Solver == "" {
			return nil, fmt.Errorf("costmodel: dataset line %d: missing solver", line)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
