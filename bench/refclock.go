package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/graph"
)

// The reference clock.
//
// The hosts this benchmark runs on are small shared guests whose memory system
// and CPUs are contended by neighbours in phases that last from seconds to
// many minutes: the same daemon on the same graph answers a third slower in a
// noisy phase (README.md, "The reference clock"). No window length a run can
// afford averages that out, so the benchmark measures the host beside the
// program: between the slices of a timed window, with the clients paused and
// the daemon idle, it times a fixed kernel of its own — a textbook
// binary-heap Dijkstra over a private copy of the workload's graph, one solve
// stream per CPU the workloads use. Every duration the benchmark reports is
// then divided by how much slower than nominal that kernel ran in the same
// seconds. The kernel lives here and calls nothing in the repository, so no
// change to the program can move it; it only moves with the host.

// refThreads is how many reference solves run side by side: the workloads keep
// two CPUs busy, so the probe loads the memory system the same way.
const refThreads = 2

// refNsPerArc is the nominal cost of the reference kernel, per arc scanned, on
// a quiet host of the class this was written on (2-vCPU Sapphire Rapids guest,
// Go 1.24): the median of several hundred probes at each of the two sizes the
// workloads use. 2^14 vertices sit in the private caches, 2^16 do not. The
// constants only fix the scale of the reported numbers — two commits measured
// on one host share them.
func refNsPerArc(n int) float64 {
	if n >= 1<<16 {
		return 63
	}
	return 46
}

type refHeapItem struct {
	d int64
	v int32
}

// refSolver is one thread's state.
type refSolver struct {
	dist []int64
	heap []refHeapItem
}

type refClock struct {
	off       []int64
	tgt       []int32
	wt        []uint32
	n         int
	reps      int // solves per thread per probe
	nominalMS float64
	solvers   [refThreads]refSolver
	probesMS  []float64 // every probe's wall time, for the run's bench.ref_solve_ms
}

// refProbe is one timing of the reference kernel, per solve: on the wall
// clock, which is what wall-clock durations are scaled by, and in CPU time of
// the solving threads, which is what the daemon's CPU time is scaled by — a
// guest that loses the CPU for a while takes longer without using more.
type refProbe struct{ wallMS, cpuMS float64 }

// mid is the reading halfway between two probes.
func mid(a, b refProbe) refProbe {
	return refProbe{(a.wallMS + b.wallMS) / 2, (a.cpuMS + b.cpuMS) / 2}
}

// newRefClock copies g's adjacency arrays, so the kernel's memory layout is
// its own whatever the repository does to graph.Graph later.
func newRefClock(g *graph.Graph) *refClock {
	n := g.NumVertices()
	r := &refClock{
		off: append([]int64(nil), g.AdjOffsets()...),
		tgt: append([]int32(nil), g.Targets()...),
		wt:  append([]uint32(nil), g.Weights()...),
		n:   n,
	}
	// About 2^17 vertices settled per thread per probe: two solves at 2^16,
	// eight at 2^14 — 50 to 70 ms, a few percent of a two-second slice.
	r.reps = (1 << 17) / n
	if r.reps < 1 {
		r.reps = 1
	}
	r.nominalMS = refNsPerArc(n) * float64(len(r.tgt)) / 1e6
	for t := range r.solvers {
		r.solvers[t].dist = make([]int64, n)
	}
	return r
}

var refSink int64 // keeps the solves from being optimised away

// threadCPUSeconds is the calling thread's user+system CPU time.
func threadCPUSeconds() float64 {
	const rusageThread = 1 // RUSAGE_THREAD; package syscall does not name it
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0 // Linux has had RUSAGE_THREAD since 2.6.26
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// probe runs the reference kernel and returns the time of one solve, averaged
// over the threads. The sources are the same on every probe, so every probe
// does the same work.
func (r *refClock) probe() refProbe {
	var (
		wg        sync.WaitGroup
		wall, cpu [refThreads]float64
		ck        [refThreads]int64
	)
	for t := 0; t < refThreads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			runtime.LockOSThread() // so that the thread's CPU time is this goroutine's
			defer runtime.UnlockOSThread()
			t0, c0 := time.Now(), threadCPUSeconds()
			for i := 0; i < r.reps; i++ {
				src := int32((t*r.reps + i) * (r.n / (refThreads * r.reps)))
				ck[t] += r.solve(&r.solvers[t], src)
			}
			wall[t] = time.Since(t0).Seconds() * 1000 / float64(r.reps)
			cpu[t] = (threadCPUSeconds() - c0) * 1000 / float64(r.reps)
		}(t)
	}
	wg.Wait()
	var p refProbe
	for t := 0; t < refThreads; t++ {
		p.wallMS += wall[t] / refThreads
		p.cpuMS += cpu[t] / refThreads
		refSink += ck[t]
	}
	r.probesMS = append(r.probesMS, p.wallMS)
	return p
}

// factor turns a reference time into the host's slowdown against nominal.
func (r *refClock) factor(ms float64) float64 { return ms / r.nominalMS }

// stallShareMS is the request length at which half of a host stall shows in
// the request's latency. A guest loses the CPU in chunks of milliseconds: a
// request much longer than a chunk is stretched in proportion, like the
// reference kernel's wall time, while one much shorter either runs unhindered
// or is hit by a whole chunk, so its median and percentiles follow the
// kernel's CPU time and only its mean follows the wall time. Fitted on churn,
// whose cache hits take 0.3 ms and whose misses 7 ms, in two runs during
// which the guest lost a third of its throughput: the hits' median fitted 0.7
// and 1.3 ms, and at 1 ms the misses' p95 came out within 6% of a quiet run's.
const stallShareMS = 1.0

// latencyFactor is what a request of the given wall-clock latency is divided
// by: the geometric blend of the CPU-time and wall-time factors, weighted by
// how much of a stall a request of that length absorbs.
func (r *refClock) latencyFactor(p refProbe, latencyMS float64) float64 {
	w := latencyMS / (latencyMS + stallShareMS)
	return math.Pow(r.factor(p.cpuMS), 1-w) * math.Pow(r.factor(p.wallMS), w)
}

// solve is Dijkstra with a binary heap and lazy deletion; it returns the sum
// of the finite distances as a checksum.
func (r *refClock) solve(s *refSolver, src int32) int64 {
	const inf = int64(1) << 62
	d := s.dist
	for i := range d {
		d[i] = inf
	}
	h := s.heap[:0]
	d[src] = 0
	h = append(h, refHeapItem{0, src})
	var sum int64
	for len(h) > 0 {
		top := h[0]
		last := h[len(h)-1]
		h = h[:len(h)-1]
		if len(h) > 0 { // sift the last item down from the root
			i := 0
			for {
				c := 2*i + 1
				if c >= len(h) {
					break
				}
				if c+1 < len(h) && h[c+1].d < h[c].d {
					c++
				}
				if h[c].d >= last.d {
					break
				}
				h[i] = h[c]
				i = c
			}
			h[i] = last
		}
		if top.d > d[top.v] {
			continue // stale entry
		}
		sum += top.d
		for e := r.off[top.v]; e < r.off[top.v+1]; e++ {
			u, nd := r.tgt[e], top.d+int64(r.wt[e])
			if nd >= d[u] {
				continue
			}
			d[u] = nd
			h = append(h, refHeapItem{})
			i := len(h) - 1
			for i > 0 { // sift up
				p := (i - 1) / 2
				if h[p].d <= nd {
					break
				}
				h[i] = h[p]
				i = p
			}
			h[i] = refHeapItem{nd, u}
		}
	}
	s.heap = h
	return sum
}
