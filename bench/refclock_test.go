package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/dijkstra"
	"repro/internal/graph"
)

// The reference kernel is a clock, but a clock that computes nonsense could
// change its amount of work unnoticed: it must be a correct Dijkstra.
func TestRefSolveIsDijkstra(t *testing.T) {
	g := randomGraph(10, 7)
	r := newRefClock(g)
	for _, src := range []int32{0, 17, 1023} {
		sum := r.solve(&r.solvers[0], src)
		want := dijkstra.SSSP(g, src)
		var wantSum int64
		for v, dv := range want {
			got := r.solvers[0].dist[v]
			if dv >= graph.Inf {
				if got < int64(1)<<62 {
					t.Fatalf("src %d: vertex %d reached at %d, want unreachable", src, v, got)
				}
				continue
			}
			wantSum += dv
			if got != dv {
				t.Fatalf("src %d: dist[%d] = %d, want %d", src, v, got, dv)
			}
		}
		if sum != wantSum {
			t.Errorf("src %d: checksum %d, want %d", src, sum, wantSum)
		}
	}
	if p := r.probe(); p.wallMS <= 0 || p.cpuMS <= 0 || p.cpuMS > 1.5*p.wallMS || len(r.probesMS) != 1 {
		t.Errorf("probe() = %+v with %d probes recorded, want positive times, CPU no more than wall, and one record", p, len(r.probesMS))
	}
}

// A host that runs the reference kernel twice as slowly in one slice, and
// answers twice as slowly there, must read the same on the reference clock as
// a host that was quiet throughout — while the wall clock shows the slowdown.
func TestSummarizeOnTheReferenceClock(t *testing.T) {
	ref := &refClock{nominalMS: 10}
	sec := time.Second
	ms := time.Millisecond
	build := func(slow float64) *window {
		win := &window{peakRSS: 1, slices: []slice{
			{from: 0, to: 2 * sec, ref: refProbe{10, 10}, daemonCPU: 2},
			{from: 3 * sec, to: 3*sec + time.Duration(slow*float64(2*sec)), ref: refProbe{10 * slow, 10 * slow}, daemonCPU: 2 * slow},
		}}
		for i := 0; i < 100; i++ {
			lat := time.Duration(10+i%10) * ms
			win.ops = append(win.ops,
				opRecord{slice: 0, lat: lat, status: 200},
				opRecord{slice: 1, lat: time.Duration(slow * float64(lat)), status: 200})
		}
		win.ops = append(win.ops, opRecord{slice: -1, lat: sec, status: 200}) // warm-up: not counted
		return win
	}
	w := workload{name: "single"}
	quiet := summarize(w, runConfig{}, build(1), ref)
	noisy := summarize(w, runConfig{}, build(2), ref)
	if quiet.Attempted != 200 || noisy.Attempted != 200 {
		t.Fatalf("attempted %d and %d, want 200 each (the warm-up request is outside every slice)", quiet.Attempted, noisy.Attempted)
	}
	for _, name := range []string{"ops_per_s", "p50_ms", "p95_ms", "cpu_ms_per_op"} {
		q, n := quiet.Metrics[name], noisy.Metrics[name]
		if q <= 0 || math.Abs(n-q) > 1e-9*q {
			t.Errorf("%s: %v on the quiet host, %v on the noisy one; the reference clock should read the same", name, q, n)
		}
		if quiet.Raw[name] != q {
			t.Errorf("%s: wall clock %v differs from reference clock %v on a host at nominal speed", name, quiet.Raw[name], q)
		}
	}
	if got, want := noisy.Raw["ops_per_s"], 200.0/6; math.Abs(got-want) > 1e-9 {
		t.Errorf("wall-clock ops_per_s = %v, want %v (200 requests in 2 s + 4 s)", got, want)
	}
	// A stall slows the kernel's wall time but not its CPU time; a request far
	// shorter than stallShareMS is corrected by the CPU factor, a far longer
	// one by the wall factor.
	stalled := refProbe{wallMS: 30, cpuMS: 20}
	if f := ref.latencyFactor(stalled, 0.001); math.Abs(f-2) > 0.01 {
		t.Errorf("latencyFactor of a 1 us request = %v, want the CPU factor 2", f)
	}
	if f := ref.latencyFactor(stalled, 1e6); math.Abs(f-3) > 0.01 {
		t.Errorf("latencyFactor of a 1000 s request = %v, want the wall factor 3", f)
	}
	if noisy.Raw["p95_ms"] <= noisy.Metrics["p95_ms"] {
		t.Errorf("wall-clock p95 %v should exceed the reference-clock p95 %v on the noisy host", noisy.Raw["p95_ms"], noisy.Metrics["p95_ms"])
	}
}
