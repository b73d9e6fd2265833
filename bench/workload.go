package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/dijkstra"
)

// workload is one row of the README's workload table.
type workload struct {
	name     string
	why      string
	clients  int
	snapshot bool // boot from a mapped snapshot of the small graph instead of text of the big one
	starts   int  // cold starts timed for setup_s
}

// The four workloads. Each `why` is what BENCHMARK.json records.
var workloads = []workload{
	{name: "single", clients: 2, starts: 5,
		why: "cache-hostile single-source /dist: the policy-picked kernel (delta-stepping) is nearly all of an op; Thorup and CH changes predict no change"},
	{name: "multi", clients: 2, starts: 5,
		why: "nearest-of-4 multi-source /batch: the policy sends it to parallel Thorup over the shared CH; delta-stepping changes predict no change"},
	{name: "batch", clients: 1, starts: 5,
		why: "8 single-source items per /batch (paper Fig. 5 shape): same kernels as single, for throughput through engine.Batch's worker pool"},
	{name: "churn", clients: 1, starts: 15, snapshot: true,
		why: "499 Zipf /sssp reads per 4-op mutation on a mapped snapshot: p50 is the cache-hit overhead path, p95 a miss after a generation swap"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runConfig is what one run of one workload is parameterised by. The CLI sets
// seed, window and trace; the graph sizes are fixed there and shrunk only by
// the smoke test.
type runConfig struct {
	seed     uint64
	window   time.Duration
	trace    bool // traced run: shorter set-up, per-layer metrics, op spans recorded
	logBig   int  // text graph of single, multi, batch
	logSmall int  // snapshot graph of churn
}

const (
	defaultLogBig   = 16
	defaultLogSmall = 14
)

// warmup is how long the clients run before the timed window opens: long
// enough for connections, pools, the heap and (on churn) the first few
// generations to settle.
func (c runConfig) warmup() time.Duration {
	w := c.window / 8
	if w < time.Second {
		w = time.Second
	}
	if w > 5*time.Second {
		w = 5 * time.Second
	}
	return w
}

// opRecord is one completed request.
type opRecord struct {
	op      op
	slice   int           // timed slice the request ran in; -1 during warm-up
	start   time.Duration // since the clients started
	lat     time.Duration
	status  int // 0 on a transport error
	body    []byte
	answers []answer // decoded by checkAnswers; nil for writes and failures
	failed  bool     // set by the oracle or on status != 2xx
}

// runResult is one run of one workload.
type runResult struct {
	Seed      uint64             `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   map[string]int     `json:"samples"` // per-metric sample counts
	Metrics   map[string]float64 `json:"metrics"` // end-to-end, durations on the reference clock
	Raw       map[string]float64 `json:"raw"`     // the same durations as the wall clock read them
	Layers    map[string]float64 `json:"layers"`  // the per-layer metrics a window yields
	Notes     []string           `json:"notes,omitempty"`
	spans     []span
}

// runWorkload boots the daemon (timing its cold starts), drives the closed
// loop, checks the answers and returns the metrics. Every daemon it starts is
// stopped before it returns.
func (s *site) runWorkload(w workload, cfg runConfig) (*runResult, error) {
	load := loadavg1()
	prep0 := time.Now()
	var (
		in  *instance
		err error
	)
	if w.snapshot {
		in, err = s.snapInstance(cfg.logSmall, cfg.seed)
	} else {
		in, err = s.textInstance(cfg.logBig, cfg.seed)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: prepare graph: %w", w.name, err)
	}
	n := in.g.NumVertices()
	// The probe every cold start must answer correctly before it counts.
	probe := rngPerm(cfg.seed, streamLadder, n)[:2]
	want := dijkstra.SSSP(in.g, int32(probe[0]))[probe[1]]
	prepS := time.Since(prep0).Seconds() + s.buildS

	// Hard cap for the whole run: cold starts, warm-up, window, oracle.
	starts := w.starts
	if cfg.trace {
		starts = 1
	}
	budget := time.Duration(starts+2)*hardTimeout + cfg.warmup() + cfg.window
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	client := newClient()
	defer client.CloseIdleConnections()
	ref := newRefClock(in.g)
	ref.probe() // the first touches its arrays; it is not used

	flag := "-graph"
	if w.snapshot {
		flag = "-snapshot"
	}
	var (
		d                 *daemon
		setups, rawSetups []float64
	)
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for i := 0; i < starts; i++ {
		if d != nil {
			d.stop() // the last start stays up and serves the window
		}
		refBefore := ref.probe()
		t0 := time.Now()
		d, err = spawn(s.work, s.ssspd, w.name+"-ssspd.log", s.addr(0), "-addr", s.addr(0), flag, in.file)
		if err != nil {
			return nil, err
		}
		sctx, scancel := context.WithTimeout(ctx, hardTimeout)
		body, err := awaitAnswer(sctx, client, d, fmt.Sprintf("%s/dist?src=%d&dst=%d", d.url, probe[0], probe[1]))
		scancel()
		if err != nil {
			return nil, fmt.Errorf("%s: cold start %d: %w", w.name, i+1, err)
		}
		wall := time.Since(t0).Seconds()
		rawSetups = append(rawSetups, wall)
		setups = append(setups, wall/ref.factor(mid(refBefore, ref.probe()).wallMS))
		var got distResp
		if err := json.Unmarshal(body, &got); err != nil || got.Dist != jsonDist(want) {
			return nil, fmt.Errorf("%s: cold start %d answered %s, want dist %d", w.name, i+1, body, jsonDist(want))
		}
	}

	var sources []opSource
	if w.snapshot {
		sources = []opSource{newChurnSource(in.g, in.file, cfg.seed)}
	} else {
		sources = newStrideSources(w.name, n, w.clients, cfg.seed)
	}
	win, err := drive(ctx, client, d, sources, cfg, ref)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if err := checkAnswers(ctx, client, d, w, in, cfg, win); err != nil {
		return nil, fmt.Errorf("%s: oracle: %w", w.name, err)
	}

	res := summarize(w, cfg, win, ref)
	res.Metrics["setup_s"], res.Raw["setup_s"] = median(setups), median(rawSetups)
	res.Samples["setup_s"] = len(setups)
	res.Layers["bench.ref_solve_ms"] = median(ref.probesMS)
	res.Layers["bench.host_factor"] = ref.factor(median(ref.probesMS))
	res.Layers["bench.prep_s"] = prepS
	res.Layers["bench.loadavg_start"] = load
	if share := res.Layers["bench.client_cpu_share"]; share > 0.20 {
		res.Notes = append(res.Notes, fmt.Sprintf("noisy: the benchmark's own CPU share was %.0f%% (> 20%%)", 100*share))
	}
	if load > 1.0 {
		res.Notes = append(res.Notes, fmt.Sprintf("noisy: load average was %.2f (> 1.0) before the run", load))
	}
	return res, nil
}

// slice is one stretch of the timed window: the clients run, then pause
// while the reference kernel is timed. Every request of a slice started and
// completed inside it.
type slice struct {
	from, to  time.Duration // since the clients started
	ref       refProbe      // the reference kernel, halfway between the probes before and after
	daemonCPU float64       // daemon user+sys seconds inside the slice
	selfCPU   float64       // this process's, the probes excluded
}

// window is what drive observed.
type window struct {
	ops     []opRecord // every request completed, warm-up included, in completion order per client
	slices  []slice
	peakRSS float64
	before  *scrape // /metrics at window start and end, traced runs only
	after   *scrape
}

// inWindow reports whether a request ran inside a timed slice.
func (w *window) inWindow(r *opRecord) bool { return r.slice >= 0 }

// sliceLen is how long the clients run between two probes: a tenth of the
// window, so that a run has ten probes' worth of host readings, but at most
// two seconds (the host's phases are slower than that) and at least a quarter.
func (c runConfig) sliceLen() time.Duration {
	l := c.window / 10
	if l > 2*time.Second {
		l = 2 * time.Second
	}
	if l < 250*time.Millisecond {
		l = 250 * time.Millisecond
	}
	return l
}

// drive runs the closed loop: one goroutine per source, each sending its next
// request when the previous one has been answered, through the warm-up and
// then slice after slice until the slices add up to the window. Between
// slices the clients wait at a gate while the reference kernel runs against
// an idle daemon. CPU time is read at every slice's edges, memory at the end,
// and on a traced run /metrics at both ends.
func drive(ctx context.Context, client *http.Client, d *daemon, sources []opSource, cfg runConfig, ref *refClock) (*window, error) {
	win := &window{}
	t0 := time.Now()
	var (
		gate sync.RWMutex // clients hold it shared around a request, the prober exclusively
		cur  atomic.Int64 // slice under way; -1 before the first
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	cur.Store(-1)
	perClient := make([][]opRecord, len(sources))
	for c, src := range sources {
		wg.Add(1)
		go func(c int, src opSource) {
			defer wg.Done()
			misses := 0
			for ctx.Err() == nil {
				gate.RLock()
				if stop.Load() {
					gate.RUnlock()
					return
				}
				o := src.next()
				rec := opRecord{op: o, slice: int(cur.Load()), start: time.Since(t0)}
				body, status, err := do(ctx, client, o.method, d.url+o.path, o.body)
				rec.lat = time.Since(t0) - rec.start
				gate.RUnlock()
				rec.status, rec.body = status, body
				if err != nil {
					rec.status = 0
				}
				rec.failed = rec.status < 200 || rec.status > 299
				perClient[c] = append(perClient[c], rec)
				if rec.failed {
					// A dead daemon refuses in microseconds; do not spin on it.
					if misses++; misses > 100 {
						return
					}
					time.Sleep(10 * time.Millisecond)
				} else {
					misses = 0
				}
			}
		}(c, src)
	}
	sleep := func(dur time.Duration) {
		select {
		case <-time.After(dur):
		case <-ctx.Done():
		}
	}

	var firstErr error
	note := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	sleep(cfg.warmup())
	gate.Lock() // returns once the requests in flight have been answered
	refBefore := ref.probe()
	if cfg.trace {
		sc, err := scrapeDaemon(ctx, client, d.url)
		win.before = sc
		note(err)
	}
	for timed := time.Duration(0); timed < cfg.window && ctx.Err() == nil; {
		cpu0, err := cpuSeconds(d.pid())
		note(err)
		self0 := ownCPUSeconds()
		sl := slice{from: time.Since(t0)}
		cur.Add(1)
		gate.Unlock()
		sleep(cfg.sliceLen())
		gate.Lock()
		sl.to = time.Since(t0)
		cpu1, err := cpuSeconds(d.pid())
		note(err)
		sl.daemonCPU, sl.selfCPU = cpu1-cpu0, ownCPUSeconds()-self0
		refAfter := ref.probe()
		sl.ref = mid(refBefore, refAfter)
		refBefore = refAfter
		win.slices = append(win.slices, sl)
		timed += sl.to - sl.from
	}
	stop.Store(true)
	gate.Unlock()
	wg.Wait()
	rss, err := peakRSSMB(d.pid())
	note(err)
	if cfg.trace {
		sc, err := scrapeDaemon(ctx, client, d.url)
		win.after = sc
		note(err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("hard timeout: %w", err)
	}
	if firstErr != nil {
		return nil, fmt.Errorf("reading daemon state at a slice's edge: %w", firstErr)
	}
	win.peakRSS = rss
	for _, recs := range perClient {
		win.ops = append(win.ops, recs...)
	}
	return win, nil
}

// ownCPUSeconds is this process's user+system CPU time.
func ownCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // advisory metric; getrusage(SELF) does not fail on Linux
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// summarize turns a checked window into metrics. Durations are reported twice:
// Raw as the wall clock read them, Metrics on the reference clock — every
// slice's length divided by the host factor of the slice, its CPU time by the
// factor the reference kernel's own CPU time gives, every request's latency by
// the blend of the two that suits its length, then pooled over the window.
func summarize(w workload, cfg runConfig, win *window, ref *refClock) *runResult {
	res := &runResult{Seed: cfg.seed, Samples: map[string]int{}, Metrics: map[string]float64{},
		Raw: map[string]float64{}, Layers: map[string]float64{}}
	var secs, refSecs, cpu, refCPU, selfCPU float64
	for _, sl := range win.slices {
		secs += (sl.to - sl.from).Seconds()
		refSecs += (sl.to - sl.from).Seconds() / ref.factor(sl.ref.wallMS)
		cpu += sl.daemonCPU
		refCPU += sl.daemonCPU / ref.factor(sl.ref.cpuMS)
		selfCPU += sl.selfCPU
	}
	var lat, refLat, wlat, refWlat []float64
	via := map[string]int{}
	solverRuns := map[string]int{}
	items := 0
	for i := range win.ops {
		r := &win.ops[i]
		if !win.inWindow(r) {
			continue
		}
		res.Attempted++
		if r.failed {
			res.Failed++
			continue
		}
		ms := float64(r.lat) / float64(time.Millisecond)
		refMS := ms / ref.latencyFactor(win.slices[r.slice].ref, ms)
		lat = append(lat, ms)
		refLat = append(refLat, refMS)
		if cfg.trace {
			res.spans = append(res.spans, span{Name: w.name + ".op", ID: len(res.spans),
				StartUS: r.start.Microseconds(), EndUS: (r.start + r.lat).Microseconds()})
		}
		if r.op.delta != nil {
			wlat = append(wlat, ms)
			refWlat = append(refWlat, refMS)
			continue
		}
		for _, a := range r.answers {
			items++
			via[a.Via]++
			if a.Via == "solve" {
				solverRuns[a.Solver]++
			}
		}
	}
	ok := len(lat)
	for _, v := range [][]float64{lat, refLat, wlat, refWlat} {
		sort.Float64s(v)
	}
	if secs > 0 {
		res.Raw["ops_per_s"] = float64(ok) / secs
		res.Metrics["ops_per_s"] = float64(ok) / refSecs
	}
	res.Raw["p50_ms"], res.Metrics["p50_ms"] = percentile(lat, 0.50), percentile(refLat, 0.50)
	res.Raw["p95_ms"], res.Metrics["p95_ms"] = percentile(lat, 0.95), percentile(refLat, 0.95)
	res.Metrics["peak_rss_mb"] = win.peakRSS
	if ok > 0 {
		res.Raw["cpu_ms_per_op"] = 1000 * cpu / float64(ok)
		res.Metrics["cpu_ms_per_op"] = 1000 * refCPU / float64(ok)
	}
	if res.Attempted > 0 {
		res.Metrics["fail_ratio"] = float64(res.Failed) / float64(res.Attempted)
	}
	for _, name := range []string{"ops_per_s", "p50_ms", "p95_ms", "cpu_ms_per_op"} {
		res.Samples[name] = ok
	}
	res.Samples["fail_ratio"] = res.Attempted
	res.Samples["peak_rss_mb"] = 1
	if beyond := samplesBeyond(ok, 0.95); beyond < 10 {
		res.Notes = append(res.Notes, fmt.Sprintf("p95_ms has only %d samples beyond it (%d samples; 200 give 10)", beyond, ok))
	}
	if w.snapshot {
		res.Raw["write_p50_ms"], res.Metrics["write_p50_ms"] = percentile(wlat, 0.50), percentile(refWlat, 0.50)
		res.Samples["write_p50_ms"] = len(wlat)
	}

	res.Layers["engine.solves"] = float64(via["solve"])
	res.Layers["engine.dedup_hits"] = float64(via["dedup"])
	if items > 0 {
		res.Layers["engine.cache_hit_ratio"] = float64(via["cache"]) / float64(items)
	}
	for _, m := range layerMetrics {
		if solver, ok := strings.CutPrefix(m.Name, "engine.solver_share."); ok {
			res.Layers[m.Name] = 0
			if via["solve"] > 0 {
				res.Layers[m.Name] = float64(solverRuns[solver]) / float64(via["solve"])
			}
		}
	}
	if total := cpu + selfCPU; total > 0 {
		res.Layers["bench.client_cpu_share"] = selfCPU / total
	}
	if win.before != nil && win.after != nil {
		res.Layers["catalog.swaps"] = float64(win.after.Catalog.Swaps - win.before.Catalog.Swaps)
		res.Layers["ssspd.gc_cycles"] = float64(win.after.Runtime.NumGC - win.before.Runtime.NumGC)
		res.Layers["ssspd.gc_pause_ms"] = win.after.Runtime.GCPauseTotalMs - win.before.Runtime.GCPauseTotalMs
	}
	return res
}

// scrape is the part of ssspd's /metrics document the per-layer metrics use:
// process-wide counters only. The "engine" section belongs to the current
// generation and restarts at every swap, so per-window engine numbers come
// from the responses' own via/solver fields instead (see summarize).
type scrape struct {
	Catalog struct {
		Swaps int64 `json:"swaps"`
	} `json:"catalog"`
	Runtime struct {
		NumGC          int64   `json:"num_gc"`
		GCPauseTotalMs float64 `json:"gc_pause_total_ms"`
	} `json:"runtime"`
}

func scrapeDaemon(ctx context.Context, c *http.Client, base string) (*scrape, error) {
	body, status, err := get(ctx, c, base+"/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	var sc scrape
	if err := json.Unmarshal(body, &sc); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	return &sc, nil
}
