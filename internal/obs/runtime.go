package obs

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"
)

// RuntimeStats is a point-in-time snapshot of the Go runtime's health
// signals, shaped for the /metrics "runtime" section: goroutine count, heap
// occupancy, and GC pause behaviour. Together with the per-stage latency
// histograms it answers "is the process itself the bottleneck" — a query
// daemon whose p99 is GC pauses needs different tuning than one whose p99 is
// solver time.
type RuntimeStats struct {
	// Goroutines is the live goroutine count.
	Goroutines int `json:"goroutines"`
	// CPUs is GOMAXPROCS — the parallelism the solvers can actually get.
	CPUs int `json:"cpus"`
	// HeapAllocBytes is live heap memory in use.
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	// HeapSysBytes is heap memory obtained from the OS.
	HeapSysBytes uint64 `json:"heap_sys_bytes"`
	// HeapObjects is the live object count.
	HeapObjects uint64 `json:"heap_objects"`
	// NextGCBytes is the heap size that triggers the next collection.
	NextGCBytes uint64 `json:"next_gc_bytes"`
	// GCPercent is the GOGC percent in force (-1: off; GOGC, or what the
	// process derived itself).
	GCPercent int64 `json:"gc_percent"`
	// MemoryLimitBytes is the runtime's soft memory limit (math.MaxInt64:
	// none, unless GOMEMLIMIT sets one).
	MemoryLimitBytes int64 `json:"memory_limit_bytes"`
	// NumGC is the completed collection count.
	NumGC uint32 `json:"num_gc"`
	// GCPauseTotalMs is cumulative stop-the-world pause time.
	GCPauseTotalMs float64 `json:"gc_pause_total_ms"`
	// LastGCPauseMs is the most recent stop-the-world pause.
	LastGCPauseMs float64 `json:"last_gc_pause_ms"`
	// LastGC is when the last collection finished (zero if none ran).
	LastGC time.Time `json:"last_gc,omitempty"`
	// GCCPUFraction is the fraction of available CPU consumed by the GC.
	GCCPUFraction float64 `json:"gc_cpu_fraction"`
}

// ReadRuntimeStats snapshots the runtime. It calls runtime.ReadMemStats,
// which briefly stops the world — fine for a /metrics scrape, not for a
// per-request path.
func ReadRuntimeStats() RuntimeStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	gogc := []metrics.Sample{{Name: "/gc/gogc:percent"}}
	metrics.Read(gogc)
	s := RuntimeStats{
		Goroutines:       runtime.NumGoroutine(),
		CPUs:             runtime.GOMAXPROCS(0),
		HeapAllocBytes:   m.HeapAlloc,
		HeapSysBytes:     m.HeapSys,
		HeapObjects:      m.HeapObjects,
		NextGCBytes:      m.NextGC,
		GCPercent:        int64(gogc[0].Value.Uint64()),
		MemoryLimitBytes: debug.SetMemoryLimit(-1),
		NumGC:            m.NumGC,
		GCPauseTotalMs:   float64(m.PauseTotalNs) / 1e6,
		GCCPUFraction:    m.GCCPUFraction,
	}
	if m.NumGC > 0 {
		s.LastGCPauseMs = float64(m.PauseNs[(m.NumGC+255)%256]) / 1e6
		s.LastGC = time.Unix(0, int64(m.LastGC))
	}
	return s
}
