// Command ssspr is the routing tier in front of a fleet of ssspd backends:
// one endpoint that consistent-hashes graphs across the fleet, replicates
// hot graphs, health-checks backends through their /metrics, retries
// idempotent reads, and fans large batches out by shard. All behavior lives
// in internal/router; this command is flag wiring.
//
// Usage:
//
//	ssspr -table fleet.json [-addr :8090] [flags]
//
// where fleet.json is a routing table (see internal/router.Table):
//
//	{"v": 1, "replicas": 2,
//	 "backends": [{"name": "b1", "url": "http://10.0.0.1:8080", "weight": 2},
//	              {"name": "b2", "url": "http://10.0.0.2:8080"}],
//	 "graphs": {"hot-graph": {"replicas": 3}}}
//
// SIGHUP re-reads -table and hot-swaps the fleet view in place: backends
// that persist keep their health state, and in-flight requests finish on the
// backends they started with.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/httpx"
	"repro/internal/router"
	"repro/internal/trace"
)

func main() {
	var (
		tablePath      = flag.String("table", "", "routing table JSON file (required)")
		addr           = flag.String("addr", ":8090", "listen address")
		defaultGraph   = flag.String("default-graph", "", "graph used by requests without ?graph= (empty makes the parameter mandatory)")
		healthInterval = flag.Duration("health-interval", 2*time.Second, "backend /metrics scrape period")
		healthTimeout  = flag.Duration("health-timeout", time.Second, "per-backend scrape deadline")
		timeout        = flag.Duration("timeout", 30*time.Second, "per-request deadline for proxied query endpoints (0 disables)")
		retry          = flag.Bool("retry", true, "retry a failed idempotent read once on a different replica")
		retryBudget    = flag.Float64("retry-budget", 10, "retry token-bucket refill rate in retries/second")
		retryBackoff   = flag.Duration("retry-backoff", 5*time.Millisecond, "pause before a retry attempt")
		drain          = flag.Duration("drain", 15*time.Second, "graceful shutdown drain budget")
		traceSample    = flag.Int("trace-sample", 100, "tail-sample 1 in N finished routed traces into /debug/traces (0 disables tracing)")
		traceRing      = flag.Int("trace-ring", 256, "retained-trace ring buffer capacity for /debug/traces")
		slowQuery      = flag.Duration("slow-query", 0, "log and always retain routed traces at least this slow (0 disables the slow-query log)")
	)
	flag.Parse()
	if *tablePath == "" {
		log.Fatalf("ssspr: -table required")
	}
	tbl, err := router.ReadTableFile(*tablePath)
	if err != nil {
		log.Fatalf("ssspr: %v", err)
	}
	rt, err := router.New(router.Config{
		Table:          tbl,
		DefaultGraph:   *defaultGraph,
		HealthInterval: *healthInterval,
		HealthTimeout:  *healthTimeout,
		Timeout:        *timeout,
		Retry:          *retry,
		RetryBudget:    *retryBudget,
		RetryBackoff:   *retryBackoff,
		Trace: trace.Config{
			SampleN:   *traceSample,
			RingSize:  *traceRing,
			SlowQuery: *slowQuery,
			Logf:      log.Printf,
		},
		Logf: log.Printf,
	})
	if err != nil {
		log.Fatalf("ssspr: %v", err)
	}
	defer rt.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP re-reads the table file and hot-swaps the fleet view; in-flight
	// requests keep the backends they started with.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go reloadLoop(hup, rt, *tablePath)

	log.Printf("ssspr: routing %d backends on %s (replicas=%d health-interval=%s retry=%v timeout=%s)",
		len(tbl.Backends), *addr, tbl.ReplicaCount(""), *healthInterval, *retry, *timeout)
	if err := httpx.Serve(ctx, *addr, rt.Mux(), *timeout, *drain, "ssspr"); err != nil {
		log.Fatalf("ssspr: %v", err)
	}
	log.Printf("ssspr: drained, bye")
}

// reloadLoop re-reads the routing table and swaps it into rt each time a
// signal arrives (main wires SIGHUP to it). A table that fails to read or
// validate is logged and skipped — the router keeps serving the current one.
func reloadLoop(sig <-chan os.Signal, rt *router.Router, path string) {
	for range sig {
		tbl, err := router.ReadTableFile(path)
		if err == nil {
			err = rt.Reload(tbl)
		}
		if err != nil {
			log.Printf("ssspr: reload %s: %v (keeping current table)", path, err)
			continue
		}
		log.Printf("ssspr: table reloaded from %s (%d backends)", path, len(tbl.Backends))
	}
}
