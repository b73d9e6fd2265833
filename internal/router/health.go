package router

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// backendState is one backend's live view: the static table entry plus what
// the health checker last learned about it and how many proxied requests it
// currently carries. Health flips on scrape outcomes only — a failed query
// never marks a backend down by itself (one slow query is not an outage),
// but a backend whose /metrics stops answering is out of the ring within one
// health interval.
type backendState struct {
	name   string
	url    string
	weight int

	inflight atomic.Int64 // proxied requests currently outstanding
	healthy  atomic.Bool

	mu         sync.RWMutex
	graphs     map[string]string // graph name -> lifecycle state, last scrape
	lastErr    string
	lastScrape time.Time
}

// setWeight updates the backend's ring weight when a reload carries the
// state over with a new weight (snapshot reads it under the same lock).
func (b *backendState) setWeight(w int) {
	b.mu.Lock()
	b.weight = w
	b.mu.Unlock()
}

// graphState returns the backend's last-scraped state for a graph ("" when
// the backend does not serve it or has never been scraped).
func (b *backendState) graphState(graph string) string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.graphs[graph]
}

// eligible reports whether the router may send a query for graph to this
// backend: the backend's last health scrape succeeded AND that scrape showed
// the graph ready. A loading, draining, failed, or absent graph excludes
// the backend for that graph only — its other graphs keep serving.
func (b *backendState) eligible(graph string) bool {
	return b.healthy.Load() && b.graphState(graph) == catalogStateReady
}

// catalogStateReady is the catalog lifecycle state a replica must report
// before the router will route to it (see internal/catalog.StateReady).
const catalogStateReady = "ready"

// applyScrape folds one scrape outcome into the backend's state and reports
// whether the healthy bit flipped.
func (b *backendState) applyScrape(m *obs.MetricsSnapshot, err error) (flipped bool) {
	b.mu.Lock()
	b.lastScrape = time.Now()
	if err != nil {
		b.lastErr = err.Error()
		b.graphs = nil
	} else {
		b.lastErr = ""
		g := make(map[string]string, len(m.Catalog.GraphStates))
		for _, gs := range m.Catalog.GraphStates {
			g[gs.Name] = gs.State
		}
		b.graphs = g
	}
	b.mu.Unlock()
	return b.healthy.Swap(err == nil) != (err == nil)
}

// BackendHealth is one backend's observable state, shaped for GET /fleet.
type BackendHealth struct {
	Name     string            `json:"name"`
	URL      string            `json:"url"`
	Weight   int               `json:"weight"`
	Healthy  bool              `json:"healthy"`
	InFlight int64             `json:"in_flight"`
	Graphs   map[string]string `json:"graphs,omitempty"`
	Error    string            `json:"error,omitempty"`
	// ScrapeAgeMs is how stale this view is (-1 before the first scrape).
	ScrapeAgeMs float64 `json:"scrape_age_ms"`
}

func (b *backendState) snapshot() BackendHealth {
	b.mu.RLock()
	defer b.mu.RUnlock()
	h := BackendHealth{
		Name:        b.name,
		URL:         b.url,
		Weight:      b.weight,
		Healthy:     b.healthy.Load(),
		InFlight:    b.inflight.Load(),
		Error:       b.lastErr,
		ScrapeAgeMs: -1,
	}
	if !b.lastScrape.IsZero() {
		h.ScrapeAgeMs = float64(time.Since(b.lastScrape)) / 1e6
	}
	if len(b.graphs) > 0 {
		h.Graphs = make(map[string]string, len(b.graphs))
		for k, v := range b.graphs {
			h.Graphs[k] = v
		}
	}
	return h
}

// checkOnce scrapes every backend of the current view; Reload-retired states
// simply stop being scraped once no view references them.
func (rt *Router) checkOnce(ctx context.Context) {
	rt.scrape(ctx, rt.view.Load().backends)
}

// scrape probes the given backends concurrently and folds the results in.
// Each probe gets its own HealthTimeout so one wedged backend cannot stall
// the round past the interval.
func (rt *Router) scrape(ctx context.Context, backends []*backendState) {
	var wg sync.WaitGroup
	for _, b := range backends {
		wg.Add(1)
		go func(b *backendState) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, rt.cfg.HealthTimeout)
			defer cancel()
			m, err := obs.ScrapeMetrics(sctx, rt.healthClient, b.url)
			rt.counters.C(cHealthProbes).Inc()
			if err != nil {
				rt.counters.C(cHealthProbeFailures).Inc()
			}
			if b.applyScrape(m, err) {
				rt.counters.C(cHealthTransitions).Inc()
				if err != nil {
					rt.logf("router: backend %s unhealthy: %v", b.name, err)
				} else {
					rt.logf("router: backend %s healthy (%d graphs)", b.name, len(m.Catalog.GraphStates))
				}
			}
		}(b)
	}
	wg.Wait()
}

// CheckNow runs one synchronous health round — the constructor primes the
// ring with it, and tests use it to advance health deterministically.
func (rt *Router) CheckNow(ctx context.Context) { rt.checkOnce(ctx) }

// healthLoop re-scrapes the fleet every HealthInterval until Close.
func (rt *Router) healthLoop() {
	defer rt.wg.Done()
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.checkOnce(context.Background())
		}
	}
}

// newHealthClient builds the scrape client: keep-alives on (the checker
// revisits the same hosts forever), tight dial bounds so a dead host fails
// the round fast instead of eating the whole timeout in SYN retries.
func newHealthClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
}
