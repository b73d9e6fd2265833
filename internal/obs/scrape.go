package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// MetricsSnapshot is the counter subset of the daemon's GET /metrics
// document that a load generator attributes its observations against:
// per-endpoint admission outcomes, the engine's cache/dedup/solve counters,
// and the catalog's acquire/eviction counters. Gauges and histograms are
// deliberately excluded — only monotonic counters subtract meaningfully
// across two scrapes (see Sub).
type MetricsSnapshot struct {
	Endpoints map[string]EndpointCounters `json:"endpoints"`
	Engine    EngineCounters              `json:"engine"`
	Catalog   CatalogCounters             `json:"catalog"`
}

// EndpointCounters is one endpoint's monotonic counters.
type EndpointCounters struct {
	Requests int64            `json:"requests"`
	Shed     int64            `json:"shed"`
	Timeout  int64            `json:"timeout"`
	Status   map[string]int64 `json:"status"`
}

// EngineCounters is the default graph's engine counter set.
type EngineCounters struct {
	Solves         int64 `json:"solves"`
	DedupHits      int64 `json:"dedup_hits"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	BatchRequests  int64 `json:"batch_requests"`
	BatchItems     int64 `json:"batch_items"`
}

// CatalogCounters is the catalog-wide counter set, plus the per-graph
// lifecycle states a routing tier keys its per-graph health on.
type CatalogCounters struct {
	Acquires        int64 `json:"acquires"`
	AcquireNotReady int64 `json:"acquire_not_ready"`
	Evictions       int64 `json:"evictions"`
	Swaps           int64 `json:"swaps"`
	// GraphStates lists every graph the daemon knows and its lifecycle state
	// ("ready", "draining", ...). Not a counter — Sub carries the newer
	// scrape's list through unchanged, since a state has no meaningful delta.
	GraphStates []GraphState `json:"graph_states,omitempty"`
}

// GraphState is one graph's lifecycle state as exposed by /metrics, with the
// state of its serving generation's Component Hierarchy ("unbuilt",
// "carried", "built") and what the query that demanded it spent building it.
type GraphState struct {
	Name             string  `json:"name"`
	State            string  `json:"state"`
	Hierarchy        string  `json:"hierarchy,omitempty"`
	HierarchyBuildMS float64 `json:"hierarchy_build_ms,omitempty"`
}

// ScrapeMetrics fetches and decodes baseURL's GET /metrics into the counter
// subset. Unknown keys in the document are ignored: the scrape contract is
// "at least these counters", so the daemon may grow metrics freely.
func ScrapeMetrics(ctx context.Context, client *http.Client, baseURL string) (*MetricsSnapshot, error) {
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("obs: scrape %s/metrics: status %d", baseURL, resp.StatusCode)
	}
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("obs: scrape %s/metrics: %w", baseURL, err)
	}
	return &m, nil
}

// Sub returns the counter deltas m - prev: what happened between two
// scrapes. Endpoints present only in m are reported whole (a graph loaded
// mid-window starts its counters at zero anyway).
func (m *MetricsSnapshot) Sub(prev *MetricsSnapshot) *MetricsSnapshot {
	d := &MetricsSnapshot{
		Endpoints: make(map[string]EndpointCounters, len(m.Endpoints)),
		Engine: EngineCounters{
			Solves:         m.Engine.Solves - prev.Engine.Solves,
			DedupHits:      m.Engine.DedupHits - prev.Engine.DedupHits,
			CacheHits:      m.Engine.CacheHits - prev.Engine.CacheHits,
			CacheMisses:    m.Engine.CacheMisses - prev.Engine.CacheMisses,
			CacheEvictions: m.Engine.CacheEvictions - prev.Engine.CacheEvictions,
			BatchRequests:  m.Engine.BatchRequests - prev.Engine.BatchRequests,
			BatchItems:     m.Engine.BatchItems - prev.Engine.BatchItems,
		},
		Catalog: CatalogCounters{
			Acquires:        m.Catalog.Acquires - prev.Catalog.Acquires,
			AcquireNotReady: m.Catalog.AcquireNotReady - prev.Catalog.AcquireNotReady,
			Evictions:       m.Catalog.Evictions - prev.Catalog.Evictions,
			Swaps:           m.Catalog.Swaps - prev.Catalog.Swaps,
			GraphStates:     m.Catalog.GraphStates,
		},
	}
	for name, cur := range m.Endpoints {
		p := prev.Endpoints[name]
		ec := EndpointCounters{
			Requests: cur.Requests - p.Requests,
			Shed:     cur.Shed - p.Shed,
			Timeout:  cur.Timeout - p.Timeout,
		}
		if len(cur.Status) > 0 {
			ec.Status = make(map[string]int64, len(cur.Status))
			for class, n := range cur.Status {
				if delta := n - p.Status[class]; delta != 0 {
					ec.Status[class] = delta
				}
			}
		}
		d.Endpoints[name] = ec
	}
	return d
}

// TotalShed sums the shed counter across all endpoints.
func (m *MetricsSnapshot) TotalShed() int64 {
	var n int64
	for _, e := range m.Endpoints {
		n += e.Shed
	}
	return n
}

// TotalTimeouts sums the timeout counter across all endpoints.
func (m *MetricsSnapshot) TotalTimeouts() int64 {
	var n int64
	for _, e := range m.Endpoints {
		n += e.Timeout
	}
	return n
}
