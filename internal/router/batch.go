package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/httpx"
	"repro/internal/trace"
)

// Batch fan-out sizing. A batch is split across a graph's replicas only when
// every shard would still carry at least minShardItems items — splitting a
// 4-item batch across 2 backends buys nothing and doubles per-request
// overhead.
const (
	minShardItems = 8
	maxBatchBody  = 1 << 20
	maxBatchItems = 4096
)

// batchEnvelope mirrors ssspd's batch request shape with the items kept
// opaque: the router splits and recombines, it never interprets a query.
type batchEnvelope struct {
	Queries []json.RawMessage `json:"queries"`
	Solver  string            `json:"solver,omitempty"`
	Full    bool              `json:"full,omitempty"`
}

// batchResults mirrors ssspd's batch response shape, items opaque.
type batchResults struct {
	Results []json.RawMessage `json:"results"`
}

// handleBatch proxies POST /batch. Small batches go to one replica (with the
// usual one-retry policy); large ones fan out across the graph's eligible
// replicas — item i goes to shard i mod S, so recombination is positional and
// the client sees results in its own order. A failed shard fails only its own
// items: each gets a per-item {"error","status"} placeholder, matching
// ssspd's own partial-batch semantics.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	graph := rt.graphOf(r)
	if graph == "" {
		httpx.Error(w, http.StatusBadRequest, "parameter \"graph\" required (the router has no default graph)")
		return
	}
	body, env, err := readBatch(w, r)
	if err != nil {
		httpx.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	eligible, ok := rt.routeSpan(r, graph)
	if !ok {
		rt.shedNoReplica(w, graph)
		return
	}
	shards := len(eligible)
	if max := len(env.Queries) / minShardItems; shards > max {
		shards = max
	}
	if shards < 2 {
		rt.forward(w, r, eligible, body)
		return
	}
	rt.batchFanout(w, r, eligible, env, shards)
}

// readBatch decodes the request body far enough to know the item count,
// keeping items opaque. Size and item-count limits mirror ssspd's.
func readBatch(w http.ResponseWriter, r *http.Request) ([]byte, *batchEnvelope, error) {
	defer r.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBatchBody)); err != nil {
		return nil, nil, fmt.Errorf("reading body: %v", err)
	}
	var env batchEnvelope
	if err := httpx.DecodeStrict(bytes.NewReader(buf.Bytes()), &env); err != nil {
		return nil, nil, fmt.Errorf("decoding batch: %v", err)
	}
	if len(env.Queries) == 0 {
		return nil, nil, fmt.Errorf("batch has no queries")
	}
	if len(env.Queries) > maxBatchItems {
		return nil, nil, fmt.Errorf("batch has %d queries, limit %d", len(env.Queries), maxBatchItems)
	}
	return buf.Bytes(), &env, nil
}

// shardOutcome is one sub-batch's result: either results (len == item count)
// or an error every item in the shard inherits.
type shardOutcome struct {
	backend string
	results []json.RawMessage
	errMsg  string
	status  int // per-item status for errMsg; 0 when results is set
	shed    int // Retry-After seconds when the shard's replicas shed
}

// batchFanout splits the batch round-robin across shards replicas, sends the
// sub-batches concurrently under a fanout_join span, and recombines per-item
// results in the client's original order.
func (rt *Router) batchFanout(w http.ResponseWriter, r *http.Request, eligible []*backendState, env *batchEnvelope, shards int) {
	rt.counters.C(cFanouts).Inc()
	tr := trace.FromContext(r.Context())
	join := tr.StartSpan("fanout_join")
	join.SetAttr("shards", shards)
	join.SetAttr("items", len(env.Queries))

	subs := make([]*batchEnvelope, shards)
	for s := range subs {
		subs[s] = &batchEnvelope{Solver: env.Solver, Full: env.Full}
	}
	for i, q := range env.Queries {
		s := i % shards
		subs[s].Queries = append(subs[s].Queries, q)
	}

	outcomes := make([]shardOutcome, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			outcomes[s] = rt.sendShard(r, eligible, eligible[s%len(eligible)], subs[s])
		}(s)
	}
	wg.Wait()
	join.End()

	// If every shard shed, the graph is overloaded tier-wide: shed the whole
	// batch with the longest back-off any replica asked for.
	allShed, maxRA := true, 0
	backends := make([]string, 0, shards)
	for _, o := range outcomes {
		if o.shed == 0 {
			allShed = false
		} else if o.shed > maxRA {
			maxRA = o.shed
		}
		backends = append(backends, o.backend)
	}
	if allShed {
		rt.counters.C(cAllShedding).Inc()
		w.Header().Set("Retry-After", strconv.Itoa(maxRA))
		httpx.Error(w, http.StatusServiceUnavailable, "all replicas shedding")
		return
	}

	out := make([]json.RawMessage, len(env.Queries))
	for i := range env.Queries {
		o := &outcomes[i%shards]
		if o.results != nil {
			out[i] = o.results[i/shards]
			continue
		}
		rt.counters.C(cFanoutItemErrors).Inc()
		msg, _ := json.Marshal(map[string]any{"error": o.errMsg, "status": o.status})
		out[i] = msg
	}
	w.Header().Set("X-Backend", strings.Join(backends, ","))
	httpx.WriteJSON(w, http.StatusOK, batchResults{Results: out})
	rt.counters.C(cRouted).Inc()
}

// sendShard sends one sub-batch to its replica, retrying once on a different
// one under the budget. Whatever happens is folded into a shardOutcome — a
// shard never fails the whole batch.
func (rt *Router) sendShard(r *http.Request, eligible []*backendState, first *backendState, sub *batchEnvelope) shardOutcome {
	body, err := json.Marshal(sub)
	if err != nil {
		return shardOutcome{backend: first.name, errMsg: err.Error(), status: http.StatusInternalServerError}
	}
	o := rt.send(r, eligible, first, body)
	rt.counters.C(cFanoutSubrequests).Inc()
	if o.retried {
		rt.counters.C(cFanoutSubrequests).Inc()
	}
	out := rt.shardOutcomeOf(o.backend, o.resp, o.err, len(sub.Queries))
	if out.results == nil {
		out.shed = o.retryAfter
	}
	return out
}

// shardOutcomeOf folds one sub-request attempt into a shardOutcome: decode on
// 200 (length-checked), per-item error placeholders otherwise.
func (rt *Router) shardOutcomeOf(b *backendState, resp *http.Response, err error, want int) shardOutcome {
	o := shardOutcome{backend: b.name}
	if err != nil {
		o.errMsg, o.status = fmt.Sprintf("backend %s: %v", b.name, err), http.StatusBadGateway
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		o.errMsg = fmt.Sprintf("backend %s: status %d", b.name, resp.StatusCode)
		o.status = resp.StatusCode
		return o
	}
	var br batchResults
	if derr := json.NewDecoder(resp.Body).Decode(&br); derr != nil {
		o.errMsg, o.status = fmt.Sprintf("backend %s: decoding results: %v", b.name, derr), http.StatusBadGateway
		return o
	}
	if len(br.Results) != want {
		o.errMsg = fmt.Sprintf("backend %s: %d results for %d queries", b.name, len(br.Results), want)
		o.status = http.StatusBadGateway
		return o
	}
	o.results = br.Results
	return o
}
