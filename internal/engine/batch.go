package engine

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// BatchResult is the outcome of one batch item: either a shared Result or a
// per-item error (bad query, or the batch context expired before the item
// was picked up).
type BatchResult struct {
	Res *Result
	Via Via
	Err error
}

// Batch answers many queries over the shared instance with a bounded worker
// pool (Config.BatchWorkers), amortizing per-request overhead: one admission,
// one response, one hierarchy. Items still flow through the cache,
// singleflight and the solvers' slots individually, so duplicate sources
// within a batch — or across a batch and live queries — solve once, and
// workers beyond a solver's slots wait for one.
//
// The returned slice maps 1:1 to queries. Once ctx is cancelled every item
// not yet answered fails with ctx.Err(): those not yet picked up at once, and
// those solving when their execution stops (see Query). Every item is always
// accounted for — the call never blocks on a cancelled remainder.
func (g *Gen) Batch(ctx context.Context, queries []Request) []BatchResult {
	g.counters.C(cBatchRequests).Inc()
	g.counters.C(cBatchItems).Add(int64(len(queries)))
	out := make([]BatchResult, len(queries))
	// When the batch request is traced, each item records an "item" span
	// under the batch's current span, so the parent trace ID reaches every
	// item; the per-trace span cap bounds what a 4096-item batch can attach.
	parent := trace.SpanFromContext(ctx)
	var next atomic.Int64 // the next item a worker takes
	var wg sync.WaitGroup
	for range min(g.cfg.BatchWorkers, len(queries)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(queries); i = int(next.Add(1)) - 1 {
				ictx := ctx
				var isp *trace.Span
				if parent != nil {
					isp = parent.StartChild("item")
					isp.SetAttr("index", i)
					ictx = trace.WithSpan(ctx, isp)
				}
				res, via, err := g.Query(ictx, queries[i])
				isp.End()
				out[i] = BatchResult{Res: res, Via: via, Err: err}
			}
		}()
	}
	wg.Wait()
	return out
}
