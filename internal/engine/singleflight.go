package engine

import (
	"context"
	"sync"
)

// flightGroup coalesces concurrent calls for the same key into one execution
// whose result every caller shares — a hand-rolled, stdlib-only singleflight.
//
// The leader runs fn to completion regardless of any context (an SSSP
// traversal cannot be stopped mid-flight, and its result is still worth
// caching); waiters stop waiting when their own context expires. Completed
// calls are forgotten immediately, so only *concurrent* duplicates coalesce
// — sequential repeats are the cache's job.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	res  *Result
	dups int // callers that joined this execution; guarded by the group's mu
}

// do returns fn's result for key, executing it at most once across all
// concurrent callers. shared reports whether this caller joined another
// caller's execution. A non-nil error is only ever the waiter's ctx error.
func (g *flightGroup) do(ctx context.Context, key string, fn func() *Result) (res *Result, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		c.dups++
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.res, true, nil
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	defer func() {
		// On panic as well: unregister and release waiters (they observe a
		// nil result) so nobody blocks forever on a poisoned call.
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.res = fn()
	return c.res, false, nil
}

// joined is how many callers have joined the execution in flight for key; 0
// if none is in flight.
func (g *flightGroup) joined(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c.dups
	}
	return 0
}
