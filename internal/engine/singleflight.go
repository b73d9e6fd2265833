package engine

import (
	"context"
	"sync"
)

// flightGroup coalesces concurrent calls for the same key into one execution
// whose result every caller shares — a hand-rolled, stdlib-only singleflight.
// The execution runs on the leader's goroutine under a context of its own
// that lives while any caller's does: the last caller to leave ends it and
// forgets the call, so a later caller starts afresh. Completed calls are
// forgotten immediately, so only *concurrent* duplicates coalesce —
// sequential repeats are the cache's job.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done    chan struct{}
	res     *Result
	cancel  context.CancelFunc // ends the execution's context
	waiting int                // callers whose contexts live; guarded by the group's mu
}

// do returns fn's result for key, executing it at most once across all
// concurrent callers; fn gets the execution's context and returns nil if that
// stopped it. shared reports whether this caller joined another's execution.
// A caller whose ctx has ended gets its error, whatever fn returned.
func (g *flightGroup) do(ctx context.Context, key string, fn func(context.Context) *Result) (res *Result, shared bool, err error) {
	g.mu.Lock()
	c, shared := g.calls[key]
	var ectx context.Context
	if !shared {
		c = &flightCall{done: make(chan struct{})}
		ectx, c.cancel = context.WithCancel(context.Background())
		g.calls[key] = c
	}
	c.waiting++
	g.mu.Unlock()
	defer context.AfterFunc(ctx, func() {
		g.mu.Lock()
		if c.waiting--; c.waiting == 0 {
			g.forget(key, c)
		}
		g.mu.Unlock()
	})()

	if !shared {
		func() {
			defer func() { // on panic as well: waiters observe a nil result
				g.mu.Lock()
				g.forget(key, c)
				g.mu.Unlock()
				close(c.done)
			}()
			c.res = fn(ectx)
		}()
	}
	select {
	case <-c.done:
	case <-ctx.Done():
	}
	if err := ctx.Err(); err != nil {
		return nil, shared, err
	}
	return c.res, shared, nil
}

// forget unregisters c, if key still names it, and ends its execution's
// context; the caller holds mu.
func (g *flightGroup) forget(key string, c *flightCall) {
	if g.calls[key] == c {
		delete(g.calls, key)
	}
	c.cancel()
}
