package engine

import (
	"container/list"
	"sync"

	"repro/internal/obs"
)

// lru is a bounded most-recently-used result cache keyed by the canonical
// (solver, source-set) string. It enforces two budgets: a maximum entry
// count and a maximum byte total (each entry charged its distance vector,
// key, lazily-materialized JSON form, and a fixed overhead). Either budget
// at zero disables that bound; maxEntries == 0 disables the cache entirely.
type lru struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	ll         *list.List               // front = most recently used
	index      map[string]*list.Element // value: *cacheEntry
	evictions  *obs.Counter
}

type cacheEntry struct {
	key   string
	res   *Result
	bytes int64
	// asked: a query was answered with this entry, or solved it, while this
	// cache served. Only such entries cross a mutation (Engine.Inherit), so one
	// inherited and never read goes no further.
	asked bool
}

func newLRU(maxEntries int, maxBytes int64, evictions *obs.Counter) *lru {
	return &lru{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		index:      make(map[string]*list.Element),
		evictions:  evictions,
	}
}

// entryBytes is the byte charge for a result at insertion time (before any
// JSON materialization): the distance vector at its width, the key, and
// bookkeeping. A stale inherited entry is charged the vector it shares with the
// parent generation's cache: resolving it swaps that for a copy of the same size.
func entryBytes(key string, res *Result) int64 {
	return res.vectorBytes() + int64(len(key)) + 64
}

// get returns the cached result, marks it most recently used and asked for.
func (c *lru) get(key string) (*Result, bool) {
	if c.maxEntries == 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	ent.asked = true
	return ent.res, true
}

// add inserts (or refreshes) a result a query solved and evicts from the LRU
// end until both budgets hold. An entry larger than the whole byte budget is
// evicted immediately, leaving the cache empty rather than over budget.
func (c *lru) add(key string, res *Result) { c.insert(key, res, true) }

// insert is add for any entry: asked is false for one Engine.Inherit carries over.
func (c *lru) insert(key string, res *Result, asked bool) {
	if c.maxEntries == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[key]; ok {
		// A dedup race can complete two solves for one key (leader finished,
		// cache evicted, second solve started). Keep the newer result.
		c.removeLocked(el, false)
	}
	ent := &cacheEntry{key: key, res: res, bytes: entryBytes(key, res), asked: asked}
	c.index[key] = c.ll.PushFront(ent)
	c.bytes += ent.bytes
	c.evictLocked()
}

// askedFor returns the results that were asked for, least recently used first.
func (c *lru) askedFor() []*Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*Result
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		if ent := el.Value.(*cacheEntry); ent.asked {
			out = append(out, ent.res)
		}
	}
	return out
}

// grow charges extra bytes to an existing entry (JSON materialization) and
// re-evicts. The grown entry itself is only evicted if it exceeds the whole
// budget on its own. No-op for results no longer (or never) cached.
func (c *lru) grow(res *Result, delta int64) {
	if c.maxEntries == 0 || delta == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[res.key]
	if !ok || el.Value.(*cacheEntry).res != res {
		return
	}
	el.Value.(*cacheEntry).bytes += delta
	c.bytes += delta
	c.ll.MoveToFront(el)
	c.evictLocked()
}

// evictLocked drops least-recently-used entries until both budgets hold.
func (c *lru) evictLocked() {
	for c.ll.Len() > c.maxEntries || (c.maxBytes > 0 && c.bytes > c.maxBytes && c.ll.Len() > 0) {
		c.removeLocked(c.ll.Back(), true)
	}
}

func (c *lru) removeLocked(el *list.Element, counted bool) {
	ent := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.index, ent.key)
	c.bytes -= ent.bytes
	if counted && c.evictions != nil {
		c.evictions.Inc()
	}
}

// size returns the current entry count and byte total.
func (c *lru) size() (entries int, bytes int64) {
	if c.maxEntries == 0 {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.bytes
}
