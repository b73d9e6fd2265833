package engine

import (
	"container/list"
	"sync"

	"repro/internal/obs"
)

// slru is the bounded result cache keyed by the canonical (solver,
// source-set) string: a segmented LRU. An entry a query solved enters the
// probationary segment; a hit moves it to the protected segment, which holds
// at most protectedShare of the entry cap and demotes its least recent entry
// back to probation's recent end when it overflows. Eviction takes
// probation's least recent entry first and protected's only once probation is
// empty, so a source read twice outlives any number of sources read once.
// Segment membership crosses a mutation with the entry (Engine.Inherit).
//
// It enforces two budgets: a maximum entry count and a maximum byte total
// (each entry charged its distance vector, key, lazily-materialized JSON form,
// and a fixed overhead). Either budget at zero disables that bound;
// maxEntries == 0 disables the cache entirely.
type slru struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	// probation and protected: front = most recently used.
	probation, protected *list.List
	index                map[string]*list.Element // value: *cacheEntry
	evictions            *obs.Counter
}

// protectedShare is the protected segment's cap, in fifths of the entry cap.
const protectedShare = 4

type cacheEntry struct {
	key       string
	res       *Result
	bytes     int64
	protected bool
	// read: a query was answered with this entry, or solved it, while this
	// cache served. Inherit carries every entry and counts those without.
	read bool
}

func newSLRU(maxEntries int, maxBytes int64, evictions *obs.Counter) *slru {
	return &slru{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		probation:  list.New(),
		protected:  list.New(),
		index:      make(map[string]*list.Element),
		evictions:  evictions,
	}
}

// entryBytes is the byte charge for a result at insertion time (before any
// JSON materialization): the distance vector at its width, the changes a
// pending inherited entry owes, the key, and bookkeeping. A pending entry is
// charged the vector it shares with an earlier generation's cache: resolving
// it swaps that and its list for a copy of the vector.
func entryBytes(key string, res *Result) int64 {
	return res.heldBytes() + int64(len(key)) + 64
}

func (c *slru) segment(ent *cacheEntry) *list.List {
	if ent.protected {
		return c.protected
	}
	return c.probation
}

// get returns the cached result, marks it read and moves it to the front of
// the protected segment.
func (c *slru) get(key string) (*Result, bool) {
	if c.maxEntries == 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	ent.read = true
	if ent.protected {
		c.protected.MoveToFront(el)
	} else {
		c.probation.Remove(el)
		ent.protected = true
		c.index[key] = c.protected.PushFront(ent)
		c.demoteLocked()
	}
	return ent.res, true
}

// add inserts (or refreshes) a result a query solved, on probation, and
// evicts until both budgets hold. An entry larger than the whole byte budget
// is evicted immediately, leaving the cache empty rather than over budget.
func (c *slru) add(key string, res *Result) { c.insert(key, res, false, true) }

// insert is add for any entry: Engine.Inherit carries one over unread, in
// the segment it held.
func (c *slru) insert(key string, res *Result, protected, read bool) {
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
	ent := &cacheEntry{key: key, res: res, bytes: entryBytes(key, res), protected: protected, read: read}
	c.index[key] = c.segment(ent).PushFront(ent)
	c.bytes += ent.bytes
	c.demoteLocked()
	c.evictLocked()
}

// carried is one entry as Engine.Inherit finds it.
type carried struct {
	res             *Result
	protected, read bool
}

// entries returns every entry, each segment least recently used first, so
// that inserting them in order rebuilds both recency orders.
func (c *slru) entries() []carried {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]carried, 0, len(c.index))
	for _, l := range []*list.List{c.probation, c.protected} {
		for el := l.Back(); el != nil; el = el.Prev() {
			ent := el.Value.(*cacheEntry)
			out = append(out, carried{ent.res, ent.protected, ent.read})
		}
	}
	return out
}

// remove drops res if it is still the entry for its key (a resolve that
// outgrew its budget: the query solves instead).
func (c *slru) remove(res *Result) {
	if c.maxEntries == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[res.key]; ok && el.Value.(*cacheEntry).res == res {
		c.removeLocked(el, false)
	}
}

// grow charges extra bytes to an existing entry (JSON materialization) and
// re-evicts. The grown entry itself is only evicted if it exceeds the whole
// budget on its own. No-op for results no longer (or never) cached.
func (c *slru) grow(res *Result, delta int64) {
	if c.maxEntries == 0 || delta == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[res.key]
	if !ok || el.Value.(*cacheEntry).res != res {
		return
	}
	ent := el.Value.(*cacheEntry)
	ent.bytes += delta
	c.bytes += delta
	c.segment(ent).MoveToFront(el)
	c.evictLocked()
}

// demoteLocked moves protected's least recent entries to probation's front
// until protected is within its share.
func (c *slru) demoteLocked() {
	for c.protected.Len() > c.maxEntries*protectedShare/5 {
		el := c.protected.Back()
		ent := el.Value.(*cacheEntry)
		c.protected.Remove(el)
		ent.protected = false
		c.index[ent.key] = c.probation.PushFront(ent)
	}
}

// evictLocked drops entries, probation's least recent first, until both
// budgets hold.
func (c *slru) evictLocked() {
	for n := c.len(); n > c.maxEntries || (c.maxBytes > 0 && c.bytes > c.maxBytes && n > 0); n-- {
		victim := c.probation.Back()
		if victim == nil {
			victim = c.protected.Back()
		}
		c.removeLocked(victim, true)
	}
}

func (c *slru) len() int { return c.probation.Len() + c.protected.Len() }

func (c *slru) removeLocked(el *list.Element, counted bool) {
	ent := el.Value.(*cacheEntry)
	c.segment(ent).Remove(el)
	delete(c.index, ent.key)
	c.bytes -= ent.bytes
	if counted && c.evictions != nil {
		c.evictions.Inc()
	}
}

// size returns the current entry count and byte total.
func (c *slru) size() (entries int, bytes int64) {
	if c.maxEntries == 0 {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.len(), c.bytes
}
