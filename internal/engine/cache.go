package engine

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// slru is the bounded result cache keyed by the canonical (solver,
// source-set) string: a segmented LRU. An entry a query solved enters the
// probationary segment; a hit moves it to the protected segment, which holds
// at most protectedShare of the entry cap and demotes its least recent entry
// back to probation's recent end when it overflows. Eviction takes
// probation's least recent entry first and protected's only once probation is
// empty, so a source read twice outlives any number of sources read once.
//
// Its entries answer for one generation of the graph, gen: only a query on
// gen reads or fills the cache. A write advances it in place (Gen.Inherit,
// Gen.Swap): each entry takes its Result on the next generation in its own
// slot, so segment membership and recency cross with it.
//
// It enforces two budgets: a maximum entry count and a maximum byte total
// (each entry charged its distance vector, key, lazily-materialized JSON form,
// and a fixed overhead). Either budget at zero disables that bound;
// maxEntries == 0 disables the cache entirely.
type slru struct {
	mu         sync.Mutex
	gen        atomic.Pointer[Gen] // written under mu
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
	res       *Result // its key is the entry's
	bytes     int64
	protected bool
	// read: a query was answered with this entry, or solved it, on the
	// generation the cache serves. Swap carries every entry and counts those
	// without.
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
func entryBytes(res *Result) int64 {
	return res.heldBytes() + int64(len(res.key)) + 64
}

func (c *slru) segment(ent *cacheEntry) *list.List {
	if ent.protected {
		return c.protected
	}
	return c.probation
}

// get returns the result cached for key on g, marks it read and moves it to
// the front of the protected segment. On any generation but the one the cache
// serves it is a miss.
func (c *slru) get(g *Gen, key string) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok || c.gen.Load() != g {
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
// evicts until both budgets hold; a result solved on any generation but the
// one the cache serves is not cached. An entry larger than the whole byte
// budget is evicted immediately, leaving the cache empty rather than over
// budget.
func (c *slru) add(res *Result) {
	if c.maxEntries == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen.Load() != res.g {
		return
	}
	if el, ok := c.index[res.key]; ok {
		// A dedup race can complete two solves for one key (leader finished,
		// cache evicted, second solve started). Keep the newer result.
		c.removeLocked(el, false)
	}
	ent := &cacheEntry{res: res, bytes: entryBytes(res), read: true}
	c.index[res.key] = c.probation.PushFront(ent)
	c.bytes += ent.bytes
	c.demoteLocked()
	c.evictLocked()
}

// heir is one entry as Gen.Inherit lists it — its slot and the Result it
// held — and that Result's successor on the next generation (nil: dropped).
type heir struct {
	ent       *cacheEntry
	old, next *Result
}

// heirs lists every entry, and the generation they answer for.
func (c *slru) heirs() (*Gen, []heir) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]heir, 0, len(c.index))
	for _, el := range c.index {
		ent := el.Value.(*cacheEntry)
		out = append(out, heir{ent: ent, old: ent.res})
	}
	return c.gen.Load(), out
}

// advance makes to the generation the cache serves. If it served from, each
// entry that still holds the Result heirs listed takes its successor in
// place, unread; every other entry goes, uncounted: one Inherit dropped, one
// cached after it listed them, or, with no heirs, all. It returns how many
// entries crossed exact and pending, and how many of them no query had read.
func (c *slru) advance(from, to *Gen, heirs []heir) (exact, pending, unread int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, h := range heirs {
		if c.gen.Load() == from && h.next != nil && h.ent.res == h.old {
			h.ent.res = h.next
		}
	}
	var after *list.Element
	for _, l := range []*list.List{c.probation, c.protected} {
		for el := l.Front(); el != nil; el = after {
			after = el.Next()
			ent := el.Value.(*cacheEntry)
			if ent.res.g != to {
				c.removeLocked(el, false)
				continue
			}
			if ent.res.pending == nil {
				exact++
			} else {
				pending++
			}
			if !ent.read {
				unread++
			}
			b := entryBytes(ent.res)
			c.bytes += b - ent.bytes
			ent.bytes, ent.read = b, false
		}
	}
	c.gen.Store(to)
	c.evictLocked()
	return exact, pending, unread
}

// remove drops res if it is still the entry for its key (a resolve that
// outgrew its budget: the query solves instead).
func (c *slru) remove(res *Result) {
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
	if delta == 0 {
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
		c.index[ent.res.key] = c.probation.PushFront(ent)
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
	delete(c.index, ent.res.key)
	c.bytes -= ent.bytes
	if counted && c.evictions != nil {
		c.evictions.Inc()
	}
}

// size returns the current entry count and byte total.
func (c *slru) size() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.len(), c.bytes
}
