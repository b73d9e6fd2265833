package engine

import (
	"container/list"
	"hash/maphash"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// slru is the bounded result cache keyed by the canonical (solver,
// source-set) string: a segmented LRU with 2Q's admission rule (Johnson and
// Shasha, VLDB 1994). An entry a query solved enters the probationary
// segment, which holds at most a fifth of the entry cap; a hit moves it to the
// protected segment, which holds the rest and demotes its least recent entry
// back to probation's recent end when it overflows. Eviction takes probation's
// least recent entry first and protected's only once probation is empty, so a
// source read twice outlives any number read once. The hash of each key
// evicted from probation goes into a FIFO history of at most maxEntries keys,
// and a result solved for a key it holds (a second read) enters protected at
// its least recent end.
//
// Its entries answer for one generation of the graph, gen: only a query on
// gen reads or fills the cache. A write advances it in place (Gen.Inherit,
// Gen.Swap): each entry takes its Result on the next generation in its own
// slot, so segment membership and recency cross with it, as does the history.
//
// It enforces two budgets: a maximum entry count and a maximum byte total
// (each entry charged its distance vector, key, lazily-materialized JSON form,
// and a fixed overhead). Either budget at zero disables that bound;
// maxEntries == 0 disables the cache entirely. The history, 8 bytes a key,
// is held but not charged against the byte budget.
type slru struct {
	mu         sync.Mutex
	gen        atomic.Pointer[Gen] // written under mu
	maxEntries int
	maxBytes   int64
	bytes      int64
	// probation and protected: front = most recently used.
	probation, protected   *list.List
	index                  map[string]*list.Element // value: *cacheEntry
	history                []uint64                 // oldest first; made at cap maxEntries
	seed                   maphash.Seed
	evictions, secondReads *obs.Counter
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

// newSLRU makes a cache that counts evictions and second reads in the
// counters given (nil: not counted).
func newSLRU(maxEntries int, maxBytes int64, evictions, secondReads *obs.Counter) *slru {
	return &slru{
		maxEntries:  maxEntries,
		maxBytes:    maxBytes,
		probation:   list.New(),
		protected:   list.New(),
		index:       make(map[string]*list.Element),
		seed:        maphash.MakeSeed(),
		evictions:   evictions,
		secondReads: secondReads,
	}
}

func (c *slru) protectedCap() int { return c.maxEntries * protectedShare / 5 }

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

// add inserts (or refreshes) a result a query solved — on probation, or at
// protected's least recent end if the history holds its key — and evicts
// until both budgets hold; a result solved on any generation but the
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
	if i := slices.Index(c.history, maphash.String(c.seed, res.key)); i >= 0 {
		c.history = slices.Delete(c.history, i, i+1)
		ent.protected = true
		c.index[res.key] = c.protected.PushBack(ent)
		if c.secondReads != nil {
			c.secondReads.Inc()
		}
	} else {
		c.index[res.key] = c.probation.PushFront(ent)
	}
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
// place, unread, and the history stays; every other entry goes, uncounted:
// one Inherit dropped, one cached after it listed them, or, with no heirs,
// all (and the history). It returns how many entries crossed exact and
// pending, and how many of them no query had read.
func (c *slru) advance(from, to *Gen, heirs []heir) (exact, pending, unread int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if from == nil || c.gen.Load() != from {
		c.history = nil
	}
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
	for c.protected.Len() > c.protectedCap() {
		el := c.protected.Back()
		ent := el.Value.(*cacheEntry)
		c.protected.Remove(el)
		ent.protected = false
		c.index[ent.res.key] = c.probation.PushFront(ent)
	}
}

// evictLocked drops entries, probation's least recent first, until probation
// is within its share (so the entry cap holds) and the byte budget holds. The
// hash of each key it drops from probation joins the history, pushing out
// the oldest there once it is full.
func (c *slru) evictLocked() {
	for n := c.len(); c.probation.Len() > c.maxEntries-c.protectedCap() || (c.maxBytes > 0 && c.bytes > c.maxBytes && n > 0); n-- {
		victim := c.probation.Back()
		if victim == nil {
			c.removeLocked(c.protected.Back(), true)
			continue
		}
		if c.history == nil {
			c.history = make([]uint64, 0, c.maxEntries)
		} else if len(c.history) == c.maxEntries {
			c.history = c.history[:copy(c.history, c.history[1:])]
		}
		c.history = append(c.history, maphash.String(c.seed, victim.Value.(*cacheEntry).res.key))
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

// size returns the current entry count and the byte total charged against
// the budget.
func (c *slru) size() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.len(), c.bytes
}

// held is what the cache holds: its entries' charge and the history's array.
func (c *slru) held() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes + 8*int64(cap(c.history))
}
