package engine

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/obs"
)

// hashes is what c's history holds for keys.
func hashes(c *slru, keys ...string) []uint64 {
	out := []uint64{}
	for _, k := range keys {
		out = append(out, maphash.String(c.seed, k))
	}
	return out
}

// cacheModel is the cache's rule on plain slices: segments most recent first,
// the history oldest first, bytes by key. With old set it is the rule before
// the history: probation takes whatever room protected leaves, and no key is
// remembered.
type cacheModel struct {
	max                    int
	maxBytes               int64
	old                    bool
	prot, prob, hist       []string
	bytes                  map[string]int64
	histMade               bool
	evictions, secondReads int64
}

func newCacheModel(max int, maxBytes int64, old bool) *cacheModel {
	return &cacheModel{max: max, maxBytes: maxBytes, old: old, bytes: map[string]int64{}}
}

func (m *cacheModel) total() (b int64) {
	for _, x := range m.bytes {
		b += x
	}
	return b
}

func (m *cacheModel) get(k string) bool {
	if i := slices.Index(m.prot, k); i >= 0 {
		m.prot = slices.Insert(slices.Delete(m.prot, i, i+1), 0, k)
	} else if i := slices.Index(m.prob, k); i >= 0 {
		m.prob = slices.Delete(m.prob, i, i+1)
		m.prot = slices.Insert(m.prot, 0, k)
		m.demote()
	} else {
		return false
	}
	return true
}

func (m *cacheModel) add(k string, b int64) {
	if m.max == 0 {
		return
	}
	m.remove(k)
	if i := slices.Index(m.hist, k); i >= 0 {
		m.hist = slices.Delete(m.hist, i, i+1)
		m.prot = append(m.prot, k)
		m.secondReads++
	} else {
		m.prob = slices.Insert(m.prob, 0, k)
	}
	m.bytes[k] = b
	m.demote()
	m.evict()
}

func (m *cacheModel) demote() {
	for len(m.prot) > m.max*4/5 {
		k := m.prot[len(m.prot)-1]
		m.prot = m.prot[:len(m.prot)-1]
		m.prob = slices.Insert(m.prob, 0, k)
	}
}

func (m *cacheModel) evict() {
	for n := len(m.prot) + len(m.prob); (m.old && n > m.max) || (!m.old && len(m.prob) > m.max-m.max*4/5) ||
		(m.maxBytes > 0 && m.total() > m.maxBytes && n > 0); n-- {
		var k string
		if len(m.prob) > 0 {
			k = m.prob[len(m.prob)-1]
			if !m.old {
				if m.histMade = true; len(m.hist) == m.max {
					m.hist = m.hist[1:]
				}
				m.hist = append(m.hist, k)
			}
		} else {
			k = m.prot[len(m.prot)-1]
		}
		m.remove(k)
		m.evictions++
	}
}

// remove drops k uncounted.
func (m *cacheModel) remove(k string) {
	m.prot = slices.DeleteFunc(m.prot, func(x string) bool { return x == k })
	m.prob = slices.DeleteFunc(m.prob, func(x string) bool { return x == k })
	delete(m.bytes, k)
}

func (m *cacheModel) grow(k string, d int64) {
	m.bytes[k] += d
	for _, l := range []*[]string{&m.prot, &m.prob} {
		if i := slices.Index(*l, k); i >= 0 {
			*l = slices.Insert(slices.Delete(*l, i, i+1), 0, k)
		}
	}
	m.evict()
}

// Seeded random add/get/grow/remove/advance sequences on the cache and on
// cacheModel agree after every step: segment membership and order, the
// history, the entry and byte totals, and both counters.
func TestSLRUModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		max := []int{1, 2, 3, 5, 8, 12}[r.Intn(6)]
		size := func(k string, n int) int64 { return entryBytes(cacheRes(k, n)) }
		var maxBytes int64
		if r.Intn(2) == 0 {
			maxBytes = int64(1+r.Intn(max)) * size("K0", 40)
		}
		var ev, second obs.Counter
		c := newSLRU(max, maxBytes, &ev, &second)
		m := newCacheModel(max, maxBytes, false)
		cur := &Gen{}
		c.gen.Store(cur)
		for step := 0; step < 400; step++ {
			k := fmt.Sprint("K", r.Intn(2*max+3))
			el, held := c.index[k]
			var what string
			switch op := r.Intn(20); {
			case op < 8:
				what = "get " + k
				_, hit := c.get(cur, k)
				if hit != m.get(k) {
					t.Fatalf("seed %d step %d: %s hit %v, the model disagrees", seed, step, what, hit)
				}
			case op < 15:
				n := []int{4, 40, 400}[r.Intn(3)]
				what = fmt.Sprint("add ", k, " of ", n)
				res := cacheRes(k, n)
				res.g = cur
				c.add(res)
				m.add(k, size(k, n))
			case op < 17 && held:
				what = "grow " + k
				c.grow(el.Value.(*cacheEntry).res, 100)
				m.grow(k, 100)
			case op < 18 && held:
				what = "remove " + k
				c.remove(el.Value.(*cacheEntry).res)
				m.remove(k)
			case op < 19:
				what = "write"
				from, heirs := c.heirs()
				to := &Gen{}
				for i := range heirs {
					if k := heirs[i].old.key; r.Intn(4) > 0 {
						heirs[i].next = &Result{key: k, vec: heirs[i].old.vec, g: to}
						m.bytes[k] = entryBytes(heirs[i].next) // JSON is not carried
					} else {
						m.remove(k)
					}
				}
				c.advance(from, to, heirs)
				cur = to
			default:
				what = "reload"
				cur = &Gen{}
				c.advance(nil, cur, nil)
				m.prot, m.prob, m.hist, m.histMade = nil, nil, nil, false
				clear(m.bytes)
			}
			entries, bytes := c.size()
			switch {
			case !slices.Equal(segment(c.protected), m.prot) || !slices.Equal(segment(c.probation), m.prob):
				t.Fatalf("seed %d step %d (%s): protected %v probation %v, model %v and %v", seed, step, what,
					segment(c.protected), segment(c.probation), m.prot, m.prob)
			case !slices.Equal(c.history, hashes(c, m.hist...)):
				t.Fatalf("seed %d step %d (%s): history is not the model's %v", seed, step, what, m.hist)
			case entries != len(m.prot)+len(m.prob) || bytes != m.total():
				t.Fatalf("seed %d step %d (%s): %d entries of %d bytes, model %d of %d", seed, step, what,
					entries, bytes, len(m.prot)+len(m.prob), m.total())
			case (cap(c.history) != 0) != m.histMade || c.held() != bytes+8*int64(cap(c.history)):
				t.Fatalf("seed %d step %d (%s): history of cap %d, held %d", seed, step, what, cap(c.history), c.held())
			case ev.Value() != m.evictions || second.Value() != m.secondReads:
				t.Fatalf("seed %d step %d (%s): %d evictions and %d second reads, model %d and %d", seed, step, what,
					ev.Value(), second.Value(), m.evictions, m.secondReads)
			}
		}
	}
}

// A flood of keys read once, ten times the cap, keeps at most probation's
// share of them, and never touches the keys read twice before it.
func TestSLRUOneHitFlood(t *testing.T) {
	const max = 144
	c := newSLRU(max, 0, nil, nil)
	var hot []string
	for i := range 40 {
		k := fmt.Sprint("hot", i)
		hot = append(hot, k)
		c.add(cacheRes(k, 4))
		c.get(nil, k)
	}
	for i := range 10 * max {
		c.add(cacheRes(fmt.Sprint("once", i), 4))
	}
	if share := max - max*4/5; c.probation.Len() > share || c.len() != len(hot)+share {
		t.Fatalf("%d entries, %d on probation after the flood; want %d read twice and %d read once", c.len(), c.probation.Len(), len(hot), share)
	}
	for _, k := range hot {
		if el, ok := c.index[k]; !ok || !el.Value.(*cacheEntry).protected {
			t.Fatalf("%s, read twice, is not protected after the flood", k)
		}
	}
	if len(c.history) != max {
		t.Fatalf("the history holds %d keys, want %d", len(c.history), max)
	}
}

// A cyclic scan of k ≤ cap keys hits on every read from its third round on:
// the first round's evictions are remembered, so the second round admits
// them to protected.
func TestSLRUCyclicScan(t *testing.T) {
	for _, max := range []int{1, 2, 5, 144} {
		for _, k := range []int{1, (max + 1) / 2, max} {
			c := newSLRU(max, 0, nil, nil)
			for round := 1; round <= 6; round++ {
				hits := 0
				for i := range k {
					key := fmt.Sprint("K", i)
					if _, ok := c.get(nil, key); ok {
						hits++
					} else {
						c.add(cacheRes(key, 4))
					}
				}
				if round >= 3 && hits != k {
					t.Fatalf("cap %d, %d keys: round %d hit %d reads", max, k, round, hits)
				}
			}
		}
	}
}

// zipfStream is reads of keys 0..n-1 with P(k) ∝ 1/(k+1)^s.
func zipfStream(r *rand.Rand, n, reads int, s float64) []int {
	cum := make([]float64, n)
	sum := 0.0
	for k := range cum {
		sum += math.Pow(float64(k+1), -s)
		cum[k] = sum
	}
	out := make([]int, reads)
	for i := range out {
		out[i] = sort.SearchFloat64s(cum, r.Float64()*sum)
	}
	return out
}

// On skewed reads the history costs nothing: at the default cap, over 2^14
// keys, the cache's hit ratio stays within 0.002 of the rule before it (the
// model with old set) at s = 0.9, 1.1 and 1.5 (the churn benchmark's reads).
func TestSLRUZipfAgainstSegmentedLRU(t *testing.T) {
	const max, n, reads = 144, 1 << 14, 60000
	keys := make([]string, n)
	for k := range keys {
		keys[k] = fmt.Sprint("delta|", k)
	}
	for _, s := range []float64{0.9, 1.1, 1.5} {
		c, old := newSLRU(max, 0, nil, nil), newCacheModel(max, 0, true)
		hits, oldHits := 0, 0
		for _, k := range zipfStream(rand.New(rand.NewSource(1)), n, reads, s) {
			if _, ok := c.get(nil, keys[k]); ok {
				hits++
			} else {
				c.add(cacheRes(keys[k], 1))
			}
			if old.get(keys[k]) {
				oldHits++
			} else {
				old.add(keys[k], 0)
			}
		}
		ratio, oldRatio := float64(hits)/reads, float64(oldHits)/reads
		t.Logf("s = %.1f: hit ratio %.4f, %.4f before the history", s, ratio, oldRatio)
		if math.Abs(ratio-oldRatio) > 0.002 {
			t.Fatalf("s = %.1f: hit ratio %.4f against %.4f", s, ratio, oldRatio)
		}
	}
}

// liveHeap is /gc/heap/live:bytes after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// What the cache says it holds is what the collector finds: with protected
// (two entries serialised), probation and the history full at 2^14 vertices,
// CacheBytes is within 5% of the live heap the entries added. A 4,096-source
// key pushed out of probation leaves its hash in the history and nothing of
// its 24 KB string.
func TestCacheBytesAgainstTheHeap(t *testing.T) {
	const n, max = 1 << 14, 40
	g := New(testInstance(t, n, 4*n), Config{CacheEntries: max})
	r := rand.New(rand.NewSource(1))
	result := func(key string) *Result {
		d := make([]int64, n)
		for i := range d {
			d[i] = r.Int63n(1 << 17)
		}
		res := &Result{Solver: "delta", g: g, key: key}
		res.detach(d)
		return res
	}
	within := func(what string, charged, grown int64) {
		t.Helper()
		if diff := charged - grown; diff*20 > grown || -diff*20 > grown {
			t.Fatalf("%s: CacheBytes %d, live heap grew %d: off by %+.1f%%", what, charged, grown, 100*float64(diff)/float64(grown))
		}
		t.Logf("%s: CacheBytes %d, live heap grew %d", what, charged, grown)
	}
	before := settledHeap()
	for i := range max * 4 / 5 {
		k := fmt.Sprint("delta|", i)
		g.cache.add(result(k))
		if res, _ := g.cache.get(g, k); i < 2 {
			res.DistJSON()
		}
	}
	for i := range 2 * max {
		g.cache.add(result(fmt.Sprint("delta|", 10000+i)))
	}
	if g.cache.probation.Len() != max-max*4/5 || len(g.cache.history) != max {
		t.Fatalf("%d on probation, %d in the history", g.cache.probation.Len(), len(g.cache.history))
	}
	full, charged := settledHeap(), g.CacheBytes()
	within("full", charged, full-before)

	srcs := make([]int32, 4096)
	for i := range srcs {
		srcs[i] = int32(10000 + i)
	}
	long := keyOf(t, g, srcs...)
	g.cache.add(result(long))
	for i := range max - max*4/5 {
		g.cache.add(result(fmt.Sprint("delta|", 20000+i)))
	}
	if g.cache.peek(long) || g.cache.history[max-1] != maphash.String(g.cache.seed, long) {
		t.Fatal("the long key is not in the history")
	}
	after, now := settledHeap(), g.CacheBytes()
	within("long key evicted", now, after-before)
	if extra := (after - full) - (now - charged); extra > int64(len(long))/4 {
		t.Fatalf("the live heap grew %d bytes past the charge for a %d-byte key evicted", extra, len(long))
	}
	runtime.KeepAlive(g)
}

// settledHeap is liveHeap once two readings in a row agree: the first after a
// write finds its garbage, and a goroutine an earlier test left may still
// allocate or free.
func settledHeap() int64 {
	h := liveHeap()
	for range 10 {
		next := liveHeap()
		if next == h {
			break
		}
		h = next
	}
	return h
}

// What a pending entry is charged for the changes it owes is what its owed
// list holds: changeBytes a change is within 5% of the live heap the lists
// add, capacity included — after one write of 4, 100 or 200 new slots, and
// after a second write that changes half of 100 slots again.
func TestOwedListsAgainstTheHeap(t *testing.T) {
	// Enough entries that 4-slot lists hold 300 KB: the live heap drifts by a
	// few KB while a test runs beside what earlier ones left.
	const n, entries = 1 << 10, 4096
	g1 := testInstance(t, n, 4*n).G
	r := rand.New(rand.NewSource(1))
	// inserts is k new slots of weight 1 between distinct random pairs.
	inserts := func(k int) *mutate.Batch {
		b, seen := &mutate.Batch{}, map[[2]int32]bool{}
		for len(b.Ops) < k {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u == v || seen[[2]int32{min(u, v), max(u, v)}] {
				continue
			}
			seen[[2]int32{min(u, v), max(u, v)}] = true
			b.Ops = append(b.Ops, mutate.Op{Op: mutate.OpInsert, U: u, V: v, W: 1})
		}
		return b
	}
	write := func(e *Gen, g *graph.Graph, b *mutate.Batch) (*Gen, *graph.Graph) {
		next, _, err := mutate.Apply(g, b)
		if err != nil {
			t.Fatal(err)
		}
		child, _, _, _ := inherit(e, next, mutate.Changes(g, next, b))
		return child, next
	}
	// within fills a cache on g1 with answers read twice (their distances
	// random: only what they owe is measured), applies the writes to it, and
	// checks what the last generation charges for its owed lists against the
	// heap they hold, by dropping them.
	within := func(what string, writes ...*mutate.Batch) {
		t.Helper()
		e, g := engineOn(g1, Config{CacheEntries: entries}), g1
		for i := range entries {
			d := make([]int64, n)
			for v := range d {
				d[v] = r.Int63n(n)
			}
			res := &Result{Solver: "delta", g: e, key: fmt.Sprint("delta|", i)}
			res.detach(d)
			e.cache.add(res)
			e.cache.get(e, res.key)
		}
		for _, b := range writes {
			e, g = write(e, g, b)
		}
		var owed []*pending
		var charged int64
		for el := e.cache.protected.Front(); el != nil; el = el.Next() {
			if res := el.Value.(*cacheEntry).res; res.pending != nil {
				owed = append(owed, res.pending)
				charged += res.heldBytes() - res.vectorBytes()
			}
		}
		if len(owed) < entries/2 {
			t.Fatalf("%s: %d of %d entries owe changes", what, len(owed), entries)
		}
		with := settledHeap()
		for _, p := range owed {
			p.changes = nil
		}
		grown := with - settledHeap()
		runtime.KeepAlive(owed)
		runtime.KeepAlive(e)
		if diff := charged - grown; diff*20 > grown || -diff*20 > grown {
			t.Fatalf("%s: %d lists charged %d bytes, hold %d: off by %+.1f%%", what, len(owed), charged, grown, 100*float64(diff)/float64(grown))
		}
		t.Logf("%s: %d lists charged %d bytes, hold %d", what, len(owed), charged, grown)
	}
	for _, k := range []int{4, 100, 200} {
		within(fmt.Sprint(k, " slots"), inserts(k))
	}
	b := inserts(100)
	again := &mutate.Batch{}
	for _, op := range b.Ops[:50] {
		again.Ops = append(again.Ops, mutate.Op{Op: mutate.OpSetWeight, U: op.U, V: op.V, W: 2})
	}
	within("100 slots, then 50 of them", b, again)
}
