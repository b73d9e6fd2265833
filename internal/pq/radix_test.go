package pq

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
)

// model is the reference a Radix is checked against: the queued items,
// unsorted, and the floor every push respects (the last key Top returned).
type model struct {
	items []Item
	floor int64
}

// push queues vertex v at floor+delta, capped at graph.Inf-1, on both.
func (m *model) push(q *Radix, v int32, delta uint64) {
	d := graph.Inf - 1
	if delta < uint64(d-m.floor) {
		d = m.floor + int64(delta)
	}
	q.Push(Item{V: v, D: d})
	m.items = append(m.items, Item{V: v, D: d})
}

// pop checks q's Top against the least queued key and, if there is one, that
// q's Pop hands out one of the items queued at it.
func (m *model) pop(q *Radix) error {
	want := graph.Inf
	for _, it := range m.items {
		want = min(want, it.D)
	}
	if got := q.Top(); got != want {
		return fmt.Errorf("Top %d, want %d", got, want)
	}
	if want == graph.Inf {
		return nil
	}
	m.floor = want
	it := q.Pop()
	i := slices.Index(m.items, it)
	if it.D != want || i < 0 {
		return fmt.Errorf("Pop %+v, want one of the items queued at %d", it, want)
	}
	m.items = slices.Delete(m.items, i, i+1)
	return nil
}

func (m *model) reset(q *Radix) {
	q.Reset()
	m.items, m.floor = m.items[:0], 0
}

// drain pops until both are empty.
func (m *model) drain(q *Radix) error {
	for len(m.items) > 0 {
		if err := m.pop(q); err != nil {
			return err
		}
	}
	return m.pop(q) // Top on the empty queue
}

func TestBasicOrdering(t *testing.T) {
	var q Radix
	q.Push(Item{V: 3, D: 30})
	q.Push(Item{V: 1, D: 10})
	q.Push(Item{V: 2, D: 20})
	for want := int64(10); want <= 30; want += 10 {
		if top := q.Top(); top != want {
			t.Fatalf("Top %d, want %d", top, want)
		}
		if it := q.Pop(); it.D != want || int64(it.V)*10 != want {
			t.Fatalf("popped %+v, want key %d", it, want)
		}
	}
	if top := q.Top(); top != graph.Inf {
		t.Fatalf("Top of the drained queue %d, want graph.Inf", top)
	}
}

// A Radix has no decrease-key: the consumer pushes the vertex again, the new
// copy pops before anything it now beats, and the old one pops at its old key
// for the consumer to skip.
func TestDecreaseKey(t *testing.T) {
	var q Radix
	q.Push(Item{V: 0, D: 50})
	q.Push(Item{V: 1, D: 40})
	q.Push(Item{V: 0, D: 10})
	for _, want := range []Item{{0, 10}, {1, 40}, {0, 50}} {
		q.Top()
		if it := q.Pop(); it != want {
			t.Fatalf("popped %+v, want %+v", it, want)
		}
	}
}

// Pushing a queued vertex again at a lower key is its decrease: the lower copy
// pops first; the copies left behind keep their keys.
func TestDuplicateInsertIsDecrease(t *testing.T) {
	var q Radix
	q.Push(Item{V: 2, D: 30})
	q.Push(Item{V: 2, D: 30})
	q.Push(Item{V: 2, D: 25})
	if top, it := q.Top(), q.Pop(); top != 25 || it != (Item{V: 2, D: 25}) {
		t.Fatalf("Top %d, popped %+v, want (2,25)", top, it)
	}
	for i := 0; i < 2; i++ {
		if top, it := q.Top(), q.Pop(); top != 30 || it != (Item{V: 2, D: 30}) {
			t.Fatalf("copy %d: Top %d, popped %+v", i, top, it)
		}
	}
}

// Equal keys, the same vertex among them, all pop at that key.
func TestTiesAllowed(t *testing.T) {
	var q Radix
	q.Push(Item{V: 9, D: 7})
	q.Top()
	q.Pop() // last is now 7: the ties below land in bucket 0 directly
	for v := int32(0); v < 4; v++ {
		q.Push(Item{V: v, D: 7})
	}
	q.Push(Item{V: 2, D: 7})
	seen := map[int32]int{}
	for i := 0; i < 5; i++ {
		if top := q.Top(); top != 7 {
			t.Fatalf("pop %d: Top %d, want 7", i, top)
		}
		seen[q.Pop().V]++
	}
	if len(seen) != 4 || seen[2] != 2 || q.Top() != graph.Inf {
		t.Fatalf("popped %v, then Top %d", seen, q.Top())
	}
}

// Keys that differ only in high bits, up to graph.Inf-1, land in the top
// buckets and still pop in order.
func TestHighBitKeys(t *testing.T) {
	var q Radix
	keys := []int64{graph.Inf - 1, 1 << 60, 1<<60 + 1, 1<<60 | 1<<59, 1 << 40, 1<<40 + 1<<39, 0, graph.Inf - 2, 1 << 60}
	for i, k := range keys {
		q.Push(Item{V: int32(i), D: k})
	}
	want := slices.Clone(keys)
	slices.Sort(want)
	for i, k := range want {
		if top := q.Top(); top != k {
			t.Fatalf("pop %d: Top %d, want %d", i, top, k)
		}
		if it := q.Pop(); it.D != k || keys[it.V] != k {
			t.Fatalf("pop %d: %+v, want key %d", i, it, k)
		}
	}
	if top := q.Top(); top != graph.Inf {
		t.Fatalf("Top of the drained queue %d", top)
	}
}

// Top is graph.Inf on the zero value and after Reset, and a reset queue takes
// keys below the ones it last handed out. Against a stale last of 12, 9 would
// sit in a lower bucket than 2 (bits.Len64(9^12) = 3, bits.Len64(2^12) = 4)
// and pop first.
func TestTopEmptyAndReset(t *testing.T) {
	var q Radix
	if top := q.Top(); top != graph.Inf {
		t.Fatalf("zero value: Top %d", top)
	}
	q.Push(Item{V: 1, D: 12})
	q.Push(Item{V: 2, D: 5000})
	if top := q.Top(); top != 12 {
		t.Fatalf("Top %d, want 12", top)
	}
	q.Pop()
	q.Reset()
	if top := q.Top(); top != graph.Inf {
		t.Fatalf("after Reset: Top %d", top)
	}
	q.Push(Item{V: 3, D: 9})
	q.Push(Item{V: 4, D: 2})
	for _, want := range []Item{{4, 2}, {3, 9}} {
		if top, it := q.Top(), q.Pop(); top != want.D || it != want {
			t.Fatalf("reused: Top %d, popped %+v, want %+v", top, it, want)
		}
	}
	if top := q.Top(); top != graph.Inf {
		t.Fatalf("reused and drained: Top %d", top)
	}
}

// Seeded model test: random monotone interleavings of pushes and pops, small
// steps, equal keys and high-bit jumps, with a Reset now and then, checked
// against the sorted reference after every pop.
func TestMonotoneStressAgree(t *testing.T) {
	r := rng.New(99)
	var q Radix
	var m model
	for step := 0; step < 100000; step++ {
		switch x := r.Intn(1000); {
		case x == 0:
			m.reset(&q)
		case x < 500:
			if err := m.pop(&q); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case x < 600:
			m.push(&q, int32(step), 0)
		case x < 650:
			m.push(&q, int32(step), 1<<r.Intn(62)+uint64(r.Intn(4)))
		default:
			m.push(&q, int32(step), uint64(r.Intn(64)))
		}
	}
	if err := m.drain(&q); err != nil {
		t.Fatal(err)
	}
}

// Property: whatever is pushed into a fresh queue pops sorted.
func TestQuickSortedPops(t *testing.T) {
	f := func(keys []uint32, shift uint8) bool {
		var q Radix
		var m model
		for i, k := range keys {
			m.push(&q, int32(i), uint64(k)<<(shift%30))
		}
		return m.drain(&q) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// FuzzRadix runs a Radix and the reference through a byte-coded op sequence:
// 0xff resets, an even byte pops, an odd byte b pushes at the floor plus
// 2^((b>>1) mod 62) - 1 (0 for b = 1), so equal keys, unit steps and jumps in
// any bit up to graph.Inf-1 all occur.
func FuzzRadix(f *testing.F) {
	f.Add([]byte{1, 1, 3, 0, 0, 0})
	f.Add([]byte{123, 125, 1, 0, 255, 5, 0, 0})
	f.Add([]byte{121, 123, 119, 0, 3, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q Radix
		var m model
		for i, b := range ops {
			var err error
			switch {
			case b == 0xff:
				m.reset(&q)
			case b&1 == 0:
				err = m.pop(&q)
			default:
				m.push(&q, int32(i), 1<<((b>>1)%62)-1)
			}
			if err != nil {
				t.Fatalf("op %d (%#x): %v", i, b, err)
			}
		}
		if err := m.drain(&q); err != nil {
			t.Fatal(err)
		}
	})
}
