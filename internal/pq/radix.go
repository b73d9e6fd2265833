package pq

import (
	"math/bits"

	"repro/internal/graph"
)

// Item is a queued vertex and its key.
type Item struct {
	V int32
	D int64
}

// Radix is a monotone integer priority queue, the radix heap of Ahuja,
// Mehlhorn, Orlin & Tarjan (1990): an item sits in bucket bits.Len64(D ^
// last), where last is the least key when bucket 0 was last refilled, so a
// push is O(1) and a refill redistributes only the least non-empty bucket,
// each item moving to a lower one. Every key pushed must be ≥ the last key
// Top returned (≥ 0 before the first), as a Dijkstra relaxation's is of the
// key it popped. The queue never decreases a key: a consumer pushes the vertex
// again and skips the copies it has outgrown when they pop. The zero value is
// an empty queue.
type Radix struct {
	last    int64
	buckets [65][]Item
}

// Push queues it.
func (q *Radix) Push(it Item) {
	b := bits.Len64(uint64(it.D ^ q.last))
	q.buckets[b] = append(q.buckets[b], it)
}

// Top is the least key queued, graph.Inf if none; it leaves that key's items
// in bucket 0.
func (q *Radix) Top() int64 {
	if len(q.buckets[0]) == 0 {
		i := 1
		for i < len(q.buckets) && len(q.buckets[i]) == 0 {
			i++
		}
		if i == len(q.buckets) {
			return graph.Inf
		}
		b := q.buckets[i]
		q.last = b[0].D
		for _, it := range b[1:] {
			q.last = min(q.last, it.D)
		}
		for _, it := range b {
			j := bits.Len64(uint64(it.D ^ q.last))
			q.buckets[j] = append(q.buckets[j], it)
		}
		q.buckets[i] = b[:0]
	}
	return q.last
}

// Pop removes an item with the least key; Top must have found one since the
// last Pop.
func (q *Radix) Pop() Item {
	b := q.buckets[0]
	it := b[len(b)-1]
	q.buckets[0] = b[:len(b)-1]
	return it
}

// Bytes is what the buckets' backing arrays hold, counted at their capacity.
func (q *Radix) Bytes() int64 {
	var b int64
	for _, bk := range q.buckets {
		b += 16 * int64(cap(bk))
	}
	return b
}

// Reset empties the queue, keeping its buckets' capacity for the next run.
func (q *Radix) Reset() {
	for i := range q.buckets {
		q.buckets[i] = q.buckets[i][:0]
	}
	q.last = 0
}
