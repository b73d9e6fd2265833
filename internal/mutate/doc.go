// Package mutate is the streaming graph-mutation subsystem: it parses and
// validates JSON batches of edge mutations (weight changes, inserts,
// deletes), applies them copy-on-write through graph.Overlay, and repairs the
// Component Hierarchy incrementally through ch.Repair or ch.RepairAdditive,
// whatever the batch's width. The catalog turns an accepted batch into a new
// serving generation whose lineage (parent generation, delta size) is
// recorded, and the delta encoder gives batches a canonical byte form for
// replay logs and repro files. ReferenceApply is the deliberately naive
// edge-multiset replay the stress oracle diffs repaired generations against.
package mutate
