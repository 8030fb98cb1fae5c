// Package sketch implements the streaming frequency-estimation substrates
// that hierarchical-heavy-hitter detectors are built from: an exact map
// counter (Exact, the ground truth) and Space-Saving (SpaceSaving,
// counter-based, key-tracking).
//
// Both count *weighted* updates — a packet contributes its byte size, not
// 1 — because the paper defines heavy hitters by byte volume. Keys are
// opaque uint64 values: a hierarchy's packed prefix keys (see
// addr.Hierarchy.Key), which the ingest path packs once per packet into a
// trace.KeyBatch.
//
// Space-Saving summaries merge K ways in one step (SpaceSaving.MergeAll,
// the one merge kernel): the union of a round's entries, each key's bounds
// summed over the round, is put in the canonical order — count descending,
// key ascending among equal counts — and truncated once, so the result
// does not depend on the order of the sources and the error bound is the
// sum of theirs; its tables come from a pool, so once warm it allocates
// nothing. A summary knows while its entries still stand in count order
// (SpaceSaving.Ordered), which lets a threshold query stop early.
package sketch

import "math"

// KV is a key with its estimated weight, as returned by key-tracking
// sketches.
type KV struct {
	Key   uint64
	Count int64 // estimated weight (upper bound for Space-Saving)
	ErrUB int64 // upper bound on overestimation (0 for exact)
}

// Exact is a map-backed exact counter. It serves as ground truth in tests
// and as the aggregate of the exact windowing cursor (oracle.Cursor). The
// zero value is ready to use.
type Exact struct {
	m     map[uint64]int64
	total int64
}

// NewExact returns an empty exact counter with a size hint.
func NewExact(sizeHint int) *Exact {
	return &Exact{m: make(map[uint64]int64, sizeHint)}
}

// Update adds weight w ≥ 0 for key. Counts saturate at MaxInt64: none
// exceeds the total, so a count can wrap only where the total does.
func (e *Exact) Update(key uint64, w int64) {
	if e.m == nil {
		e.m = make(map[uint64]int64)
	}
	e.m[key] += w
	if e.total += w; e.total < 0 {
		e.m[key], e.total = AddSat(e.m[key]-w, w), math.MaxInt64
	}
}

// Remove subtracts weight w for key, deleting the entry when it reaches
// zero. The exact windowing cursor uses this to drop packets that leave its
// span. It panics if the removal would drive the key negative, which
// indicates an eviction bug rather than a recoverable condition.
func (e *Exact) Remove(key uint64, w int64) {
	v, ok := e.m[key]
	if !ok || v < w {
		panic("sketch: Exact.Remove below zero")
	}
	if v == w {
		delete(e.m, key)
	} else {
		e.m[key] = v - w
	}
	e.total -= w
}

// Estimate returns the total weight added for key; exact counters have no
// error.
func (e *Exact) Estimate(key uint64) int64 { return e.m[key] }

// Total returns the sum of all weights held.
func (e *Exact) Total() int64 { return e.total }

// Len returns the number of distinct keys currently held.
func (e *Exact) Len() int { return len(e.m) }

// Reset empties the counter, keeping the map's storage for the next fill.
func (e *Exact) Reset() {
	clear(e.m)
	e.total = 0
}

// Tracked returns every key with its count, in unspecified order.
func (e *Exact) Tracked() []KV {
	out := make([]KV, 0, len(e.m))
	for k, v := range e.m {
		out = append(out, KV{Key: k, Count: v})
	}
	return out
}

// ForEach visits every (key, count) pair in unspecified order.
func (e *Exact) ForEach(fn func(key uint64, count int64)) {
	for k, v := range e.m {
		fn(k, v)
	}
}

// AddAll merges other into e; counts saturate at MaxInt64.
func (e *Exact) AddAll(other *Exact) {
	if e.m == nil {
		e.m = make(map[uint64]int64, other.Len())
	}
	for k, v := range other.m {
		e.m[k] = AddSat(e.m[k], v)
	}
	e.total = AddSat(e.total, other.total)
}
