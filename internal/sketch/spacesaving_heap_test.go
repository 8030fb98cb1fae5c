package sketch

import "container/heap"

// HeapSpaceSaving is the original heap-backed Space-Saving implementation,
// retained as the reference oracle for differential testing of the O(1)
// stream-summary SpaceSaving. It has identical output semantics — the
// same monitored set, counts and error bounds after any update sequence —
// but O(log k) updates, so the hot paths use SpaceSaving instead.
//
// Ties at the minimum are broken deterministically: among equal counts the
// entry whose count changed least recently is evicted first. The heap
// orders on (count, stamp) where stamp is a logical clock of count
// changes, which is exactly the arrival order the stream-summary's bucket
// lists preserve; this is what makes the two implementations comparable
// entry for entry rather than merely in distribution.
type HeapSpaceSaving struct {
	k       int
	entries []heapEntry // heap-ordered by (count, stamp)
	index   map[uint64]int
	total   int64
	clock   int64
}

type heapEntry struct {
	key   uint64
	count int64
	err   int64
	stamp int64 // logical time of the last count change
}

// NewHeapSpaceSaving builds a summary with capacity k >= 1 counters.
func NewHeapSpaceSaving(k int) *HeapSpaceSaving {
	if k < 1 {
		panic("sketch: HeapSpaceSaving capacity must be >= 1")
	}
	return &HeapSpaceSaving{
		k:     k,
		index: make(map[uint64]int, k),
	}
}

// Capacity returns the configured number of counters k.
func (s *HeapSpaceSaving) Capacity() int { return s.k }

// Len returns the number of keys currently monitored.
func (s *HeapSpaceSaving) Len() int { return len(s.entries) }

// Update implements Sketch. The stamp renews only when the count actually
// changes (w != 0), mirroring the stream-summary, where a zero-weight
// update leaves the entry in place within its bucket's arrival order.
func (s *HeapSpaceSaving) Update(key uint64, w int64) {
	s.total += w
	if i, ok := s.index[key]; ok {
		if w == 0 {
			return
		}
		s.clock++
		s.entries[i].count += w
		s.entries[i].stamp = s.clock
		heap.Fix(s, i)
		return
	}
	if len(s.entries) < s.k {
		s.clock++
		heap.Push(s, heapEntry{key: key, count: w, stamp: s.clock})
		return
	}
	// Evict the minimum: the incoming key inherits its count as error.
	min := &s.entries[0]
	delete(s.index, min.key)
	s.index[key] = 0
	min.err = min.count
	min.key = key
	if w != 0 {
		s.clock++
		min.count += w
		min.stamp = s.clock
		heap.Fix(s, 0)
	}
}

// Estimate implements Estimator. Unmonitored keys return the minimum
// monitored count when the summary is full (the tight upper bound), or 0
// when it is not.
func (s *HeapSpaceSaving) Estimate(key uint64) int64 {
	if i, ok := s.index[key]; ok {
		return s.entries[i].count
	}
	if len(s.entries) == s.k {
		return s.entries[0].count
	}
	return 0
}

// ErrorBound returns the recorded overestimation bound for key (its err
// field), or the minimum count for unmonitored keys.
func (s *HeapSpaceSaving) ErrorBound(key uint64) int64 {
	if i, ok := s.index[key]; ok {
		return s.entries[i].err
	}
	if len(s.entries) == s.k {
		return s.entries[0].count
	}
	return 0
}

// Min returns the minimum monitored count, or 0 when empty.
func (s *HeapSpaceSaving) Min() int64 {
	if len(s.entries) == 0 {
		return 0
	}
	return s.entries[0].count
}

// Total implements Sketch.
func (s *HeapSpaceSaving) Total() int64 { return s.total }

// Reset implements Sketch, reusing the index map instead of reallocating
// it every window.
func (s *HeapSpaceSaving) Reset() {
	s.entries = s.entries[:0]
	clear(s.index)
	s.total = 0
	s.clock = 0
}

// Tracked implements Tracker.
func (s *HeapSpaceSaving) Tracked() []KV {
	out := make([]KV, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, KV{Key: e.key, Count: e.count, ErrUB: e.err})
	}
	return out
}

// HeavyKeys implements Tracker.
func (s *HeapSpaceSaving) HeavyKeys(threshold int64) []KV {
	var out []KV
	for _, e := range s.entries {
		if e.count >= threshold {
			out = append(out, KV{Key: e.key, Count: e.count, ErrUB: e.err})
		}
	}
	return out
}

// GuaranteedKeys returns keys whose *lower bound* (count - err) meets the
// threshold: detections that cannot be false positives.
func (s *HeapSpaceSaving) GuaranteedKeys(threshold int64) []KV {
	var out []KV
	for _, e := range s.entries {
		if e.count-e.err >= threshold {
			out = append(out, KV{Key: e.key, Count: e.count, ErrUB: e.err})
		}
	}
	return out
}

// heap.Interface methods; Len above doubles as the heap length. Not for
// external use.

// Less implements heap.Interface: the eviction order (count, then
// least-recently-grown).
func (s *HeapSpaceSaving) Less(i, j int) bool {
	a, b := &s.entries[i], &s.entries[j]
	if a.count != b.count {
		return a.count < b.count
	}
	return a.stamp < b.stamp
}

// Swap implements heap.Interface, keeping the key index in sync.
func (s *HeapSpaceSaving) Swap(i, j int) {
	s.entries[i], s.entries[j] = s.entries[j], s.entries[i]
	s.index[s.entries[i].key] = i
	s.index[s.entries[j].key] = j
}

// Push implements heap.Interface.
func (s *HeapSpaceSaving) Push(x any) {
	e := x.(heapEntry)
	s.index[e.key] = len(s.entries)
	s.entries = append(s.entries, e)
}

// Pop implements heap.Interface.
func (s *HeapSpaceSaving) Pop() any {
	e := s.entries[len(s.entries)-1]
	delete(s.index, e.key)
	s.entries = s.entries[:len(s.entries)-1]
	return e
}
