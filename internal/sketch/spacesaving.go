package sketch

import (
	"math/bits"
	"slices"

	"hiddenhhh/internal/hashx"
)

// SpaceSaving is the Metwally et al. Space-Saving summary generalised to
// weighted updates, the counter algorithm used by the per-level HHH
// engine, RHHH and WCSS.
//
// It maintains at most k (key, count, err) entries. A monitored key's
// update simply adds its weight. An unmonitored key evicts the entry with
// the minimum count m and takes count = m + w, err = m.
//
// Guarantees (N = total weight added):
//
//	Estimate(key) >= true(key)                    (never underestimates)
//	Estimate(key) -  true(key) <= N/k             (bounded overestimation)
//	any key with true(key) > N/k is monitored     (no false negatives)
//
// Internally this is a stream-summary in the spirit of Metwally's bucket
// list and of "Constant Time Updates in Hierarchical Heavy Hitters", but
// adapted to weighted updates: a linked bucket list degrades to long
// walks when byte-sized increments land in the dense count region near
// the minimum, so the buckets here are direct-addressed instead. A ring
// of ringSlots count buckets covers the window [base, base+ringSlots);
// each bucket is an intrusive doubly-linked list of the entries sharing
// that exact count, and a two-level occupancy bitmap finds the minimum
// bucket in O(1). Entries whose count grows past the window leave for an
// unsorted "hot" zone where an update is a bare count increment — under
// heavy-tailed traffic that is the vast majority of updates. The ring is
// rebuilt from the hot zone only when it runs empty, i.e. after the
// minimum has advanced by a full window, which amortises the rebuild to
// O(1) per update for packet-scale weights. The key index is open
// addressed with backward-shift deletion. All storage is allocated at
// construction and reused across Reset, so the per-packet path never
// allocates.
//
// Eviction among equal minimum counts is deterministic: the entry whose
// count changed least recently goes first (bucket lists keep arrival
// order, rebuilds sort by the recorded change stamp). The heap-backed
// reference in spacesaving_heap_test.go implements the identical rule,
// which is what makes the two differentially testable entry for entry.
type SpaceSaving struct {
	k     int
	nodes []ssNode
	n     int // nodes in use; they are recycled in place, never freed

	// Direct-addressed count buckets over [base, base+ringSlots).
	base    int64
	minIdx  int32 // lower bound on the first occupied slot
	ringN   int   // entries currently linked into the ring
	live    bool  // ring built since the last Reset
	slots   []ssRingSlot
	words   []uint64 // occupancy bitmap, one bit per slot
	summary uint64   // one bit per occupancy word

	// Open-addressed key index.
	tab  []ssSlot
	mask uint32

	scratch []int32 // rebuild candidate buffer
	total   int64
	clock   int64 // logical time of count changes, breaks eviction ties
}

// ringSlots is the count window the direct-addressed buckets cover. It
// must comfortably exceed the common per-update weight (packet sizes top
// out around 1500 B) so that evictions and light-entry increments stay
// inside the ring; larger weights merely park entries in the hot zone
// until the next rebuild reaches them.
const ringSlots = 2048

const (
	nilIdx  = int32(-1)
	hotSlot = int32(-2) // node is in the unsorted hot zone
)

// ssNode is one monitored entry. Ring entries are linked into their count
// bucket's list; hot entries are not linked anywhere.
type ssNode struct {
	key        uint64
	count      int64
	err        int64
	stamp      int64 // logical time of the last count change
	slot       int32 // ring slot index, or hotSlot
	prev, next int32 // neighbours within the bucket's entry list
}

// ssRingSlot heads one count bucket. Entry lists keep arrival order: head
// is the entry that has sat at this count longest.
type ssRingSlot struct {
	head, tail int32
}

// ssSlot is one open-addressed index slot. node stores nodeIndex+1 so the
// zero value means empty and Reset can clear the table with one memclr.
type ssSlot struct {
	key  uint64
	node int32
}

// NewSpaceSaving builds a summary with capacity k >= 1 counters.
func NewSpaceSaving(k int) *SpaceSaving {
	if k < 1 {
		panic("sketch: SpaceSaving capacity must be >= 1")
	}
	tabSize := uint32(4)
	for tabSize < uint32(2*k) {
		tabSize <<= 1
	}
	return &SpaceSaving{
		k:       k,
		nodes:   make([]ssNode, k),
		slots:   make([]ssRingSlot, ringSlots),
		words:   make([]uint64, ringSlots/64),
		tab:     make([]ssSlot, tabSize),
		mask:    tabSize - 1,
		scratch: make([]int32, 0, k),
	}
}

// Capacity returns the configured number of counters k.
func (s *SpaceSaving) Capacity() int { return s.k }

// Len returns the number of keys currently monitored.
func (s *SpaceSaving) Len() int { return s.n }

// --- open-addressed index (linear probing, backward-shift deletion) ---

func ssHash(key uint64) uint32 { return uint32(hashx.Mix64(key)) }

// idxFind returns the node slot monitoring key, or nilIdx.
func (s *SpaceSaving) idxFind(key uint64) int32 {
	i := ssHash(key) & s.mask
	for {
		sl := s.tab[i]
		if sl.node == 0 {
			return nilIdx
		}
		if sl.key == key {
			return sl.node - 1
		}
		i = (i + 1) & s.mask
	}
}

func (s *SpaceSaving) idxInsert(key uint64, node int32) {
	i := ssHash(key) & s.mask
	for s.tab[i].node != 0 {
		i = (i + 1) & s.mask
	}
	s.tab[i] = ssSlot{key: key, node: node + 1}
}

func (s *SpaceSaving) idxDelete(key uint64) {
	i := ssHash(key) & s.mask
	for s.tab[i].key != key || s.tab[i].node == 0 {
		i = (i + 1) & s.mask
	}
	// Backward-shift deletion keeps probe chains intact without
	// tombstones, so the table never degrades across windows.
	for {
		s.tab[i] = ssSlot{}
		j := i
		for {
			j = (j + 1) & s.mask
			if s.tab[j].node == 0 {
				return
			}
			h := ssHash(s.tab[j].key) & s.mask
			// tab[j] may stay only if its home h lies cyclically in (i, j].
			if i <= j {
				if i < h && h <= j {
					continue
				}
			} else if h > i || h <= j {
				continue
			}
			s.tab[i] = s.tab[j]
			i = j
			break
		}
	}
}

// --- ring plumbing ---

// ringLink appends node ni to the bucket at ring index idx, keeping
// oldest-at-this-count-first order.
func (s *SpaceSaving) ringLink(ni, idx int32) {
	n := &s.nodes[ni]
	n.slot = idx
	n.next = nilIdx
	wi := uint32(idx) >> 6
	bit := uint64(1) << (uint32(idx) & 63)
	if s.words[wi]&bit != 0 {
		tail := s.slots[idx].tail
		n.prev = tail
		s.nodes[tail].next = ni
		s.slots[idx].tail = ni
	} else {
		n.prev = nilIdx
		s.slots[idx] = ssRingSlot{head: ni, tail: ni}
		s.words[wi] |= bit
		s.summary |= uint64(1) << wi
	}
	if idx < s.minIdx {
		s.minIdx = idx
	}
	s.ringN++
}

// ringRemove unlinks node ni from its bucket and marks it hot.
func (s *SpaceSaving) ringRemove(ni int32) {
	n := &s.nodes[ni]
	idx := n.slot
	if n.prev == nilIdx {
		s.slots[idx].head = n.next
	} else {
		s.nodes[n.prev].next = n.next
	}
	if n.next == nilIdx {
		s.slots[idx].tail = n.prev
	} else {
		s.nodes[n.next].prev = n.prev
	}
	if s.slots[idx].head == nilIdx {
		wi := uint32(idx) >> 6
		s.words[wi] &^= uint64(1) << (uint32(idx) & 63)
		if s.words[wi] == 0 {
			s.summary &^= uint64(1) << wi
		}
	}
	n.slot = hotSlot
	s.ringN--
}

// ringMin returns the first occupied slot index. The ring must be
// non-empty. minIdx is a monotone lower bound within a ring epoch, so the
// bitmap scan is amortised O(1).
func (s *SpaceSaving) ringMin() int32 {
	i := uint32(s.minIdx)
	wi := i >> 6
	w := s.words[wi] >> (i & 63) << (i & 63)
	if w == 0 {
		sum := s.summary >> (wi + 1) << (wi + 1)
		wi = uint32(bits.TrailingZeros64(sum))
		w = s.words[wi]
	}
	return int32(wi<<6 + uint32(bits.TrailingZeros64(w)))
}

// dropRing unlinks every ring entry, sending the structure back to the
// all-hot state. Only taken on the rare path where a new key arrives
// below the ring's base while the summary is still filling.
func (s *SpaceSaving) dropRing() {
	for i := 0; i < s.n; i++ {
		s.nodes[i].slot = hotSlot
	}
	clear(s.words)
	s.summary = 0
	s.ringN = 0
	s.live = false
}

// ensureRing guarantees at least one ring entry, rebuilding the window
// from the hot zone when the minimum has advanced past it.
func (s *SpaceSaving) ensureRing() {
	if s.live && s.ringN > 0 {
		return
	}
	s.rebase()
}

// rebase rebuilds the ring window anchored at the current global minimum:
// every entry within ringSlots of it is linked back into direct-addressed
// buckets, in (count, stamp) order so that eviction order is preserved.
func (s *SpaceSaving) rebase() {
	mn := s.minCount()
	s.base = mn
	s.minIdx = 0
	s.ringN = 0
	s.live = true
	clear(s.words)
	s.summary = 0
	cand := s.scratch[:0]
	for i := 0; i < s.n; i++ {
		if s.nodes[i].count-mn < ringSlots {
			cand = append(cand, int32(i))
		}
	}
	slices.SortFunc(cand, func(a, b int32) int {
		na, nb := &s.nodes[a], &s.nodes[b]
		if na.count != nb.count {
			if na.count < nb.count {
				return -1
			}
			return 1
		}
		if na.stamp < nb.stamp {
			return -1
		}
		return 1
	})
	for _, ni := range cand {
		s.ringLink(ni, int32(s.nodes[ni].count-mn))
	}
	s.scratch = cand[:0]
}

// increase adds w to node ni's count and relinks it if it is in the ring.
// Hot entries — the common case under heavy-tailed traffic — pay for a
// bare increment only.
func (s *SpaceSaving) increase(ni int32, w int64) {
	if w == 0 {
		return
	}
	n := &s.nodes[ni]
	s.clock++
	n.count += w
	n.stamp = s.clock
	if n.slot == hotSlot {
		return
	}
	s.ringRemove(ni)
	if idx := n.count - s.base; idx < ringSlots {
		s.ringLink(ni, int32(idx))
	}
}

// Update adds weight w (w >= 0) for key.
func (s *SpaceSaving) Update(key uint64, w int64) {
	s.total += w
	if ni := s.idxFind(key); ni != nilIdx {
		s.increase(ni, w)
		return
	}
	if s.n < s.k {
		ni := int32(s.n)
		s.n++
		s.clock++
		s.nodes[ni] = ssNode{key: key, count: w, stamp: s.clock, slot: hotSlot, prev: nilIdx, next: nilIdx}
		s.idxInsert(key, ni)
		if s.live {
			if w < s.base {
				s.dropRing()
			} else if idx := w - s.base; idx < ringSlots {
				s.ringLink(ni, int32(idx))
			}
		}
		return
	}
	// Evict the minimum: the head entry of the minimum bucket is the one
	// that has sat at the minimum count longest. The incoming key takes
	// over its node and inherits the minimum as error.
	s.ensureRing()
	mi := s.ringMin()
	s.minIdx = mi
	ni := s.slots[mi].head
	n := &s.nodes[ni]
	s.idxDelete(n.key)
	s.idxInsert(key, ni)
	n.key = key
	n.err = n.count
	s.increase(ni, w)
}

// minCount returns the minimum monitored count by direct scan, without
// touching the ring (unlike Min it leaves the structure untouched, so it
// is safe on a summary being read during a merge). Returns 0 when empty.
func (s *SpaceSaving) minCount() int64 {
	if s.n == 0 {
		return 0
	}
	mn := s.nodes[0].count
	for i := 1; i < s.n; i++ {
		if c := s.nodes[i].count; c < mn {
			mn = c
		}
	}
	return mn
}

// mergedEntry is one row of a merge's union table.
type mergedEntry struct {
	key        uint64
	count, err int64
}

// MergeScratch is the union table a merge sorts and truncates. An engine
// that merges many summaries in a row — the sliding accumulator folds
// tens of frames per snapshot — holds one and passes it to MergeWith, so
// the table is allocated once per engine rather than once per merge (and
// never per summary: the summaries are the state, the scratch is not).
type MergeScratch struct {
	all []mergedEntry
}

// SizeBytes reports the retained table's footprint.
func (sc *MergeScratch) SizeBytes() int { return cap(sc.all) * 24 }

// Merge folds summary o into s, producing a summary of the combined
// stream with bounded error (Agarwal et al., "Mergeable Summaries";
// Mitzenmacher, Steinke & Thaler for the Space-Saving form). o is not
// modified.
//
// For every key, the merged upper bound is the sum of the two upper
// bounds (a monitored key contributes its count, an unmonitored one the
// summary's minimum count — or 0 while the summary is below capacity),
// and the merged lower bound is the sum of the two lower bounds. The
// union is then truncated to s's capacity by keeping the k largest
// counts; every merged count is at least minS+minO, so the truncated
// summary's minimum remains a valid upper bound for unmonitored keys and
// all three Space-Saving guarantees survive with error bound the sum of
// the two inputs' bounds:
//
//	Estimate(key) - true(key) <= Ns/ks + No/ko
//
// When the two inputs summarise *disjoint* streams (the sharded
// pipeline's hash-partitioned case), the per-shard terms telescope:
// merging K shards of a stream of total weight N, each with k counters,
// keeps the overall bound at N/k — no worse than one detector over the
// whole stream.
//
// Merging an empty summary is an identity. Merge costs O((ns+no) log)
// and allocates scratch; it is a query-time path, not an ingest path.
func (s *SpaceSaving) Merge(o *SpaceSaving) {
	s.MergeWith(o, new(MergeScratch))
}

// MergeWith is Merge with the union table taken from (and left in) sc.
func (s *SpaceSaving) MergeWith(o *SpaceSaving, sc *MergeScratch) {
	if o == nil || o.n == 0 {
		return
	}
	minS, minO := s.Floor(), o.Floor()
	if cap(sc.all) < s.n+o.n {
		sc.all = make([]mergedEntry, 0, s.n+o.n)
	}
	all := sc.all[:0]
	for i := 0; i < s.n; i++ {
		n := &s.nodes[i]
		c, e := n.count, n.err
		if oi := o.idxFind(n.key); oi != nilIdx {
			c += o.nodes[oi].count
			e += o.nodes[oi].err
		} else {
			c += minO
			e += minO
		}
		all = append(all, mergedEntry{key: n.key, count: c, err: e})
	}
	for i := 0; i < o.n; i++ {
		n := &o.nodes[i]
		if s.idxFind(n.key) != nilIdx {
			continue // already combined above
		}
		all = append(all, mergedEntry{key: n.key, count: n.count + minS, err: n.err + minS})
	}
	// Keep the k largest counts; ties break on key for determinism.
	slices.SortFunc(all, func(a, b mergedEntry) int {
		if a.count != b.count {
			if a.count > b.count {
				return -1
			}
			return 1
		}
		if a.key < b.key {
			return -1
		}
		if a.key > b.key {
			return 1
		}
		return 0
	})
	if len(all) > s.k {
		all = all[:s.k]
	}
	total := s.total + o.total
	s.Reset()
	s.total = total
	for i := range all {
		s.install(i, len(all), KV{Key: all[i].key, Count: all[i].count, ErrUB: all[i].err})
	}
	s.n = len(all)
	s.clock = int64(len(all))
}

// install writes entry e as node i of n in the canonical post-Merge
// layout: hot zone, stamps following descending-count order so eviction
// ties prefer the smaller entries first, matching the rule that the
// least-recently-grown entry goes first. The caller has Reset s and sets
// n and clock once every node is in.
func (s *SpaceSaving) install(i, n int, e KV) {
	s.nodes[i] = ssNode{
		key:   e.Key,
		count: e.Count,
		err:   e.ErrUB,
		stamp: int64(n - i),
		slot:  hotSlot,
		prev:  nilIdx,
		next:  nilIdx,
	}
	s.idxInsert(e.Key, int32(i))
}

// Estimate returns an upper bound on key's weight. Unmonitored keys return
// the minimum monitored count when the summary is full (the tight upper
// bound), or 0 when it is not.
func (s *SpaceSaving) Estimate(key uint64) int64 {
	if ni := s.idxFind(key); ni != nilIdx {
		return s.nodes[ni].count
	}
	if s.n == s.k {
		return s.Min()
	}
	return 0
}

// ErrorBound returns the recorded overestimation bound for key (its err
// field), or the minimum count for unmonitored keys.
func (s *SpaceSaving) ErrorBound(key uint64) int64 {
	if ni := s.idxFind(key); ni != nilIdx {
		return s.nodes[ni].err
	}
	if s.n == s.k {
		return s.Min()
	}
	return 0
}

// Min returns the minimum monitored count, or 0 when empty.
func (s *SpaceSaving) Min() int64 {
	if s.n == 0 {
		return 0
	}
	s.ensureRing()
	mi := s.ringMin()
	s.minIdx = mi
	return s.base + int64(mi)
}

// Floor returns what Estimate answers for an unmonitored key — the
// minimum monitored count when the summary is full, 0 when it is not —
// by direct scan: unlike Min it leaves the ring untouched, so it is safe
// on a summary that is only being read (a merge source, a sealed frame).
func (s *SpaceSaving) Floor() int64 {
	if s.n < s.k {
		return 0
	}
	return s.minCount()
}

// Lookup returns key's monitored count, and whether it is monitored.
func (s *SpaceSaving) Lookup(key uint64) (int64, bool) {
	if ni := s.idxFind(key); ni != nilIdx {
		return s.nodes[ni].count, true
	}
	return 0, false
}

// Entry returns the i-th monitored entry, 0 <= i < Len(), in the node
// order ForEachTracked visits.
func (s *SpaceSaving) Entry(i int) KV {
	n := &s.nodes[i]
	return KV{Key: n.key, Count: n.count, ErrUB: n.err}
}

// Total returns the sum of all weights added since the last Reset.
func (s *SpaceSaving) Total() int64 { return s.total }

// Reset empties the summary. All storage is retained: the index is cleared
// in place and nodes, buckets and bitmaps are recycled, so a
// reset-per-window discipline performs no allocation after construction.
func (s *SpaceSaving) Reset() {
	clear(s.tab)
	clear(s.words)
	s.summary = 0
	s.n = 0
	s.ringN = 0
	s.live = false
	s.minIdx = 0
	s.base = 0
	s.total = 0
	s.clock = 0
}

// ForEachTracked visits every monitored entry in unspecified order
// without allocating — the zero-allocation query path used by the HHH
// engines' conditioned bottom-up pass.
func (s *SpaceSaving) ForEachTracked(fn func(key uint64, count, errUB int64)) {
	for i := 0; i < s.n; i++ {
		n := &s.nodes[i]
		fn(n.key, n.count, n.err)
	}
}

// AppendTracked appends the currently monitored keys to dst and returns
// the extended slice; with a preallocated dst it performs no allocation.
func (s *SpaceSaving) AppendTracked(dst []KV) []KV {
	for i := 0; i < s.n; i++ {
		n := &s.nodes[i]
		dst = append(dst, KV{Key: n.key, Count: n.count, ErrUB: n.err})
	}
	return dst
}

// Tracked returns the monitored keys and their estimates, in unspecified
// order.
func (s *SpaceSaving) Tracked() []KV {
	return s.AppendTracked(make([]KV, 0, s.n))
}

// HeavyKeys returns the monitored keys whose estimate is >= threshold.
func (s *SpaceSaving) HeavyKeys(threshold int64) []KV {
	var out []KV
	for i := 0; i < s.n; i++ {
		n := &s.nodes[i]
		if n.count >= threshold {
			out = append(out, KV{Key: n.key, Count: n.count, ErrUB: n.err})
		}
	}
	return out
}

// GuaranteedKeys returns keys whose *lower bound* (count - err) meets the
// threshold: detections that cannot be false positives.
func (s *SpaceSaving) GuaranteedKeys(threshold int64) []KV {
	var out []KV
	for i := 0; i < s.n; i++ {
		n := &s.nodes[i]
		if n.count-n.err >= threshold {
			out = append(out, KV{Key: n.key, Count: n.count, ErrUB: n.err})
		}
	}
	return out
}

// SizeBytes reports the exact state footprint of the summary: entry
// nodes, direct-addressed buckets with their occupancy bitmap, and the
// open-addressed key index.
func (s *SpaceSaving) SizeBytes() int {
	return len(s.nodes)*48 + len(s.slots)*8 + len(s.words)*8 + 8 + len(s.tab)*16
}
