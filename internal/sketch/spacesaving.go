package sketch

import (
	"math"
	"math/bits"
	"sync"
	"unsafe"

	"hiddenhhh/internal/hashx"
)

// SpaceSaving is the Metwally et al. Space-Saving summary generalised to
// weighted updates, the counter algorithm used by the per-level HHH
// engine in both its settings (RHHH is the level-sampled one) and WCSS.
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
// each bucket is an intrusive circular doubly-linked list of the entries
// sharing that exact count — the bucket keeps its head only, the tail is
// the head's prev — and a two-level occupancy bitmap finds the minimum
// bucket in O(1). Entries whose count grows past the window leave for an
// unsorted "hot" zone where an update is a bare count increment — under
// heavy-tailed traffic that is the vast majority of updates. The ring is
// rebuilt from the hot zone only when it runs empty, i.e. after the
// minimum has advanced by a full window: one pass that places each entry
// near the minimum in the bucket of its count, no sort. With packet-scale
// weights (RHHH) that is rare; behind a coalescing block (PerLevel and
// WCSS since hhh.Block) every weight is a block sum of several KB, an
// evicted entry leaves the ring at once and the ring runs dry several
// times a window, which is why the rebuild is a placement. The key index
// is open addressed with backward-shift deletion; a slot holds the key's
// hash and its node, not the key. Storage follows the entries, not k:
// entries and index double as they fill (grow), and the buckets are built
// at the first rebuild, which only an eviction (or Min) asks for — merged
// and restored summaries, and tables that never fill, never hold them. All
// storage is kept across Reset, so a window's per-packet path allocates
// only where the table holds more entries than it ever has.
//
// Eviction among equal minimum counts is deterministic: the entry whose
// count changed least recently goes first (bucket lists keep arrival
// order; a rebuild links an entry behind the entries of its bucket with
// older change stamps). The heap-backed reference in
// spacesaving_heap_test.go implements the identical rule, which is what
// makes the two differentially testable entry for entry.
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

	total   int64
	clock   int64 // logical time of count changes, breaks eviction ties
	ordered bool  // see Ordered
}

// ringSlots is the count window the direct-addressed buckets cover. Where
// weights are packet sizes (at most ~1500 B) evictions and light-entry
// increments stay inside the ring; where they are block sums, larger than
// the window, an updated entry parks in the hot zone until the next
// rebuild reaches it, and what the ring keeps in order is the entries not
// touched since — the eviction candidates.
const ringSlots = 2048

const (
	nilIdx  = int32(-1)
	hotSlot = int32(-2) // prev of a node in the unsorted hot zone
)

// ssNode is one monitored entry, 40 bytes. A ring entry is linked into the
// list of the bucket of its count, count - base; a hot entry is linked
// nowhere and has prev == hotSlot.
type ssNode struct {
	key        uint64
	count      int64
	err        int64
	stamp      int64 // logical time of the last count change
	prev, next int32 // neighbours within the bucket's entry list
}

// ssRingSlot heads one count bucket. Entry lists are circular and keep
// arrival order: head is the entry that has sat at this count longest, its
// prev the one that arrived last.
type ssRingSlot struct {
	head int32
}

// ssSlot is one open-addressed index slot, 8 bytes: the key's hash, which
// a probe compares before it reads the node and a deletion takes the
// slot's home from, and the node, stored as nodeIndex+1 so the zero value
// means empty and Reset can clear the table with one memclr.
type ssSlot struct {
	h    uint32
	node int32
}

// NewSpaceSaving builds a summary with capacity k >= 1 counters. It holds
// no entries and a 4-slot index until entries arrive (see grow).
func NewSpaceSaving(k int) *SpaceSaving {
	if k < 1 {
		panic("sketch: SpaceSaving capacity must be >= 1")
	}
	return &SpaceSaving{k: k, tab: make([]ssSlot, 4), mask: 3, ordered: true}
}

// minEntries is the entry storage a table's first entry allocates.
const minEntries = 8

// grow makes room for n <= k entries: the entry storage becomes the
// smallest power of two that holds them, at least minEntries and at most k
// (so it doubles as it fills), the entries staying in place, and an index
// below twice its size is rebuilt from the stored hashes, no key hashed
// again. Storage is never given back.
func (s *SpaceSaving) grow(n int) {
	if n <= len(s.nodes) {
		return
	}
	nodes := make([]ssNode, min(max(minEntries, 1<<bits.Len(uint(n-1))), s.k))
	copy(nodes, s.nodes[:s.n])
	s.nodes = nodes
	if size := 1 << bits.Len(uint(2*len(nodes)-1)); size > len(s.tab) {
		old := s.tab
		s.tab, s.mask = make([]ssSlot, size), uint32(size-1)
		for _, sl := range old {
			if sl.node != 0 {
				s.idxInsert(sl.h, sl.node-1)
			}
		}
	}
}

// Capacity returns the configured number of counters k.
func (s *SpaceSaving) Capacity() int { return s.k }

// Len returns the number of keys currently monitored.
func (s *SpaceSaving) Len() int { return s.n }

// --- open-addressed index (linear probing, backward-shift deletion) ---

func ssHash(key uint64) uint32 { return uint32(hashx.Mix64(key)) }

// idxFind returns the node slot monitoring key, or nilIdx.
func (s *SpaceSaving) idxFind(key uint64) int32 { return s.idxFindHashed(key, ssHash(key)) }

// idxFindHashed is idxFind for a caller with h = ssHash(key) in hand. A
// slot whose hash matches is confirmed on its node's key, so keys that
// share all 32 bits of hash stay apart.
func (s *SpaceSaving) idxFindHashed(key uint64, h uint32) int32 {
	for i := h & s.mask; ; i = (i + 1) & s.mask {
		sl := s.tab[i]
		if sl.node == 0 {
			return nilIdx
		}
		if sl.h == h && s.nodes[sl.node-1].key == key {
			return sl.node - 1
		}
	}
}

// idxInsert indexes node under hash h.
func (s *SpaceSaving) idxInsert(h uint32, node int32) {
	i := h & s.mask
	for s.tab[i].node != 0 {
		i = (i + 1) & s.mask
	}
	s.tab[i] = ssSlot{h: h, node: node + 1}
}

// idxDelete removes node, indexed under hash h, from the index.
// Backward-shift deletion keeps probe chains intact without tombstones, so
// the table never degrades across windows: every slot behind the hole
// whose home — its stored hash, no key is hashed again — is not
// cyclically in (hole, slot] moves into the hole, which moves to it.
func (s *SpaceSaving) idxDelete(h uint32, node int32) {
	i := h & s.mask
	for s.tab[i].node != node+1 {
		i = (i + 1) & s.mask
	}
	for j := (i + 1) & s.mask; s.tab[j].node != 0; j = (j + 1) & s.mask {
		if (j-s.tab[j].h)&s.mask >= (j-i)&s.mask {
			s.tab[i] = s.tab[j]
			i = j
		}
	}
	s.tab[i] = ssSlot{}
}

// --- ring plumbing ---

// ringLink puts node ni into the bucket at ring index idx, behind the
// bucket's entries with older stamps. An update's stamp is the newest
// there is: it goes in at the tail without a step. Only rebase, which
// links in node order, brings an entry older than some already there; it
// takes the head's place at once if it is older than all of them (a
// merged summary's stamps run against node order) and otherwise walks back
// from the tail past the younger ones.
func (s *SpaceSaving) ringLink(ni, idx int32) {
	n := &s.nodes[ni]
	wi := uint32(idx) >> 6
	bit := uint64(1) << (uint32(idx) & 63)
	if s.words[wi]&bit == 0 {
		n.prev, n.next = ni, ni
		s.slots[idx].head = ni
		s.words[wi] |= bit
		s.summary |= uint64(1) << wi
	} else {
		at := s.slots[idx].head // ni goes in before at: before the head is behind the tail
		if s.nodes[at].stamp > n.stamp {
			s.slots[idx].head = ni
		} else {
			for s.nodes[s.nodes[at].prev].stamp > n.stamp {
				at = s.nodes[at].prev
			}
		}
		n.prev, n.next = s.nodes[at].prev, at
		s.nodes[n.prev].next = ni
		s.nodes[at].prev = ni
	}
	if idx < s.minIdx {
		s.minIdx = idx
	}
	s.ringN++
}

// ringRemove unlinks ring entry ni from the bucket of its count and marks
// it hot.
func (s *SpaceSaving) ringRemove(ni int32) {
	n := &s.nodes[ni]
	idx := int32(n.count - s.base)
	if n.next == ni { // alone in its bucket
		wi := uint32(idx) >> 6
		s.words[wi] &^= uint64(1) << (uint32(idx) & 63)
		if s.words[wi] == 0 {
			s.summary &^= uint64(1) << wi
		}
	} else {
		s.nodes[n.prev].next = n.next
		s.nodes[n.next].prev = n.prev
		if s.slots[idx].head == ni {
			s.slots[idx].head = n.next
		}
	}
	n.prev = hotSlot
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
		s.nodes[i].prev = hotSlot
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
// every entry within ringSlots of it is placed straight into the bucket of
// its exact count, where ringLink keeps stamp order — the ring a sort by
// (count, stamp) would build, eviction order preserved, without the sort.
// The first rebuild allocates the buckets; Reset keeps them.
func (s *SpaceSaving) rebase() {
	if s.slots == nil {
		s.slots = make([]ssRingSlot, ringSlots)
		s.words = make([]uint64, ringSlots/64)
	}
	mn := s.minCount()
	s.base = mn
	s.minIdx = 0
	s.ringN = 0
	s.live = true
	clear(s.words)
	s.summary = 0
	for i := 0; i < s.n; i++ {
		if idx := s.nodes[i].count - mn; idx < ringSlots {
			s.ringLink(int32(i), int32(idx))
		}
	}
}

// increase adds w to node ni's count and relinks it if it is in the ring,
// unlinking it while its count still names its bucket. Hot entries — the
// common case under heavy-tailed traffic — pay for a bare increment only.
func (s *SpaceSaving) increase(ni int32, w int64) {
	if w == 0 {
		return
	}
	n := &s.nodes[ni]
	linked := n.prev != hotSlot
	if linked {
		s.ringRemove(ni)
	}
	s.clock++
	n.count += w
	n.stamp = s.clock
	if idx := n.count - s.base; linked && idx < ringSlots {
		s.ringLink(ni, int32(idx))
	}
}

// Update adds weight w (w >= 0) for key.
func (s *SpaceSaving) Update(key uint64, w int64) {
	s.total += w
	s.ordered = false
	h := ssHash(key)
	if ni := s.idxFindHashed(key, h); ni != nilIdx {
		s.increase(ni, w)
		return
	}
	if s.n < s.k {
		if s.n == len(s.nodes) {
			s.grow(s.n + 1)
		}
		ni := int32(s.n)
		s.n++
		s.clock++
		s.nodes[ni] = ssNode{key: key, count: w, stamp: s.clock, prev: hotSlot}
		s.idxInsert(h, ni)
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
	s.idxDelete(ssHash(n.key), ni)
	s.idxInsert(h, ni)
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

// mergeRow is one row of a merge's union table, as columns so that the
// radix passes can order on either: the key, the merged count, the merged
// error bound (both non-negative: their unsigned order is their order).
type mergeRow [3]uint64

const (
	rowKey = iota
	rowCount
	rowErr
)

// mergeScratch is what a merge works in: the union rows, their order as
// the radix passes work it out (row indices, and the passes' other buffer)
// and the round with its floors. MergeAll takes one from scratchPool and
// puts it back; nothing it reads carries over from the previous merge.
type mergeScratch struct {
	rows     []mergeRow
	ord, tmp []int32
	round    []*SpaceSaving
	floors   []int64
}

var scratchPool = sync.Pool{New: func() any { return new(mergeScratch) }}

// A radix pass takes radixBits bits of a value (256 buckets: the histogram
// is 1 KB of stack, and a frame's byte counts are three or four such
// digits long); a run of equal counts up to runInsertion rows is put in
// key order by insertion.
const (
	radixBits    = 8
	radixMask    = 1<<radixBits - 1
	runInsertion = 16
)

// AddSat is a+b for non-negative a and b, saturating at MaxInt64 instead
// of wrapping: the addition every merged total goes through.
func AddSat(a, b int64) int64 {
	if c := a + b; c >= 0 {
		return c
	}
	return math.MaxInt64
}

// MulSat is a·m for non-negative a and positive m, saturating at MaxInt64:
// how a level-sampled engine scales a count by its level count.
func MulSat(a, m int64) int64 {
	if a > math.MaxInt64/m {
		return math.MaxInt64
	}
	return a * m
}

// Merge folds summary o into s: MergeAll of the one source.
func (s *SpaceSaving) Merge(o *SpaceSaving) { s.MergeAll([]*SpaceSaving{o}) }

// MergeAll makes s a summary of its own stream and those of srcs together
// (Agarwal et al., "Mergeable Summaries"; Mitzenmacher, Steinke & Thaler
// for Space-Saving) in one step over the round — s and the sources, which
// are not modified; nil and empty summaries take no part. For every key
// any of them monitors, the merged count is the sum of the round's upper
// bounds (a summary's count for the key, or its floor where it does not
// monitor it) and the merged error the sum of the errors on the same
// terms. The union is put in the canonical order — count descending, key
// ascending among equal counts — by radix passes, not a comparison sort,
// and truncated once, to s's capacity. Sums and a total order keep no
// trace of which summary came first: any permutation of the sources, and
// whichever of them receives the others, leaves the same nodes in the same
// places (and Ordered).
//
// The guarantees survive with the bounds added up. Each term is an upper
// bound for its own stream, over by at most Ni/ki, so no entry
// underestimates and Estimate(key) - true(key) <= N1/k1 + ... + NK/kK
// however the union is cut. Every kept count includes the sum of the
// floors, which bounds a key nobody monitors, and is at least the merged
// bound of any key cut, so the minimum stays the estimate for an
// unmonitored key (given one capacity throughout, as every engine has; a
// larger receiver can come out below capacity and answer 0). With one
// capacity k, any k upper bounds of one summary sum to at most its stream,
// so the minimum is at most N/k: hash-partitioned shards merge to the
// bound of one detector over the whole stream.
//
// Totals are added once, saturating. No honest count exceeds its
// summary's total (Restore refuses one that does), so only if the totals
// overflow can a row, and only then are the rows summed again with
// saturating additions: counts, errors and total stop at MaxInt64.
func (s *SpaceSaving) MergeAll(srcs []*SpaceSaving) {
	sc := scratchPool.Get().(*mergeScratch)
	defer func() { clear(sc.round); scratchPool.Put(sc) }() // the pool keeps no summary alive
	sc.round = append(append(sc.round[:0], s), srcs...)
	round, floors := sc.round[:0], sc.floors[:0] // filtered in place
	var total, floorSum int64
	n := 0
	for _, o := range sc.round {
		if o != nil && o.n > 0 {
			fl := o.Floor()
			round, floors = append(round, o), append(floors, fl)
			total, floorSum, n = AddSat(total, o.total), floorSum+fl, n+o.n
		}
	}
	sc.floors = floors
	if n == 0 {
		return
	}
	if cap(sc.rows) < n {
		sc.rows = make([]mergeRow, n)
		sc.ord, sc.tmp = make([]int32, n), make([]int32, n)
	}
	// The union: a key is summed where the first summary to monitor it is
	// met, over the summaries after it, whose entries for it are marked
	// seen (in the radix buffer, idle until the rows are in) and skipped
	// when their turn comes. No union index is built.
	rows, filled, seen := sc.rows[:n], 0, sc.tmp[:n]
	clear(seen)
	var countBits uint64
	first := 0 // where o's entries start in seen
	for i, o := range round {
		next := first + o.n
		for e := 0; e < o.n; e++ {
			if seen[first+e] != 0 {
				continue
			}
			nd := &o.nodes[e]
			h := ssHash(nd.key)
			c, er := floorSum-floors[i]+nd.count, floorSum-floors[i]+nd.err
			at := next
			for j, p := range round[i+1:] {
				if pi := p.idxFindHashed(nd.key, h); pi != nilIdx {
					c += p.nodes[pi].count - floors[i+1+j]
					er += p.nodes[pi].err - floors[i+1+j]
					seen[at+int(pi)] = 1
				}
				at += p.n
			}
			countBits |= uint64(c)
			rows[filled] = mergeRow{rowKey: nd.key, rowCount: uint64(c), rowErr: uint64(er)}
			filled++
		}
		first = next
	}
	rows = rows[:filled]
	if total == math.MaxInt64 {
		countBits = saturateRows(rows, round, floors)
	}
	ord, tmp := sc.ord[:filled], sc.tmp[:filled]
	for i := range ord {
		ord[i] = int32(i)
	}
	radix(rows, ord, tmp, rowCount, radixMask, countBits)
	keep := min(filled, s.k)
	for i, j := 0, 0; i < keep; i = j {
		for j = i + 1; j < filled && rows[ord[j]][rowCount] == rows[ord[i]][rowCount]; j++ {
		}
		keyOrder(rows, ord[i:j], tmp[i:j])
	}
	s.Reset()
	s.grow(keep)
	s.total = total
	for i, r := range ord[:keep] {
		s.install(i, keep, KV{Key: rows[r][rowKey], Count: int64(rows[r][rowCount]), ErrUB: int64(rows[r][rowErr])})
	}
	s.clock = int64(keep)
}

// saturateRows sums every row again, from the round, with saturating
// additions, and returns the bits set in any count.
func saturateRows(rows []mergeRow, round []*SpaceSaving, floors []int64) (countBits uint64) {
	for r := range rows {
		var c, er int64
		for j, p := range round {
			pc, pe := floors[j], floors[j]
			if pi := p.idxFind(rows[r][rowKey]); pi != nilIdx {
				pc, pe = p.nodes[pi].count, p.nodes[pi].err
			}
			c, er = AddSat(c, pc), AddSat(er, pe)
		}
		rows[r][rowCount], rows[r][rowErr] = uint64(c), uint64(er)
		countBits |= uint64(c)
	}
	return countBits
}

// radix puts ord — indices into rows — in the order of the rows' column
// col, ascending (flip 0) or descending (flip radixMask), stably: one
// counting pass, from the least significant up, per digit in which bits —
// the bits in which the values can differ — has a bit set. tmp is the
// passes' other buffer, as long as ord.
func radix(rows []mergeRow, ord, tmp []int32, col int, flip, bits uint64) {
	src, dst := ord, tmp
	for shift := 0; bits>>shift != 0; shift += radixBits {
		if bits>>shift&radixMask == 0 {
			continue
		}
		var pos [radixMask + 1]int32
		for _, r := range src {
			pos[(rows[r][col]>>shift^flip)&radixMask]++
		}
		var sum int32
		for d, c := range pos {
			pos[d], sum = sum, sum+c
		}
		for _, r := range src {
			d := (rows[r][col]>>shift ^ flip) & radixMask
			dst[pos[d]] = r
			pos[d]++
		}
		src, dst = dst, src
	}
	if len(ord) > 0 && &src[0] != &ord[0] {
		copy(ord, src)
	}
}

// keyOrder puts run, indices of rows with one count, in ascending key
// order: by insertion when short — nearly every run is a row or two — and
// by radix passes over the bits in which the keys differ otherwise (a
// table of equal counts is one run).
func keyOrder(rows []mergeRow, run, tmp []int32) {
	if len(run) > runInsertion {
		var bits uint64
		for _, r := range run {
			bits |= rows[r][rowKey] ^ rows[run[0]][rowKey]
		}
		radix(rows, run, tmp, rowKey, 0, bits)
		return
	}
	for a := 1; a < len(run); a++ {
		r, b := run[a], a
		for ; b > 0 && rows[run[b-1]][rowKey] > rows[r][rowKey]; b-- {
			run[b] = run[b-1]
		}
		run[b] = r
	}
}

// install writes entry e as node i of n in the canonical post-Merge
// layout: hot zone, stamps following descending-count order so eviction
// ties prefer the smaller entries first, matching the rule that the
// least-recently-grown entry goes first. The caller has Reset s, installs
// nodes 0..n-1 in turn and sets clock once every node is in. It reports
// false, installing nothing, when an earlier node has e's key: the index
// walk that finds the free slot finds the duplicate, one hash per entry
// and a key compared on every hash match.
func (s *SpaceSaving) install(i, n int, e KV) bool {
	h := ssHash(e.Key)
	j := h & s.mask
	for ; s.tab[j].node != 0; j = (j + 1) & s.mask {
		if sl := s.tab[j]; sl.h == h && s.nodes[sl.node-1].key == e.Key {
			return false
		}
	}
	s.tab[j] = ssSlot{h: h, node: int32(i) + 1}
	s.n = i + 1
	s.nodes[i] = ssNode{
		key:   e.Key,
		count: e.Count,
		err:   e.ErrUB,
		stamp: int64(n - i),
		prev:  hotSlot,
	}
	return true
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

// Ordered reports whether the entries stand in non-increasing count
// order, so that a reader after counts above a threshold can stop at the
// first one below it: true after a merge (the canonical order), after a
// Restore whose entries' counts do not increase, and of an empty summary;
// any Update clears it.
func (s *SpaceSaving) Ordered() bool { return s.ordered }

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
// reset-per-window discipline performs no allocation once a window has
// filled the table.
func (s *SpaceSaving) Reset() {
	if s.n > 0 { // an empty summary's index is clear: every entry in it is a node's
		clear(s.tab)
	}
	clear(s.words)
	s.summary = 0
	s.n = 0
	s.ringN = 0
	s.live = false
	s.minIdx = 0
	s.base = 0
	s.total = 0
	s.clock = 0
	s.ordered = true
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

// SizeBytes reports the storage the summary holds: entry nodes and the
// key index as far as they have grown and, once a rebuild has made them,
// the count buckets with their occupancy bitmap.
func (s *SpaceSaving) SizeBytes() int {
	return len(s.nodes)*int(unsafe.Sizeof(ssNode{})) + len(s.tab)*int(unsafe.Sizeof(ssSlot{})) +
		len(s.slots)*int(unsafe.Sizeof(ssRingSlot{})) + len(s.words)*int(unsafe.Sizeof(uint64(0)))
}
