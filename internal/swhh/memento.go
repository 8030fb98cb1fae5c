// Memento-class sliding-window engine: a single aged counter table per
// hierarchy level instead of WCSS's ring of per-frame Space-Saving
// instances.
//
// The WCSS Sliding summary pays k-frame mechanics on both sides of the
// stream: every Update touches one of k+1 Space-Saving instances, and
// every Query rescans all k+1 frames per candidate to sum the windowed
// estimate. Memento (Ben-Basat, Einziger, Friedman, Luizelli, Waisbard —
// see PAPERS.md) shows a sliding-window heavy-hitter structure can cost
// nearly the same as a plain one by keeping a single counter table whose
// entries age out amortized as the window slides. This file ports that
// idea onto the repository's time-framed window model and composes it
// with RHHH-style level sampling (one hierarchy level updated per packet)
// for the hierarchical wrapper, the H-Memento composition.
//
// Layout. Each Memento keeps its tracked keys in dense parallel arrays
// (keys/counts/errs) plus a flattened per-entry × per-frame matrix of
// frame cells, so an entry's windowed count is maintained incrementally:
// Update adds to one count and one cell; crossing a frame boundary
// subtracts the expiring cell from every entry and compacts out entries
// that reach zero. Update is O(1) amortized, and Query iterates the n ≤
// Counters live entries once — no per-frame rescan and no candidate
// dedup.
//
// Eviction. When the table is full, the classical Space-Saving rule
// (evict the global minimum, new key inherits its count as error) would
// need an ordering structure that aging invalidates wholesale at every
// frame boundary. Instead the victim is the minimum of a fixed-width
// probe window swept deterministically across the table (mementoProbe
// entries per eviction, rotating cursor). The probed minimum is an upper
// bound on the true minimum, so per-key estimates remain upper bounds
// with tracked error (errs), but the deterministic ε = 1/Counters bound
// of Space-Saving is weakened to an empirical envelope — the oracle
// differential matrix documents and enforces it (see
// TestOracleDifferentialSlidingMemento and cmd/hhheval's sliding-memento
// row). Determinism is deliberate: shard merges must be reproducible, and
// the K=1 sharded pipeline must stay byte-identical to a single engine.
//
// Merge. Frame cells are addressed by global frame index exactly like the
// WCSS ring, so two Mementos built from the same Config merge frame by
// frame: the receiver advances to the other's frame, then folds every
// overlapping frame's cells (and the exact per-frame totals) entry by
// entry, inserting or evicting on the receiver as capacity demands.
// Merging into an empty summary reproduces the source exactly.
package swhh

import (
	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hashx"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/trace"
)

// mementoProbe is the eviction probe width: a full Memento evicts the
// minimum-count entry among this many consecutive entries starting at a
// rotating cursor. Wider probes approach true-minimum eviction (smaller
// error) at more work per eviction; 16 keeps evictions cheap while the
// probed minimum stays close to the true minimum on skewed traffic.
const mementoProbe = 16

// Memento is a flat sliding-window heavy-hitter summary with a single
// aged counter table: the Memento-class alternative to the WCSS Sliding.
// It covers the same time-framed window geometry (between W and W(1+1/k)
// of history, identical CoveredSince), keeps exact per-frame stream
// totals, and merges frame by frame like Sliding. Not safe for concurrent
// use. Timestamps must be non-decreasing.
type Memento struct {
	cfg     Config
	frameNs int64
	ring    int64 // frame cells per entry: k full frames + 1 filling
	probe   int   // eviction probe width (mementoProbe clamped to capacity)

	n      int      // live entries, dense in [0, n)
	keys   []uint64 // entry key
	counts []int64  // windowed count = sum of the entry's live cells
	errs   []int64  // overestimation slop inherited through evictions
	cells  []int64  // per-frame counts, entry-major: entry e, slot s at e*ring+s
	totals []int64  // exact per-frame stream totals (every update, tracked or not)
	cursor int      // next eviction probe start

	curFrame int64 // global index of the frame currently filling

	idx     []int32 // open-addressed key index: entry+1, 0 = empty
	idxMask uint64
}

// NewMemento builds a flat Memento summary from cfg. The Config is shared
// with the WCSS engine: Window and Frames fix the same frame geometry,
// and Counters is the table capacity (where WCSS holds Counters entries
// per frame, Memento holds Counters entries total — the windowed count
// lives in one entry, not spread across frames).
func NewMemento(cfg Config) (*Memento, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	frameNs := int64(cfg.Window) / int64(cfg.Frames)
	if frameNs < 1 {
		frameNs = 1 // sub-frame window: 1 ns frames, same floor as NewSliding
	}
	ring := int64(cfg.Frames + 1)
	probe := mementoProbe
	if probe > cfg.Counters {
		probe = cfg.Counters
	}
	// Index sized to a power of two at least 4× capacity: a ≤25% load
	// factor keeps linear probe chains short even right before eviction.
	idxSize := 1
	for idxSize < 4*cfg.Counters {
		idxSize <<= 1
	}
	return &Memento{
		cfg:      cfg,
		frameNs:  frameNs,
		ring:     ring,
		probe:    probe,
		keys:     make([]uint64, cfg.Counters),
		counts:   make([]int64, cfg.Counters),
		errs:     make([]int64, cfg.Counters),
		cells:    make([]int64, int64(cfg.Counters)*ring),
		totals:   make([]int64, ring),
		curFrame: frameUninit,
		idx:      make([]int32, idxSize),
		idxMask:  uint64(idxSize - 1),
	}, nil
}

// find returns the dense entry index of key, or -1.
func (m *Memento) find(key uint64) int {
	p := hashx.Mix64(key) & m.idxMask
	for {
		v := m.idx[p]
		if v == 0 {
			return -1
		}
		if e := int(v - 1); m.keys[e] == key {
			return e
		}
		p = (p + 1) & m.idxMask
	}
}

// idxInsert records entry e under key; the key must not be present.
func (m *Memento) idxInsert(key uint64, e int) {
	p := hashx.Mix64(key) & m.idxMask
	for m.idx[p] != 0 {
		p = (p + 1) & m.idxMask
	}
	m.idx[p] = int32(e + 1)
}

// idxDelete removes key from the index with backward-shift deletion, so
// linear probe chains stay unbroken without tombstones.
func (m *Memento) idxDelete(key uint64) {
	p := hashx.Mix64(key) & m.idxMask
	for {
		v := m.idx[p]
		if v == 0 {
			return
		}
		if m.keys[v-1] == key {
			break
		}
		p = (p + 1) & m.idxMask
	}
	hole := p
	q := (p + 1) & m.idxMask
	for {
		v := m.idx[q]
		if v == 0 {
			break
		}
		home := hashx.Mix64(m.keys[v-1]) & m.idxMask
		// The entry at q may fill the hole only if its home slot does not
		// lie cyclically strictly between the hole and q — otherwise it
		// would become unreachable from its own probe chain.
		if (q-home)&m.idxMask >= (q-hole)&m.idxMask {
			m.idx[hole] = v
			hole = q
		}
		q = (q + 1) & m.idxMask
	}
	m.idx[hole] = 0
}

// rebuildIndex rewrites the whole index from the dense arrays; used after
// compaction renumbers entries.
func (m *Memento) rebuildIndex() {
	clear(m.idx)
	for e := 0; e < m.n; e++ {
		m.idxInsert(m.keys[e], e)
	}
}

// advance ages the table so that the frame containing now is current.
func (m *Memento) advance(now int64) {
	m.advanceTo(trace.FloorDiv(now, m.frameNs))
}

// advanceTo ages the table up to global frame target. A jump of at least
// the ring length (or the very first advance) expires everything in one
// wholesale reset; otherwise each elapsed frame boundary subtracts the
// expiring frame's cells from every entry and compacts out entries whose
// windowed count reaches zero — the amortized aging that replaces WCSS's
// per-frame summary rotation.
func (m *Memento) advanceTo(target int64) {
	if target <= m.curFrame {
		return
	}
	// Sentinel check before the subtraction: target-frameUninit overflows.
	if m.curFrame == frameUninit || target-m.curFrame >= m.ring {
		m.n = 0
		m.cursor = 0
		clear(m.idx)
		for i := range m.totals {
			m.totals[i] = 0
		}
		m.curFrame = target
		return
	}
	for m.curFrame < target {
		m.curFrame++
		m.expireSlot(floorMod(m.curFrame, m.ring))
	}
}

// expireSlot subtracts frame cell slot from every entry, clamps the error
// slop to the remaining count, and drops entries that reach zero.
func (m *Memento) expireSlot(slot int64) {
	removed := false
	for e := 0; e < m.n; e++ {
		off := int64(e)*m.ring + slot
		if c := m.cells[off]; c != 0 {
			m.cells[off] = 0
			m.counts[e] -= c
			if m.counts[e] <= 0 {
				removed = true
			} else if m.errs[e] > m.counts[e] {
				m.errs[e] = m.counts[e]
			}
		}
	}
	if removed {
		m.compact()
	}
	m.totals[slot] = 0
}

// compact squeezes zero-count entries out of the dense arrays and rebuilds
// the index over the surviving entries.
func (m *Memento) compact() {
	w := 0
	for e := 0; e < m.n; e++ {
		if m.counts[e] <= 0 {
			continue
		}
		if w != e {
			m.keys[w] = m.keys[e]
			m.counts[w] = m.counts[e]
			m.errs[w] = m.errs[e]
			copy(m.cells[int64(w)*m.ring:(int64(w)+1)*m.ring],
				m.cells[int64(e)*m.ring:(int64(e)+1)*m.ring])
		}
		w++
	}
	m.n = w
	if m.cursor >= m.n {
		m.cursor = 0
	}
	m.rebuildIndex()
}

// alloc returns an entry for key, which must not be present: a fresh slot
// while there is room, otherwise the probed-minimum victim with its count
// inherited as the new key's error (the Space-Saving rule, with the
// victim's frame cells kept so the inherited mass retains its time
// attribution).
func (m *Memento) alloc(key uint64) int {
	if m.n < len(m.keys) {
		e := m.n
		m.n++
		m.keys[e] = key
		m.counts[e] = 0
		m.errs[e] = 0
		row := m.cells[int64(e)*m.ring : (int64(e)+1)*m.ring]
		for i := range row {
			row[i] = 0
		}
		m.idxInsert(key, e)
		return e
	}
	victim := m.probeMin()
	m.idxDelete(m.keys[victim])
	m.keys[victim] = key
	m.errs[victim] = m.counts[victim]
	m.idxInsert(key, victim)
	return victim
}

// probeMin picks the eviction victim: the minimum-count entry among probe
// consecutive entries starting at the rotating cursor (ties to the lowest
// index). Deterministic by construction — merges and the K=1 sharded
// identity depend on reproducible evictions.
func (m *Memento) probeMin() int {
	e := m.cursor
	if e >= m.n {
		e = 0
	}
	victim, min := e, m.counts[e]
	for i := 1; i < m.probe; i++ {
		e++
		if e >= m.n {
			e = 0
		}
		if m.counts[e] < min {
			victim, min = e, m.counts[e]
		}
	}
	m.cursor++
	if m.cursor >= m.n {
		m.cursor = 0
	}
	return victim
}

// bump adds weight w for key into frame cell slot; the caller has already
// advanced the table so slot is the current frame's.
func (m *Memento) bump(key uint64, w int64, slot int64) {
	e := m.find(key)
	if e < 0 {
		e = m.alloc(key)
	}
	m.counts[e] += w
	m.cells[int64(e)*m.ring+slot] += w
}

// Update records weight w for key at time now (ns).
func (m *Memento) Update(key uint64, w int64, now int64) {
	m.advance(now)
	slot := floorMod(m.curFrame, m.ring)
	m.totals[slot] += w
	m.bump(key, w, slot)
}

// Estimate returns the upper-bound estimate of key's weight over the
// covered window at time now — one table lookup, against the WCSS
// engine's k+1 per-frame lookups.
func (m *Memento) Estimate(key uint64, now int64) int64 {
	m.advance(now)
	if e := m.find(key); e >= 0 {
		return m.counts[e]
	}
	return 0
}

// Advance ages the table up to time now without recording anything. The
// sharded pipeline advances all shard summaries to the query timestamp
// before merging so their frame clocks align.
func (m *Memento) Advance(now int64) {
	m.advance(now)
}

// WindowTotal returns the exact total weight currently covered.
func (m *Memento) WindowTotal(now int64) int64 {
	m.advance(now)
	var sum int64
	for _, t := range m.totals {
		sum += t
	}
	return sum
}

// HeavyKeys returns the keys whose windowed estimate reaches the fraction
// phi of the covered total at time now. One pass over the live entries —
// no per-frame candidate collection or dedup.
func (m *Memento) HeavyKeys(phi float64, now int64) []sketch.KV {
	m.advance(now)
	var total int64
	for _, t := range m.totals {
		total += t
	}
	if total == 0 {
		return nil
	}
	threshold := hhh.Threshold(total, phi)
	var out []sketch.KV
	for e := 0; e < m.n; e++ {
		if m.counts[e] >= threshold {
			out = append(out, sketch.KV{Key: m.keys[e], Count: m.counts[e]})
		}
	}
	return out
}

// Merge folds summary o into m frame by frame; o is not modified. Both
// summaries must come from the same Config. m is first advanced to o's
// frame (expiring what a live summary would have expired); then every
// entry of o has its surviving frame cells added into m's table —
// inserting, or evicting by the deterministic probe rule, as capacity
// demands — and the exact per-frame totals are added for every frame both
// rings still cover. Merging into a never-updated summary reproduces o
// exactly.
func (m *Memento) Merge(o *Memento) {
	if o == nil {
		return
	}
	if m.frameNs != o.frameNs || m.ring != o.ring || len(m.keys) != len(o.keys) {
		panic("swhh: Memento.Merge config mismatch")
	}
	if o.curFrame == frameUninit {
		return // o never advanced: its table is empty
	}
	m.advanceTo(o.curFrame)
	// After advanceTo, m.curFrame >= o.curFrame: the receiver's ring start
	// bounds the overlap, and every frame in [lo, o.curFrame] is inside
	// o's ring as well.
	lo := m.curFrame - m.ring + 1
	for g := lo; g <= o.curFrame; g++ {
		slot := floorMod(g, m.ring)
		m.totals[slot] += o.totals[slot]
	}
	for e := 0; e < o.n; e++ {
		row := o.cells[int64(e)*o.ring : (int64(e)+1)*o.ring]
		var add int64
		for g := lo; g <= o.curFrame; g++ {
			add += row[floorMod(g, m.ring)]
		}
		if add <= 0 {
			continue // entry's mass is entirely in frames m already expired
		}
		t := m.find(o.keys[e])
		if t < 0 {
			t = m.alloc(o.keys[e])
		}
		m.counts[t] += add
		m.errs[t] += o.errs[e]
		for g := lo; g <= o.curFrame; g++ {
			slot := floorMod(g, m.ring)
			m.cells[int64(t)*m.ring+slot] += row[slot]
		}
	}
}

// Reset clears the table and totals but preserves the frame clock, for
// the same reason Sliding.Reset does: Merge addresses frames by global
// index, and the sharded barrier's accumulator is reset before every
// merge round.
func (m *Memento) Reset() {
	m.n = 0
	m.cursor = 0
	clear(m.idx)
	for i := range m.totals {
		m.totals[i] = 0
	}
}

// SizeBytes reports the summary footprint: the dense entry arrays, the
// frame-cell matrix, the totals ring, and the key index.
func (m *Memento) SizeBytes() int {
	return 8*(len(m.keys)+len(m.counts)+len(m.errs)+len(m.cells)+len(m.totals)) +
		4*len(m.idx)
}

// MementoHHH lifts the flat Memento to hierarchical heavy hitters with
// RHHH-style level sampling (the H-Memento composition): each packet
// draws one hierarchy level from a deterministic splitmix64 sequence and
// updates only that level's table, so ingest touches O(1) counters
// regardless of hierarchy depth. Query scales per-level counts by the
// level count, the unbiased estimator RHHH uses. Stream accounting stays
// exact: the wrapper keeps its own per-frame totals ring counting every
// matching packet, so WindowTotal and the covered span carry no sampling
// noise — only per-key estimates do. Not safe for concurrent use.
type MementoHHH struct {
	h      addr.Hierarchy
	levels []*Memento
	masks  []uint64 // per-level key masks, hoisted out of the hot path
	nlev   uint64
	rng    uint64 // splitmix64 level-sampling state

	// Exact stream accounting, independent of level sampling: same frame
	// geometry as the per-level tables, every matching packet counted.
	frameNs  int64
	ring     int64
	totals   []int64
	curFrame int64

	qs *hhh.QueryScratch
}

// NewMementoHHH builds a level-sampled Memento HHH detector. The seed
// fixes the level-sampling sequence; the sharded pipeline derives a
// distinct seed per shard so shards sample independently, and a fixed
// seed makes runs bit-reproducible.
func NewMementoHHH(h addr.Hierarchy, cfg Config, seed uint64) (*MementoHHH, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := &MementoHHH{
		h:      h,
		levels: make([]*Memento, h.Levels()),
		masks:  make([]uint64, h.Levels()),
		nlev:   uint64(h.Levels()),
		rng:    hashx.Mix64(seed ^ 0x5851f42d4c957f2d),
	}
	for l := range d.levels {
		m, err := NewMemento(cfg)
		if err != nil {
			return nil, err
		}
		d.levels[l] = m
		d.masks[l] = h.KeyMask(l)
	}
	d.frameNs = d.levels[0].frameNs
	d.ring = d.levels[0].ring
	d.totals = make([]int64, d.ring)
	d.curFrame = frameUninit
	d.qs = hhh.NewQueryScratch()
	return d, nil
}

// advanceTotals ages the wrapper's exact totals ring to global frame
// target — the same clock discipline as Memento.advanceTo.
func (d *MementoHHH) advanceTotals(target int64) {
	if target <= d.curFrame {
		return
	}
	if d.curFrame == frameUninit || target-d.curFrame >= d.ring {
		for i := range d.totals {
			d.totals[i] = 0
		}
		d.curFrame = target
		return
	}
	for d.curFrame < target {
		d.curFrame++
		d.totals[floorMod(d.curFrame, d.ring)] = 0
	}
}

// UpdateKeys feeds a columnar batch of pre-packed, time-ordered leaf
// keys. Packets are chunked by frame so each chunk ages every table once,
// then per-packet level draws route each key — masked down to the drawn
// level — into that level's current frame cell. The splitmix64 state
// advances once per packet in stream order and every table ages at every
// frame change, so the state under a seed does not depend on how the
// stream was cut into batches. It is the detector's only way in; the
// batch is packed and filtered to the hierarchy's address family where
// packets are staged (see trace.KeyBatch).
func (d *MementoHHH) UpdateKeys(b *trace.KeyBatch) {
	n := b.Len()
	rng := d.rng
	for i := 0; i < n; {
		fi := trace.FloorDiv(b.Ts[i], d.frameNs)
		j := i + 1
		for j < n && trace.FloorDiv(b.Ts[j], d.frameNs) == fi {
			j++
		}
		d.advanceTotals(fi)
		slot := floorMod(d.curFrame, d.ring)
		for _, lv := range d.levels {
			lv.advanceTo(d.curFrame)
		}
		var bytes int64
		for c := i; c < j; c++ {
			w := int64(b.Sizes[c])
			bytes += w
			rng += 0x9e3779b97f4a7c15
			l := int((hashx.Mix64(rng) >> 32) * d.nlev >> 32)
			d.levels[l].bump(b.Keys[c]&d.masks[l], w, slot)
		}
		d.totals[slot] += bytes
		i = j
	}
	d.rng = rng
}

// Query returns the HHH set at fraction phi of the exact covered window
// total, scaling each level's sampled counts by the level count and
// running the shared bottom-up conditioned pass. Each level contributes
// its live entries directly — one table, no per-frame candidate rescan or
// dedup.
func (d *MementoHHH) Query(phi float64, now int64) hhh.Set {
	d.advanceTotals(trace.FloorDiv(now, d.frameNs))
	for _, lv := range d.levels {
		lv.advanceTo(d.curFrame)
	}
	var total int64
	for _, t := range d.totals {
		total += t
	}
	threshold := hhh.Threshold(total, phi)
	scale := int64(d.nlev)
	return hhh.ConditionedLevels(d.h, threshold, d.qs,
		func(l int, emit func(key uint64, est int64)) {
			lv := d.levels[l]
			for e := 0; e < lv.n; e++ {
				emit(lv.keys[e], lv.counts[e]*scale)
			}
		})
}

// Advance ages every level and the totals ring up to time now without
// recording anything. The sharded pipeline advances all shards to the
// query timestamp before merging so their frame clocks align.
func (d *MementoHHH) Advance(now int64) {
	d.advanceTotals(trace.FloorDiv(now, d.frameNs))
	for _, lv := range d.levels {
		lv.advanceTo(d.curFrame)
	}
}

// WindowTotal returns the exact total byte weight currently covered.
func (d *MementoHHH) WindowTotal(now int64) int64 {
	d.advanceTotals(trace.FloorDiv(now, d.frameNs))
	var sum int64
	for _, t := range d.totals {
		sum += t
	}
	return sum
}

// Merge folds detector o into d level by level (see Memento.Merge for the
// frame alignment) and adds o's exact totals for every frame both rings
// cover. o is not modified; both detectors must share hierarchy and
// Config. The receiver keeps its own level-sampling state — merged
// summaries are read, not updated, in the sharded barrier.
func (d *MementoHHH) Merge(o *MementoHHH) {
	if d.h != o.h || d.frameNs != o.frameNs || d.ring != o.ring {
		panic("swhh: MementoHHH.Merge config mismatch")
	}
	for l := range d.levels {
		d.levels[l].Merge(o.levels[l])
	}
	if o.curFrame == frameUninit {
		return
	}
	d.advanceTotals(o.curFrame)
	for g := d.curFrame - d.ring + 1; g <= o.curFrame; g++ {
		slot := floorMod(g, d.ring)
		d.totals[slot] += o.totals[slot]
	}
}

// Reset clears every level's table and the totals ring, preserving the
// frame clocks (see Memento.Reset) and the level-sampling state (the
// sequence keeps rolling, as RHHH's does, so consecutive windows stay
// decorrelated).
func (d *MementoHHH) Reset() {
	for _, lv := range d.levels {
		lv.Reset()
	}
	for i := range d.totals {
		d.totals[i] = 0
	}
}

// SizeBytes sums the per-level footprints and the exact totals ring.
func (d *MementoHHH) SizeBytes() int {
	n := 8 * len(d.totals)
	for _, lv := range d.levels {
		n += lv.SizeBytes()
	}
	return n
}
