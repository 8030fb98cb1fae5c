// Package swhh implements sliding-window heavy-hitter detection after
// Ben-Basat, Einziger, Friedman and Kassner, "Heavy Hitters in Streams and
// Sliding Windows" (INFOCOM 2016) — the paper's reference [1] and the work
// it cites as recognising the need to move beyond disjoint windows.
//
// The detector follows the frame structure of WCSS (Window Compact Space
// Saving): the window is split into k frames, each summarised by a
// Space-Saving instance; the newest frame absorbs updates and the oldest
// expires wholesale, so the summaries always cover between W and W(1+1/k)
// of history. Where the original defines frames over a count-based window
// of N items, this implementation defines them over time — the window
// model the poster's experiments use — keeping the identical summary
// mechanics; this doc comment is the authoritative note on the
// deviation.
//
// A per-level wrapper (SlidingHHH) lifts the flat detector to hierarchical
// heavy hitters, giving a streaming counterpart to the exact sliding-window
// analysis.
//
// # What a frame is a summary of
//
// SlidingHHH does not pay one Space-Saving update per packet and level:
// UpdateKeys sums packets per leaf key in the coalescing block it shares
// with the per-level windowed engine (hhh.Block), holding packets of one
// frame, and a frame of level l is a Space-Saving summary of its packets
// with each block applied as one weighted update per distinct level-l
// prefix, in order of first appearance — the guarantees are those of any
// update sequence with the same per-key sums. The block is applied
// (settled) when it is full, when a packet of a later frame arrives, and
// wherever the state is read or handed on: Advance, QueryMass,
// WindowTotal, both sides of a merge, LevelSummary (hence the wire
// encoder); Reset discards it. State is therefore a function of the stream
// and its read points, never of how the stream was cut into batches. (The
// per-item face of a flat Sliding — Update, Estimate, HeavyKeys — is the
// tests' reference, in flat_test.go.)
//
// # Merge semantics
//
// Sliding summaries are mergeable: the per-frame Space-Saving summaries
// are mergeable (Agarwal et al., "Mergeable Summaries"), and the frame
// ring is addressed by *global* frame index, so summaries built from the
// same Config can be combined frame by frame. A merge first advances the
// receiver to the furthest source's frame (expiring what a live summary
// would have expired), then hands each ring slot the same slot of every
// source that has reached its frame in one K-way Space-Saving merge
// (sketch.SpaceSaving.MergeAll: one truncation over the round, whatever
// the order of the sources) and adds the totals, saturating. The merged
// per-frame error bound is the sum of the inputs' bounds; for
// hash-partitioned substreams of one stream (the sharded pipeline) the
// per-shard terms telescope back to the single-summary bound per frame.
// Summaries being merged should be advanced to a common timestamp first —
// the sharded pipeline aligns every shard at the query barrier — so that
// no side's recent frames fall outside the other's ring. A merged frame
// stands in count order, where a query can stop early (Sliding.heavy).
package swhh

import (
	"fmt"
	"math"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/trace"
)

// frameUninit marks a frame clock that has never advanced. A fresh summary
// has no frame position yet — its first advance jumps the clock straight
// to the target frame (the ring is empty, so there is nothing to expire).
// Using a sentinel instead of 0 makes pre-epoch (negative) timestamps
// work: with curFrame starting at 0, a first packet in a negative frame
// would appear to be in the past and land in frame 0.
const frameUninit = math.MinInt64

// floorMod is the non-negative ring slot of global frame g in a ring of
// b slots (b > 0). Go's % takes the dividend's sign, so negative global
// frame indices need the wrap-around.
func floorMod(a, b int64) int64 {
	r := a % b
	if r < 0 {
		r += b
	}
	return r
}

// Config configures a sliding heavy-hitter summary.
type Config struct {
	// Window is the time span queries should cover.
	Window time.Duration
	// Frames is k, the number of sub-window summaries. More frames mean
	// finer expiry granularity (coverage overshoot W/k) at k× the space.
	// Default 8.
	Frames int
	// Counters is the Space-Saving capacity per frame. Default 256.
	Counters int
}

func (c *Config) setDefaults() {
	if c.Frames <= 0 {
		c.Frames = 8
	}
	if c.Counters <= 0 {
		c.Counters = 256
	}
}

func (c *Config) validate() error {
	if c.Window <= 0 {
		return fmt.Errorf("swhh: window %v must be positive", c.Window)
	}
	return nil
}

// CoveredSince returns the inclusive start of the span a summary built
// from c covers at query time now: the ring holds the Frames most recent
// full frames plus the one filling, so coverage reaches back to the start
// of frame floor(now/frameNs)-Frames. The result can precede the first
// observed packet (coverage is a property of the ring geometry, not of
// the traffic).
func (c Config) CoveredSince(now int64) int64 {
	c.setDefaults()
	frameNs := int64(c.Window) / int64(c.Frames)
	if frameNs < 1 {
		frameNs = 1
	}
	return (trace.FloorDiv(now, frameNs) - int64(c.Frames)) * frameNs
}

// Sliding is a time-framed WCSS-style sliding-window heavy-hitter summary.
// Not safe for concurrent use. Timestamps must be non-decreasing.
//
// Every ring slot carries a write version, bumped wherever the slot is
// written or cleared. A slot of the ring that is no longer filling is
// sealed — nothing writes it until it expires — so its version stands
// still, and everything derived from it can be kept for as long as the
// version has not moved: the slot's floor (what it estimates for a key it
// does not track), and, in an accumulator, the slot folded from the same
// slots of the same sources (see fold).
type Sliding struct {
	cfg      Config
	frameNs  int64
	frames   []*sketch.SpaceSaving // ring: k full frames + 1 filling
	totals   []int64
	curFrame int64    // global index of the frame currently filling
	vers     []uint64 // per-slot write version
	// floor[i] is frames[i].Floor() as of version floorVer[i]; an estimate
	// over a sealed frame therefore never scans or rebuilds it.
	floor    []int64
	floorVer []uint64
	memo     []slotMemo // fold's record per slot; nil until the first fold
	restored []uint64   // per-slot version RestoreSlot left; nil until the first
	sealed   []uint64   // per-slot version MarkSealed saw; nil until the first
}

// NewSliding builds a summary from cfg.
func NewSliding(cfg Config) (*Sliding, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	frameNs := int64(cfg.Window) / int64(cfg.Frames)
	if frameNs < 1 {
		// Window < Frames nanoseconds: floor the frame length at 1 ns
		// rather than dividing by zero in advance. Every frame then covers
		// a single nanosecond, the finest granularity timestamps carry.
		frameNs = 1
	}
	ring := cfg.Frames + 1
	s := &Sliding{
		cfg:      cfg,
		frameNs:  frameNs,
		frames:   make([]*sketch.SpaceSaving, ring),
		totals:   make([]int64, ring),
		curFrame: frameUninit,
		vers:     make([]uint64, ring),
		floor:    make([]int64, ring),
		floorVer: make([]uint64, ring),
	}
	for i := range s.frames {
		s.frames[i] = sketch.NewSpaceSaving(cfg.Counters)
	}
	return s, nil
}

// slotOf is the ring slot of global frame g.
func (s *Sliding) slotOf(g int64) int { return int(floorMod(g, int64(len(s.frames)))) }

// clearSlot empties one ring slot.
func (s *Sliding) clearSlot(i int) {
	s.frames[i].Reset()
	s.totals[i] = 0
	s.vers[i]++
}

// advance rotates frames so that the frame containing now is current.
func (s *Sliding) advance(now int64) {
	s.advanceTo(trace.FloorDiv(now, s.frameNs))
}

// advanceTo rotates frames up to the global frame index target. A jump of
// at least the ring length expires every frame, so it is taken in one
// wholesale reset instead of one iteration per elapsed frame — the
// per-frame loop would spin ~10^10 iterations on the first packet of an
// epoch-nanosecond trace (curFrame starts at 0), or once per elapsed
// frame across any idle gap.
func (s *Sliding) advanceTo(target int64) {
	if target <= s.curFrame {
		return
	}
	// The sentinel check must come before the subtraction: target minus
	// math.MinInt64 overflows for any non-negative target.
	if s.curFrame == frameUninit || target-s.curFrame >= int64(len(s.frames)) {
		s.Reset()
		s.curFrame = target
		return
	}
	for s.curFrame < target {
		s.curFrame++
		s.clearSlot(s.slotOf(s.curFrame)) // expire the oldest frame wholesale
	}
}

// settleFloors brings every slot's floor up to its version.
func (s *Sliding) settleFloors() {
	for i, f := range s.frames {
		if s.floorVer[i] != s.vers[i] {
			s.floor[i], s.floorVer[i] = f.Floor(), s.vers[i]
		}
	}
}

// mustMatch panics unless o shares s's frame geometry.
func (s *Sliding) mustMatch(o *Sliding) {
	if s.frameNs != o.frameNs || len(s.frames) != len(o.frames) {
		panic("swhh: Sliding.Merge config mismatch")
	}
}

// mergeAll folds the summaries srcs, of s's Config, into s frame by frame
// without modifying them. s is first advanced to the furthest source's
// current frame, expiring whatever a live summary would have expired; then
// every slot of its ring takes its sources (mergeSlot). Frames only a
// source's ring still covers are already expired from s's perspective and
// are dropped, as live updates would have dropped them.
func (s *Sliding) mergeAll(srcs []*Sliding, sc *sketch.MergeScratch) {
	clock := s.curFrame
	for _, o := range srcs {
		s.mustMatch(o)
		clock = max(clock, o.curFrame)
	}
	if clock == frameUninit {
		return // nothing has advanced: every ring is empty
	}
	s.advanceTo(clock)
	for i := range s.frames {
		s.mergeSlot(i, s.frameAt(i), srcs, sc)
	}
}

// frameAt is the global frame ring slot i holds on s's clock, which must
// have advanced.
func (s *Sliding) frameAt(i int) int64 {
	return s.curFrame - floorMod(s.curFrame-int64(i), int64(len(s.frames)))
}

// mergeSlot hands slot i of s, holding global frame frame, the same slot
// of every source whose ring has reached that frame — never further back
// than s's own, so it is the same frame in all of them — in one K-way
// merge, and adds their totals, saturating.
func (s *Sliding) mergeSlot(i int, frame int64, srcs []*Sliding, sc *sketch.MergeScratch) {
	var buf [8]*sketch.SpaceSaving // the usual round fits; a wider one spills to the heap
	from := buf[:0]
	for _, o := range srcs {
		if o.reaches(frame) {
			from = append(from, o.frames[i])
			s.totals[i] = sketch.AddSat(s.totals[i], o.totals[i])
		}
	}
	if len(from) > 0 {
		s.frames[i].MergeAll(from, sc)
		s.vers[i]++
	}
}

// slotMemo is what an accumulator remembers of one slot's last fold: the
// global frame the slot held, the accumulator's own version of the slot
// once folded (anything else that writes the slot moves it on), and the
// source slots it was folded from.
type slotMemo struct {
	frame int64
	self  uint64
	from  []slotStamp
}

// slotStamp identifies the content of one source slot: a version never
// repeats within a summary, and a replaced summary is a different one.
type slotStamp struct {
	src *Sliding
	ver uint64
}

// reaches reports whether s's ring has got as far as global frame g; a
// never-advanced summary has reached none.
func (s *Sliding) reaches(g int64) bool {
	return s.curFrame != frameUninit && s.curFrame >= g
}

// fold makes s the merge of srcs, exactly as Reset followed by mergeAll
// would — same clock, same frames entry for entry, same totals — but pays
// only for the slots whose inputs changed since the previous fold: a slot
// that would be folded again for the same global frame from the same
// sources at the same versions is kept as it stands. Any other slot is
// cleared and takes its sources afresh (mergeSlot). A source that was
// absent last time, is absent now, was replaced, reset, advanced past a
// frame or written to therefore invalidates precisely the slots it
// touches. It returns how many slots were folded and how many were kept.
func (s *Sliding) fold(srcs []*Sliding, sc *sketch.MergeScratch) (folded, kept int) {
	// The clock Reset-then-mergeAll ends on: Reset keeps the receiver's,
	// and the merge advances it to the furthest source's if that is ahead.
	for _, o := range srcs {
		s.mustMatch(o)
		s.curFrame = max(s.curFrame, o.curFrame)
	}
	ring := len(s.frames)
	if s.memo == nil {
		s.memo = make([]slotMemo, ring)
		for i := range s.memo {
			s.memo[i].self = s.vers[i] - 1 // matches nothing yet
		}
	}
	for i := 0; i < ring; i++ {
		// The global frame slot i holds on this clock; sources whose ring
		// has reached it contribute (with no clock at all every slot is
		// empty).
		frame := int64(frameUninit)
		if s.curFrame != frameUninit {
			frame = s.frameAt(i)
		}
		m := &s.memo[i]
		same := m.frame == frame && m.self == s.vers[i]
		n := 0
		for _, o := range srcs {
			if o.reaches(frame) {
				same = same && n < len(m.from) && m.from[n] == slotStamp{o, o.vers[i]}
				n++
			}
		}
		if same && n == len(m.from) {
			kept++
			continue
		}
		s.clearSlot(i)
		m.from = m.from[:0]
		for _, o := range srcs {
			if o.reaches(frame) {
				m.from = append(m.from, slotStamp{o, o.vers[i]})
			}
		}
		s.mergeSlot(i, frame, srcs, sc)
		m.frame, m.self = frame, s.vers[i]
		folded++
	}
	return folded, kept
}

// total sums the frame totals; the caller has advanced s.
func (s *Sliding) total() int64 {
	var sum int64
	for _, t := range s.totals {
		sum = sketch.AddSat(sum, t)
	}
	return sum
}

// heavy calls fn once for every key whose estimate, summed over the
// ring, reaches T >= 1; the caller has advanced s. It is the candidate
// enumeration behind SlidingHHH.Query.
//
// Only keys that can reach T are estimated. A sum of ring per-frame
// estimates that reaches T has a term of at least cut = ceil(T/ring), and
// a frame's estimate for a key is either the key's tracked count or the
// frame's floor. So unless some frame's floor alone reaches cut — then
// every tracked key stays a candidate — the candidates are the keys
// tracked with count >= cut in some frame: tens, where the ring tracks
// thousands. A key that qualifies in several frames is reported from the
// first of them. A frame in count order (sketch.SpaceSaving.Ordered: every
// frame of an accumulator or restored from one's seal) is left at the
// first count below the cut; any other is read in full.
func (s *Sliding) heavy(T int64, fn func(key uint64, est int64)) {
	s.settleFloors()
	ring := int64(len(s.frames))
	cut := (T + ring - 1) / ring
	for _, fl := range s.floor {
		if fl >= cut {
			cut = 0
			break
		}
	}
	for i, f := range s.frames {
		ordered := f.Ordered()
	entries:
		for e, n := 0, f.Len(); e < n; e++ {
			kv := f.Entry(e)
			if kv.Count < cut {
				if ordered {
					break
				}
				continue
			}
			est := kv.Count
			for j, g := range s.frames {
				if j == i {
					continue
				}
				c, ok := g.Lookup(kv.Key)
				switch {
				case !ok:
					c = s.floor[j]
				case j < i && c >= cut:
					continue entries // reported from frame j
				}
				est += c
			}
			if est >= T {
				fn(kv.Key, est)
			}
		}
	}
}

// SizeBytes reports the summary footprint: the exact per-frame sizes,
// the per-slot stamps and, in an accumulator, the fold memo.
func (s *Sliding) SizeBytes() int {
	n := len(s.vers)*8 + len(s.floor)*8 + len(s.floorVer)*8
	for _, f := range s.frames {
		n += f.SizeBytes()
	}
	for i := range s.memo {
		n += 40 + cap(s.memo[i].from)*16
	}
	return n + len(s.restored)*8 + len(s.sealed)*8
}

// Reset clears all frames and totals but preserves the frame clock.
// Merge addresses frames by global index, so a reset summary that is
// merged with a live peer (the cold form of the barrier's fold does
// exactly this) must keep addressing the same global frames; rewinding to
// frame 0 would only work by accident of the wholesale-reset jump in
// advanceTo. A never-advanced summary stays unadvanced.
func (s *Sliding) Reset() {
	for i := range s.frames {
		s.clearSlot(i)
	}
}

// SlidingHHH runs one Sliding summary per hierarchy level, yielding
// streaming sliding-window hierarchical heavy hitters with the usual
// conditioned-query semantics. Packets reach the frames through the
// coalescing block (see the package comment and UpdateKeys).
type SlidingHHH struct {
	h      addr.Hierarchy
	levels []*Sliding
	masks  []uint64 // per-level key masks, hoisted out of the hot path
	// qs is the conditioned pass's discount tables, cleared in place per
	// query.
	qs *hhh.QueryScratch
	// The coalescing stage: blk holds packets of the levels' current frame
	// that are not in the tables yet (nil until the first UpdateKeys); a
	// timestamp below hi belongs to that frame or lands there all the same.
	// cur is settle's list of the levels' current frames, updates its tally.
	blk     *hhh.Block
	hi      int64
	cur     []*sketch.SpaceSaving
	updates int64
	// Merge state, held only by a detector that merges (an accumulator):
	// the one scratch all its frames share, the per-level source list, and
	// the running slot tallies of its folds.
	merge        sketch.MergeScratch
	from         []*Sliding
	folded, kept int64
}

// NewSlidingHHH builds a per-level sliding HHH detector.
func NewSlidingHHH(h addr.Hierarchy, cfg Config) (*SlidingHHH, error) {
	d := &SlidingHHH{
		h:      h,
		levels: make([]*Sliding, h.Levels()),
		masks:  make([]uint64, h.Levels()),
		qs:     hhh.NewQueryScratch(),
		hi:     math.MinInt64,
		cur:    make([]*sketch.SpaceSaving, h.Levels()),
	}
	for l := range d.levels {
		s, err := NewSliding(cfg)
		if err != nil {
			return nil, err
		}
		d.levels[l] = s
		d.masks[l] = h.KeyMask(l)
	}
	return d, nil
}

// UpdateKeys feeds a columnar batch of pre-packed, time-ordered leaf
// keys. Each packet costs one insert into the coalescing block, which is
// applied when a key arrives that it has no room for, when a packet of a
// later frame arrives (the frame a timestamp belongs to is worked out once
// per frame change, not per packet) and wherever the state is read, so how
// the stream is cut into batches leaves no trace in the state. A timestamp
// behind the current frame lands in the current frame. It is the
// detector's only way in; the batch is packed and filtered to the
// hierarchy's address family where packets are staged (trace.KeyBatch).
func (d *SlidingHHH) UpdateKeys(b *trace.KeyBatch) {
	if d.blk == nil {
		d.blk = new(hhh.Block)
	}
	blk, leaf := d.blk, d.masks[0]
	sizes, ts := b.Sizes[:len(b.Keys)], b.Ts[:len(b.Keys)]
	for i, k := range b.Keys {
		if ts[i] >= d.hi {
			d.enter(ts[i])
		}
		w := int64(sizes[i])
		if k &= leaf; !blk.Add(k, w) {
			d.enter(ts[i]) // applies the full block
			blk.Add(k, w)
		}
	}
}

// enter applies the pending block — packets of the frame being left —
// makes ts's frame current on every level behind it, and sets hi to where
// the current frame of the level furthest behind ends (past MaxInt64:
// never, bar a packet stamped MaxInt64 itself, which enters every time).
func (d *SlidingHHH) enter(ts int64) {
	d.settle()
	frameNs := d.levels[0].frameNs
	cur := int64(math.MaxInt64)
	for _, lv := range d.levels {
		lv.advanceTo(trace.FloorDiv(ts, frameNs))
		cur = min(cur, lv.curFrame)
	}
	d.hi = math.MaxInt64
	if cur < math.MaxInt64/frameNs {
		d.hi = (cur + 1) * frameNs
	}
}

// settle applies the pending block: leaf to root into each level's current
// frame, one Space-Saving update per distinct prefix (hhh.Block.Settle),
// one totals add and one version bump per level. Every read of the frames
// does it first. Whatever follows may move the frame clocks, so hi is
// forgotten and the next packet works it out again.
func (d *SlidingHHH) settle() {
	d.hi = math.MinInt64
	if d.blk == nil || d.blk.Len() == 0 {
		return
	}
	for l, lv := range d.levels {
		d.cur[l] = lv.frames[lv.slotOf(lv.curFrame)]
	}
	n, bytes := d.blk.Settle(d.masks, d.cur)
	d.updates += int64(n)
	for _, lv := range d.levels {
		slot := lv.slotOf(lv.curFrame)
		lv.totals[slot] += bytes
		lv.vers[slot]++
	}
}

// TableUpdates returns how many Space-Saving updates the detector's
// settles have applied since it was built.
func (d *SlidingHHH) TableUpdates() int64 { return d.updates }

// Query returns the HHH set at fraction phi of the covered window total
// (see QueryMass).
func (d *SlidingHHH) Query(phi float64, now int64) hhh.Set {
	set, _ := d.QueryMass(phi, now)
	return set
}

// QueryMass returns the HHH set at fraction phi of the covered window
// total, and that total, using the shared bottom-up conditioned pass over
// the per-level heavy keys. A candidate below the threshold has no effect
// on the pass other than handing its discount on to the parent level,
// which the pass does for every key it is not shown, so each level emits
// only the keys that reach the threshold (see Sliding.heavy). The
// discount tables are reused across queries, so the pass allocates only
// the returned Set.
func (d *SlidingHHH) QueryMass(phi float64, now int64) (hhh.Set, int64) {
	d.Advance(now)
	total := d.levels[0].total()
	threshold := hhh.Threshold(total, phi)
	return hhh.ConditionedLevels(d.h, threshold, d.qs,
		func(l int, emit func(key uint64, est int64)) {
			d.levels[l].heavy(threshold, emit)
		}), total
}

// Advance applies the pending block and expires frames up to time now on
// every level. The sharded pipeline advances all shards to the query
// timestamp before merging.
func (d *SlidingHHH) Advance(now int64) {
	d.settle()
	for _, lv := range d.levels {
		lv.advance(now)
	}
}

// WindowTotal returns the total byte weight currently covered (level 0
// sees every packet once, so any level's total is the stream's).
func (d *SlidingHHH) WindowTotal(now int64) int64 {
	d.settle()
	d.levels[0].advance(now)
	return d.levels[0].total()
}

// mustMatch panics unless o shares d's hierarchy.
func (d *SlidingHHH) mustMatch(o *SlidingHHH) {
	if d.h != o.h || len(d.levels) != len(o.levels) {
		panic("swhh: SlidingHHH.Merge hierarchy mismatch")
	}
}

// Merge folds detector o into d: MergeAll of the one source.
func (d *SlidingHHH) Merge(o *SlidingHHH) { d.MergeAll([]*SlidingHHH{o}) }

// MergeAll folds the detectors srcs, of d's hierarchy and Config, into d
// level by level, each ring slot taking the whole round in one K-way merge
// (see Sliding.mergeAll), so the order of srcs is immaterial. Pending
// blocks are applied first; the sources are not otherwise modified.
func (d *SlidingHHH) MergeAll(srcs []*SlidingHHH) {
	d.settle()
	d.mergeRound(srcs, false)
}

// Fold makes d the merge of srcs: the state Reset followed by MergeAll
// leaves, bit for bit, at the cost of the ring slots whose sources changed
// since d's previous Fold (see Sliding.fold). This is how a barrier's
// accumulator takes a round of shard summaries, and an aggregator's a
// round of node summaries: between two snapshots a source writes the slot
// it is filling and perhaps the next, and the rest of its ring stands
// still.
func (d *SlidingHHH) Fold(srcs []*SlidingHHH) {
	d.discard()
	d.mergeRound(srcs, true)
}

// mergeRound is MergeAll and, with memo, Fold: the sources' pending blocks
// are applied, then each level takes the round.
func (d *SlidingHHH) mergeRound(srcs []*SlidingHHH, memo bool) {
	for _, o := range srcs {
		d.mustMatch(o)
		o.settle()
	}
	for l, lv := range d.levels {
		d.from = d.from[:0]
		for _, o := range srcs {
			d.from = append(d.from, o.levels[l])
		}
		if !memo {
			lv.mergeAll(d.from, &d.merge)
			continue
		}
		folded, kept := lv.fold(d.from, &d.merge)
		d.folded += int64(folded)
		d.kept += int64(kept)
	}
}

// FoldTally returns how many ring slots d's Folds have folded afresh and
// how many they have kept, since d was built.
func (d *SlidingHHH) FoldTally() (folded, kept int64) { return d.folded, d.kept }

// discard empties the pending block without applying it; like settle it
// forgets hi.
func (d *SlidingHHH) discard() {
	d.hi = math.MinInt64
	if d.blk != nil {
		d.blk.Clear()
	}
}

// Reset clears every level's frames and discards the pending block.
func (d *SlidingHHH) Reset() {
	d.discard()
	for _, lv := range d.levels {
		lv.Reset()
	}
}

// SizeBytes sums the per-level footprints, the coalescing block once the
// detector has one, and the merge scratch.
func (d *SlidingHHH) SizeBytes() int {
	n := d.merge.SizeBytes() + cap(d.from)*8 + cap(d.cur)*8
	if d.blk != nil {
		n += hhh.BlockBytes
	}
	for _, s := range d.levels {
		n += s.SizeBytes()
	}
	return n
}
