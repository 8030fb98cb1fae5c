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
// # Merge semantics
//
// Sliding summaries are mergeable: the per-frame Space-Saving summaries
// are mergeable (Agarwal et al., "Mergeable Summaries"), and the frame
// ring is addressed by *global* frame index, so two summaries built from
// the same Config can be combined frame by frame. Merge first advances
// the receiver to the other summary's frame (expiring what a live summary
// would have expired), then folds each overlapping frame's summary and
// total. The merged per-frame error bound is the sum of the inputs'
// bounds; for hash-partitioned substreams of one stream (the sharded
// pipeline) the per-shard terms telescope back to the single-summary
// bound per frame. Summaries being merged should be advanced to a common
// timestamp first — the sharded pipeline aligns every shard at the query
// barrier — so that no side's recent frames fall outside the other's
// ring.
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

// FloorDiv is the floored quotient a/b for b > 0. Frame indices must use
// floored division so that pre-epoch (negative) timestamps map to
// monotonically increasing frames and agree with CoveredSince's geometry;
// Go's native division truncates toward zero, which would fold the two
// nanosecond ranges (-frameNs, 0) and [0, frameNs) into one frame.
func FloorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

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
	return (FloorDiv(now, frameNs) - int64(c.Frames)) * frameNs
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
// slots of the same sources (see Fold).
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
	memo     []slotMemo // Fold's record per slot; nil until the first Fold
	restored []uint64   // per-slot version RestoreSlot left; nil until the first
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
	s.advanceTo(FloorDiv(now, s.frameNs))
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

// Update records weight w for key at time now (ns).
func (s *Sliding) Update(key uint64, w int64, now int64) {
	s.advance(now)
	slot := s.slotOf(s.curFrame)
	s.frames[slot].Update(key, w)
	s.totals[slot] += w
	s.vers[slot]++
}

// settleFloors brings every slot's floor up to its version.
func (s *Sliding) settleFloors() {
	for i, f := range s.frames {
		if s.floorVer[i] != s.vers[i] {
			s.floor[i], s.floorVer[i] = f.Floor(), s.vers[i]
		}
	}
}

// Estimate returns the upper-bound estimate of key's weight over the
// covered window at time now: the per-frame estimates summed.
func (s *Sliding) Estimate(key uint64, now int64) int64 {
	s.advance(now)
	s.settleFloors()
	var sum int64
	for i, f := range s.frames {
		c, ok := f.Lookup(key)
		if !ok {
			c = s.floor[i]
		}
		sum += c
	}
	return sum
}

// Advance expires frames up to time now without recording anything: the
// explicit form of the rotation every Update/Estimate performs. The
// sharded pipeline advances all shard summaries to the query timestamp
// before merging so their frame rings align.
func (s *Sliding) Advance(now int64) {
	s.advance(now)
}

// mustMatch panics unless o shares s's frame geometry.
func (s *Sliding) mustMatch(o *Sliding) {
	if s.frameNs != o.frameNs || len(s.frames) != len(o.frames) {
		panic("swhh: Sliding.Merge config mismatch")
	}
}

// Merge folds summary o into s frame by frame; o is not modified. Both
// summaries must come from the same Config (frame length and ring size).
// s is first advanced to o's current frame, expiring whatever a live
// summary would have expired; then every global frame index covered by
// both rings has o's Space-Saving summary merged into s's (bounded-error
// mergeable-summaries combination, see sketch.SpaceSaving.Merge) and its
// total added. Frames only o's ring still covers but s's no longer does
// are already expired from s's perspective and are dropped, exactly as
// live updates would have dropped them.
func (s *Sliding) Merge(o *Sliding) {
	if o == nil {
		return
	}
	s.mustMatch(o)
	if o.curFrame == frameUninit {
		return // o never advanced: its ring is empty
	}
	s.advanceTo(o.curFrame)
	// After advanceTo, s.curFrame >= o.curFrame, so the receiver's ring
	// start bounds the overlap. Frames below it were never written by o
	// (o's ring reaches at most k-1 frames back from o.curFrame), so the
	// loop only ever folds slots both rings cover.
	k := int64(len(s.frames))
	for g := s.curFrame - k + 1; g <= o.curFrame; g++ {
		slot := s.slotOf(g)
		s.frames[slot].Merge(o.frames[slot])
		s.totals[slot] += o.totals[slot]
		s.vers[slot]++
	}
}

// slotMemo is what an accumulator remembers of one slot's last Fold: the
// global frame the slot held, the accumulator's own version of the slot
// once folded (anything else that writes the slot moves it on), and the
// source slots it was folded from, in fold order.
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

// Fold makes s the merge of srcs, exactly as Reset followed by Merge of
// each source in order would — same clock, same frames entry for entry,
// same totals — but pays only for the slots whose inputs changed since
// the previous Fold: a slot that would be folded again for the same
// global frame from the same sources, in the same order, at the same
// versions is kept as it stands. Any other slot is cleared and folded
// afresh with the pairwise Space-Saving merge, in source order (the merge
// truncates, so it is not associative and the order is part of the
// result). A source that was absent last time, is absent now, was
// replaced, reset, advanced past a frame or written to therefore
// invalidates precisely the slots it touches. sc is the merge scratch.
// It returns how many slots were folded and how many were kept.
func (s *Sliding) Fold(srcs []*Sliding, sc *sketch.MergeScratch) (folded, kept int) {
	// The clock Reset-then-Merge ends on: Reset keeps the receiver's, and
	// every Merge advances it to the source's if that is ahead.
	clock := s.curFrame
	for _, o := range srcs {
		s.mustMatch(o)
		clock = max(clock, o.curFrame)
	}
	s.curFrame = clock
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
		if clock != frameUninit {
			frame = clock - floorMod(clock-int64(i), int64(ring))
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
				s.frames[i].MergeWith(o.frames[i], sc)
				s.totals[i] += o.totals[i]
				m.from = append(m.from, slotStamp{o, o.vers[i]})
			}
		}
		m.frame, m.self = frame, s.vers[i]
		folded++
	}
	return folded, kept
}

// total sums the frame totals; the caller has advanced s.
func (s *Sliding) total() int64 {
	var sum int64
	for _, t := range s.totals {
		sum += t
	}
	return sum
}

// WindowTotal returns the total weight currently covered.
func (s *Sliding) WindowTotal(now int64) int64 {
	s.advance(now)
	return s.total()
}

// heavy calls fn once for every key whose estimate, summed over the
// ring, reaches T >= 1; the caller has advanced s. It is the one
// candidate enumeration behind HeavyKeys and SlidingHHH.Query.
//
// Only keys that can reach T are estimated. A sum of ring per-frame
// estimates that reaches T has a term of at least cut = ceil(T/ring), and
// a frame's estimate for a key is either the key's tracked count or the
// frame's floor. So unless some frame's floor alone reaches cut — then
// every tracked key stays a candidate — the candidates are the keys
// tracked with count >= cut in some frame: tens, where the ring tracks
// thousands. A key that qualifies in several frames is reported from the
// first of them.
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
	entries:
		for e, n := 0, f.Len(); e < n; e++ {
			kv := f.Entry(e)
			if kv.Count < cut {
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

// HeavyKeys returns the keys whose windowed estimate reaches the fraction
// phi of the covered total at time now.
func (s *Sliding) HeavyKeys(phi float64, now int64) []sketch.KV {
	total := s.WindowTotal(now)
	if total == 0 {
		return nil
	}
	var out []sketch.KV
	s.heavy(hhh.Threshold(total, phi), func(key uint64, est int64) {
		out = append(out, sketch.KV{Key: key, Count: est})
	})
	return out
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
	return n + len(s.restored)*8
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
// conditioned-query semantics.
type SlidingHHH struct {
	h      addr.Hierarchy
	levels []*Sliding
	masks  []uint64 // per-level key masks, hoisted out of the hot path
	// qs is the conditioned pass's discount tables, cleared in place per
	// query.
	qs *hhh.QueryScratch
	// Fold state, held only by a detector that folds (an accumulator): the
	// one merge scratch all its frames share, the per-level source list,
	// and the running slot tallies.
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
// keys. Packets are chunked by frame (on the Ts column) so each chunk
// advances the frame ring once per level and then applies its updates
// level-major into the current frame, with per-level keys derived by
// masking the leaf key — the same final state as one Sliding.Update per
// packet and level, however the stream is cut into batches. It is the
// detector's only way in; the batch is packed and filtered to the
// hierarchy's address family where packets are staged (see
// trace.KeyBatch).
func (d *SlidingHHH) UpdateKeys(b *trace.KeyBatch) {
	frameNs := d.levels[0].frameNs
	n := b.Len()
	for i := 0; i < n; {
		fi := FloorDiv(b.Ts[i], frameNs)
		j := i + 1
		for j < n && FloorDiv(b.Ts[j], frameNs) == fi {
			j++
		}
		var bytes int64
		for c := i; c < j; c++ {
			bytes += int64(b.Sizes[c])
		}
		for l, lv := range d.levels {
			lv.advance(b.Ts[i])
			slot := lv.slotOf(lv.curFrame)
			f := lv.frames[slot]
			m := d.masks[l]
			for c := i; c < j; c++ {
				f.Update(b.Keys[c]&m, int64(b.Sizes[c]))
			}
			lv.totals[slot] += bytes
			lv.vers[slot]++
		}
		i = j
	}
}

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

// Advance expires frames up to time now on every level. The sharded
// pipeline advances all shards to the query timestamp before merging.
func (d *SlidingHHH) Advance(now int64) {
	for _, lv := range d.levels {
		lv.advance(now)
	}
}

// WindowTotal returns the total byte weight currently covered (level 0
// sees every packet once, so any level's total is the stream's).
func (d *SlidingHHH) WindowTotal(now int64) int64 {
	return d.levels[0].WindowTotal(now)
}

// mustMatch panics unless o shares d's hierarchy.
func (d *SlidingHHH) mustMatch(o *SlidingHHH) {
	if d.h != o.h || len(d.levels) != len(o.levels) {
		panic("swhh: SlidingHHH.Merge hierarchy mismatch")
	}
}

// Merge folds detector o into d level by level (see Sliding.Merge for the
// frame alignment and bound arithmetic). o is not modified; both
// detectors must share hierarchy and Config.
func (d *SlidingHHH) Merge(o *SlidingHHH) {
	d.mustMatch(o)
	for l := range d.levels {
		d.levels[l].Merge(o.levels[l])
	}
}

// Fold makes d the merge of srcs: the state Reset followed by Merge of
// each source in order leaves, bit for bit, at the cost of the ring slots
// whose sources changed since d's previous Fold (see Sliding.Fold). This
// is how a barrier's accumulator takes a round of shard summaries, and an
// aggregator's a round of node summaries: between two snapshots a source
// writes the slot it is filling and perhaps the next, and the rest of its
// ring stands still.
func (d *SlidingHHH) Fold(srcs []*SlidingHHH) {
	for _, o := range srcs {
		d.mustMatch(o)
	}
	for l, lv := range d.levels {
		d.from = d.from[:0]
		for _, o := range srcs {
			d.from = append(d.from, o.levels[l])
		}
		folded, kept := lv.Fold(d.from, &d.merge)
		d.folded += int64(folded)
		d.kept += int64(kept)
	}
}

// FoldTally returns how many ring slots d's Folds have folded afresh and
// how many they have kept, since d was built.
func (d *SlidingHHH) FoldTally() (folded, kept int64) { return d.folded, d.kept }

// Reset clears every level's frames.
func (d *SlidingHHH) Reset() {
	for _, lv := range d.levels {
		lv.Reset()
	}
}

// SizeBytes sums the per-level footprints and the fold scratch.
func (d *SlidingHHH) SizeBytes() int {
	n := d.merge.SizeBytes() + cap(d.from)*8
	for _, s := range d.levels {
		n += s.SizeBytes()
	}
	return n
}
