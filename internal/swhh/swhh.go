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
type Sliding struct {
	cfg      Config
	frameNs  int64
	frames   []*sketch.SpaceSaving // ring: k full frames + 1 filling
	totals   []int64
	curFrame int64               // global index of the frame currently filling
	seen     map[uint64]struct{} // HeavyKeys candidate-dedup scratch, reused across queries
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
	s := &Sliding{
		cfg:      cfg,
		frameNs:  frameNs,
		frames:   make([]*sketch.SpaceSaving, cfg.Frames+1),
		totals:   make([]int64, cfg.Frames+1),
		curFrame: frameUninit,
	}
	for i := range s.frames {
		s.frames[i] = sketch.NewSpaceSaving(cfg.Counters)
	}
	return s, nil
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
		for i := range s.frames {
			s.frames[i].Reset()
			s.totals[i] = 0
		}
		s.curFrame = target
		return
	}
	for s.curFrame < target {
		s.curFrame++
		slot := int(floorMod(s.curFrame, int64(len(s.frames))))
		s.frames[slot].Reset() // expire the oldest frame wholesale
		s.totals[slot] = 0
	}
}

// Update records weight w for key at time now (ns).
func (s *Sliding) Update(key uint64, w int64, now int64) {
	s.advance(now)
	slot := int(floorMod(s.curFrame, int64(len(s.frames))))
	s.frames[slot].Update(key, w)
	s.totals[slot] += w
}

// estimate sums the per-frame estimates for key without advancing; the
// caller must have advanced to the query time already.
func (s *Sliding) estimate(key uint64) int64 {
	var sum int64
	for _, f := range s.frames {
		sum += f.Estimate(key)
	}
	return sum
}

// Estimate returns the upper-bound estimate of key's weight over the
// covered window at time now.
func (s *Sliding) Estimate(key uint64, now int64) int64 {
	s.advance(now)
	return s.estimate(key)
}

// Advance expires frames up to time now without recording anything: the
// explicit form of the rotation every Update/Estimate performs. The
// sharded pipeline advances all shard summaries to the query timestamp
// before merging so their frame rings align.
func (s *Sliding) Advance(now int64) {
	s.advance(now)
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
	if s.frameNs != o.frameNs || len(s.frames) != len(o.frames) {
		panic("swhh: Sliding.Merge config mismatch")
	}
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
		slot := int(floorMod(g, k))
		s.frames[slot].Merge(o.frames[slot])
		s.totals[slot] += o.totals[slot]
	}
}

// WindowTotal returns the total weight currently covered.
func (s *Sliding) WindowTotal(now int64) int64 {
	s.advance(now)
	var sum int64
	for _, t := range s.totals {
		sum += t
	}
	return sum
}

// HeavyKeys returns the keys whose windowed estimate reaches the fraction
// phi of the covered total at time now.
func (s *Sliding) HeavyKeys(phi float64, now int64) []sketch.KV {
	// One advance covers the whole query: summing totals directly instead
	// of calling WindowTotal avoids rotating the ring a second time.
	s.advance(now)
	var total int64
	for _, t := range s.totals {
		total += t
	}
	if total == 0 {
		return nil
	}
	threshold := hhh.Threshold(total, phi)
	// Candidates: keys tracked in any frame; estimates summed over all.
	// The dedup set is query scratch, reused across calls.
	if s.seen == nil {
		s.seen = make(map[uint64]struct{}, 64)
	}
	clear(s.seen)
	var out []sketch.KV
	for _, f := range s.frames {
		for _, kv := range f.Tracked() {
			if _, dup := s.seen[kv.Key]; dup {
				continue
			}
			s.seen[kv.Key] = struct{}{}
			est := s.estimate(kv.Key)
			if est >= threshold {
				out = append(out, sketch.KV{Key: kv.Key, Count: est})
			}
		}
	}
	return out
}

// SizeBytes reports the summary footprint: the exact per-frame sizes.
func (s *Sliding) SizeBytes() int {
	n := 0
	for _, f := range s.frames {
		n += f.SizeBytes()
	}
	return n
}

// Reset clears all frames and totals but preserves the frame clock.
// Merge addresses frames by global index, so a reset summary that is
// merged with a live peer (the sharded barrier's accumulator does exactly
// this every snapshot) must keep addressing the same global frames;
// rewinding to frame 0 would only work by accident of the wholesale-reset
// jump in advanceTo. A never-advanced summary stays unadvanced.
func (s *Sliding) Reset() {
	for i := range s.frames {
		s.frames[i].Reset()
		s.totals[i] = 0
	}
}

// SlidingHHH runs one Sliding summary per hierarchy level, yielding
// streaming sliding-window hierarchical heavy hitters with the usual
// conditioned-query semantics.
type SlidingHHH struct {
	h      addr.Hierarchy
	levels []*Sliding
	masks  []uint64 // per-level key masks, hoisted out of the hot path
	high   bool     // which address half keys come from, ditto
	// Reusable query scratch: per-level candidate dedup plus the shared
	// conditioned pass's discount tables, cleared in place per query.
	seen map[uint64]struct{}
	qs   *hhh.QueryScratch
}

// NewSlidingHHH builds a per-level sliding HHH detector.
func NewSlidingHHH(h addr.Hierarchy, cfg Config) (*SlidingHHH, error) {
	d := &SlidingHHH{
		h:      h,
		levels: make([]*Sliding, h.Levels()),
		masks:  make([]uint64, h.Levels()),
		high:   h.KeyFromHigh(),
		seen:   make(map[uint64]struct{}, 64),
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

// Update feeds one packet's source and byte size at time now. Packets
// outside the hierarchy's address family are dropped (see
// addr.Hierarchy.Match), so the detector can sit on a dual-stack stream.
func (d *SlidingHHH) Update(src addr.Addr, bytes int64, now int64) {
	if !d.h.Match(src) {
		return
	}
	half := src.Lo()
	if d.high {
		half = src.Hi()
	}
	for l, m := range d.masks {
		d.levels[l].Update(half&m, bytes, now)
	}
}

// UpdateKeys feeds a columnar batch of pre-packed, time-ordered leaf
// keys. Packets are chunked by frame (on the Ts column) so each chunk
// advances the frame ring once per level and then applies its updates
// level-major into the current frame, with per-level keys derived by
// masking the leaf key — the same final state as per-packet Update
// calls, at a fraction of the call overhead.
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
			slot := int(floorMod(lv.curFrame, int64(len(lv.frames))))
			f := lv.frames[slot]
			m := d.masks[l]
			for c := i; c < j; c++ {
				f.Update(b.Keys[c]&m, int64(b.Sizes[c]))
			}
			lv.totals[slot] += bytes
		}
		i = j
	}
}

// Query returns the HHH set at fraction phi of the covered window total,
// using the shared bottom-up conditioned pass over the per-level heavy
// keys. The candidate and discount tables are reused across queries, so
// the pass allocates only the returned Set.
func (d *SlidingHHH) Query(phi float64, now int64) hhh.Set {
	for _, lv := range d.levels {
		lv.advance(now)
	}
	total := d.levels[0].WindowTotal(now)
	threshold := hhh.Threshold(total, phi)
	return hhh.ConditionedLevels(d.h, threshold, d.qs,
		func(l int, emit func(key uint64, est int64)) {
			lv := d.levels[l]
			clear(d.seen)
			// Candidates: every key any frame tracks at this level, each
			// estimated once across all frames.
			for _, f := range lv.frames {
				f.ForEachTracked(func(key uint64, _, _ int64) {
					if _, dup := d.seen[key]; dup {
						return
					}
					d.seen[key] = struct{}{}
					emit(key, lv.estimate(key))
				})
			}
		})
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

// Merge folds detector o into d level by level (see Sliding.Merge for the
// frame alignment and bound arithmetic). o is not modified; both
// detectors must share hierarchy and Config.
func (d *SlidingHHH) Merge(o *SlidingHHH) {
	if d.h != o.h || len(d.levels) != len(o.levels) {
		panic("swhh: SlidingHHH.Merge hierarchy mismatch")
	}
	for l := range d.levels {
		d.levels[l].Merge(o.levels[l])
	}
}

// Reset clears every level's frames.
func (d *SlidingHHH) Reset() {
	for _, lv := range d.levels {
		lv.Reset()
	}
}

// SizeBytes sums the per-level footprints.
func (d *SlidingHHH) SizeBytes() int {
	n := 0
	for _, s := range d.levels {
		n += s.SizeBytes()
	}
	return n
}
