package swhh

import (
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/sketch"
)

// The flat, per-item face of Sliding — one key, one update at a time into
// one frame ring, one source merged at a time — as the INFOCOM paper
// presents WCSS. Nothing that ships calls it any more: SlidingHHH feeds
// its levels' frames through the coalescing block and merges them a round
// at a time. It lives here as the reference the tests hold the
// hierarchical detector and the Memento engine to.

// Update records weight w for key at time now (ns).
func (s *Sliding) Update(key uint64, w int64, now int64) {
	s.advance(now)
	slot := s.slotOf(s.curFrame)
	s.frames[slot].Update(key, w)
	s.totals[slot] += w
	s.vers[slot]++
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

// Merge folds summary o into s: mergeAll of the one source.
func (s *Sliding) Merge(o *Sliding) {
	if o != nil {
		s.mergeAll([]*Sliding{o})
	}
}

// WindowTotal returns the total weight currently covered.
func (s *Sliding) WindowTotal(now int64) int64 {
	s.advance(now)
	return sumSat(s.totals)
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
