package hhh

import (
	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/sketch"
)

// QueryScratch holds the reusable working state of the bottom-up
// conditioned query: the discount table being consumed at the current
// level and the one being built for the parent level, keyed by the
// hierarchy's per-level uint64 keys. Engines keep one per instance so
// that a query performs no map allocation — the tables are cleared in
// place and swapped between levels.
type QueryScratch struct {
	cur, next map[uint64]int64
}

// NewQueryScratch returns an empty scratch ready for ConditionedLevels.
func NewQueryScratch() *QueryScratch {
	return &QueryScratch{
		cur:  make(map[uint64]int64, 64),
		next: make(map[uint64]int64, 64),
	}
}

// ConditionedLevels runs the bottom-up conditioned HHH pass shared by
// every per-level streaming engine (PerLevel, sampled or not, and the
// sliding-window engines). forEach must call emit once per candidate
// level-l key (see addr.Hierarchy.Key) with its (already scaled) subtree
// estimate; duplicates are the producer's responsibility. Claimed subtree
// volume propagates upward as a discount exactly as in the exact
// algorithm, including discounts whose prefix fell out of the parent
// level's summary. qs supplies the reusable discount tables, so the pass
// allocates only the returned Set.
func ConditionedLevels(h addr.Hierarchy, T int64, qs *QueryScratch, forEach func(l int, emit func(key uint64, est int64))) Set {
	levels := h.Levels()
	out := Set{}
	discount, next := qs.cur, qs.next
	clear(discount)
	// One emit closure for the whole pass; the per-level state it reads
	// is rebound each iteration, keeping the level loop allocation-light.
	var (
		parentMask uint64
		last       bool
		level      int
	)
	emit := func(key uint64, est int64) {
		d := discount[key]
		delete(discount, key)
		cond := est - d
		claimed := d
		if cond >= T {
			out.Add(Item{
				Prefix:      h.PrefixOfKey(key, level),
				Count:       est,
				Conditioned: cond,
			})
			claimed = est
		}
		if !last && claimed > 0 {
			next[key&parentMask] += claimed
		}
	}
	for l := 0; l < levels; l++ {
		last = l+1 >= levels
		if !last {
			parentMask = h.KeyMask(l + 1)
		}
		clear(next)
		level = l
		forEach(l, emit)
		// Discounts whose prefix fell out of this level's summary still
		// represent claimed mass and must keep propagating upward.
		if !last {
			for key, d := range discount {
				if d > 0 {
					next[key&parentMask] += d
				}
			}
		}
		discount, next = next, discount
	}
	qs.cur, qs.next = discount, next
	return out
}

// queryLevels runs the conditioned pass over per-level Space-Saving
// summaries, iterated in place. scale multiplies raw sketch counts,
// saturating (1 for engines that update every level; V for sampled levels).
func queryLevels(h addr.Hierarchy, sks []*sketch.SpaceSaving, scale int64, T int64, qs *QueryScratch) Set {
	var emitFn func(key uint64, est int64)
	inner := func(key uint64, count, _ int64) {
		emitFn(key, sketch.MulSat(count, scale))
	}
	return ConditionedLevels(h, T, qs, func(l int, emit func(key uint64, est int64)) {
		emitFn = emit
		sks[l].ForEachTracked(inner)
	})
}
