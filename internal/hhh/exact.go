package hhh

import (
	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/sketch"
)

// Exact computes the exact HHH set of a finished traffic aggregate. It is
// the reference implementation: the offline analyses (Fig 2, Fig 3) are
// defined in terms of it, and the streaming engines are tested against it.
//
// leaves maps each leaf prefix — a source address generalised to h's
// level 0, packed with h.Key — to its byte volume. T is the absolute
// byte threshold (see Threshold).
//
// The algorithm aggregates volumes level by level and performs the
// classical bottom-up conditioned pass: every prefix's unclaimed volume is
// either emitted (>= T, the prefix is an HHH and claims its subtree) or
// passed to its parent. Complexity is O(distinct leaves × levels).
func Exact(leaves *sketch.Exact, h addr.Hierarchy, T int64) Set {
	if T < 1 {
		T = 1
	}
	levels := h.Levels()

	// Pass 1: total subtree volume per prefix, per level.
	totals := make([]map[uint64]int64, levels)
	lvl0 := make(map[uint64]int64, leaves.Len())
	m0 := h.KeyMask(0)
	leaves.ForEach(func(key uint64, c int64) {
		lvl0[key&m0] += c
	})
	totals[0] = lvl0
	for l := 1; l < levels; l++ {
		m := h.KeyMask(l)
		up := make(map[uint64]int64, len(totals[l-1])/2+1)
		for key, c := range totals[l-1] {
			up[key&m] += c
		}
		totals[l] = up
	}

	// Pass 2: bottom-up conditioned volumes.
	out := Set{}
	unclaimed := totals[0] // level 0 conditioned == total
	for l := 0; l < levels; l++ {
		var next map[uint64]int64
		var parentMask uint64
		if l+1 < levels {
			next = make(map[uint64]int64, len(unclaimed)/2+1)
			parentMask = h.KeyMask(l + 1)
		}
		for key, cond := range unclaimed {
			if cond >= T {
				out.Add(Item{Prefix: h.PrefixOfKey(key, l), Count: totals[l][key], Conditioned: cond})
				continue // claimed: contributes nothing upward
			}
			if next != nil {
				next[key&parentMask] += cond
			}
		}
		unclaimed = next
	}
	return out
}

// ExactFromCounts is a convenience wrapper over a plain per-address map.
// Addresses outside h's family are ignored, matching the streaming
// engines' ingest filter.
func ExactFromCounts(counts map[addr.Addr]int64, h addr.Hierarchy, T int64) Set {
	e := sketch.NewExact(len(counts))
	for a, c := range counts {
		if h.Match(a) {
			e.Update(h.Key(a, 0), c)
		}
	}
	return Exact(e, h, T)
}
