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
// byte threshold (see Threshold); one below 1 is taken as 1.
//
// The algorithm aggregates volumes level by level and then runs
// ConditionedLevels, the bottom-up conditioned pass every streaming engine
// runs, over the exact subtree volumes: every prefix whose volume less what
// its HHH descendants claim reaches T is an HHH and claims its subtree.
// Complexity is O(distinct leaves × levels).
func Exact(leaves *sketch.Exact, h addr.Hierarchy, T int64) Set {
	return new(ExactScratch).Exact(leaves, h, T)
}

// ExactScratch holds what Exact works in — the per-level roll-up maps and
// the conditioned pass's tables — between calls, cleared in place, so that
// a caller that keeps one, as the exact engine's summary does, allocates
// only the set a warm query returns. The zero value is ready to use.
type ExactScratch struct {
	totals []map[uint64]int64
	qs     *QueryScratch
}

// Exact is the package-level Exact, in s's maps: made at the first query,
// sized as the levels fill, and cleared in place after.
func (s *ExactScratch) Exact(leaves *sketch.Exact, h addr.Hierarchy, T int64) Set {
	if len(s.totals) != h.Levels() {
		s.totals, s.qs = make([]map[uint64]int64, h.Levels()), NewQueryScratch()
	}
	totals := s.totals
	m0 := h.KeyMask(0)
	totals[0] = refill(totals[0], leaves.Len())
	leaves.ForEach(func(key uint64, c int64) {
		totals[0][key&m0] += c
	})
	for l := 1; l < len(totals); l++ {
		m := h.KeyMask(l)
		totals[l] = refill(totals[l], len(totals[l-1])/2+1)
		for key, c := range totals[l-1] {
			totals[l][key&m] += c
		}
	}
	return ConditionedLevels(h, max(T, 1), s.qs, func(l int, emit func(key uint64, est int64)) {
		for key, c := range totals[l] {
			emit(key, c)
		}
	})
}

// refill returns m emptied, or a map sized for n keys where there is none.
func refill(m map[uint64]int64, n int) map[uint64]int64 {
	if m == nil {
		return make(map[uint64]int64, n)
	}
	clear(m)
	return m
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
