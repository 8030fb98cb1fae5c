package swhh

import "hiddenhhh/internal/addr"

// OverLevels is a test hook for the external test package: a detector
// whose per-level rings are the given ones, so a reference built from
// plain Sliding summaries can be queried and sealed as a SlidingHHH.
func OverLevels(h addr.Hierarchy, levels []*Sliding) *SlidingHHH {
	d, err := NewSlidingHHH(h, levels[0].cfg)
	if err != nil {
		panic(err)
	}
	copy(d.levels, levels)
	return d
}
