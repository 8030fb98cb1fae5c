package hhh

import (
	"fmt"
	"slices"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/sketch"
)

// LevelSummary returns level l's Space-Saving summary for serialization,
// with any pending block applied. The returned summary is the live one —
// callers must treat it as read-only.
func (p *PerLevel) LevelSummary(l int) *sketch.SpaceSaving {
	p.Settle()
	return p.sks[l]
}

// RestorePerLevel brings p to serialized state over hierarchy h: the byte
// total and one restored Space-Saving summary per level (typically
// p.LevelSummary(l) itself, restored in place by sketch.SpaceSaving.Restore),
// which become p's levels, unsampled. Any pending block is discarded; p keeps
// its level slice and query scratch unless it is the zero PerLevel or of
// another hierarchy, which get their own. It validates instead of panicking:
// the level count must match the hierarchy and every summary must be non-nil.
func RestorePerLevel(p *PerLevel, h addr.Hierarchy, total int64, sks []*sketch.SpaceSaving) error {
	return restoreLevels(p, h, total, sks, false, 0, 0)
}

// RestoreRHHH is RestorePerLevel for a level-sampled engine: it also
// restores the packet count and sampler state (see PerLevel.Sampled), and
// leaves p sampled, without a block.
func RestoreRHHH(p *PerLevel, h addr.Hierarchy, total, packets int64, sampler uint64, sks []*sketch.SpaceSaving) error {
	return restoreLevels(p, h, total, sks, true, packets, sampler)
}

func restoreLevels(p *PerLevel, h addr.Hierarchy, total int64, sks []*sketch.SpaceSaving, sampled bool, packets int64, sampler uint64) error {
	if len(sks) != h.Levels() {
		return fmt.Errorf("hhh: restore: %d level summaries for %d-level hierarchy %v", len(sks), h.Levels(), h)
	}
	if total < 0 || packets < 0 {
		return fmt.Errorf("hhh: restore: negative total %d or packet count %d", total, packets)
	}
	if i := slices.Index(sks, nil); i >= 0 {
		return fmt.Errorf("hhh: restore: nil summary at level %d", i)
	}
	if p.qs == nil || p.h != h {
		p.h, p.sks, p.masks, p.qs = h, make([]*sketch.SpaceSaving, len(sks)), levelMasks(h), NewQueryScratch()
	}
	copy(p.sks, sks)
	p.total, p.packets, p.sampled, p.rng = total, packets, sampled, sampler
	if sampled {
		p.blk = nil
	} else if p.blk != nil {
		p.blk.Clear()
	}
	return nil
}

// levelMasks returns h's key mask per level.
func levelMasks(h addr.Hierarchy) []uint64 {
	masks := make([]uint64, h.Levels())
	for l := range masks {
		masks[l] = h.KeyMask(l)
	}
	return masks
}
