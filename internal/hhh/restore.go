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
// which become p's levels. Any pending block is discarded; p keeps its level
// slice and query scratch unless it is the zero PerLevel or of another
// hierarchy, which get their own. It validates instead of panicking: the
// level count must match the hierarchy and every summary must be non-nil.
func RestorePerLevel(p *PerLevel, h addr.Hierarchy, total int64, sks []*sketch.SpaceSaving) error {
	if err := checkRestore(h, sks, total); err != nil {
		return err
	}
	if p.qs == nil || p.h != h {
		p.h, p.sks, p.masks, p.qs = h, make([]*sketch.SpaceSaving, len(sks)), levelMasks(h), NewQueryScratch()
	}
	copy(p.sks, sks)
	p.total = total
	if p.blk != nil {
		p.blk.Clear()
	}
	return nil
}

// checkRestore validates what a restore is handed: one non-nil summary
// per level of h and non-negative counts (bytes, packets).
func checkRestore(h addr.Hierarchy, sks []*sketch.SpaceSaving, counts ...int64) error {
	if len(sks) != h.Levels() {
		return fmt.Errorf("hhh: restore: %d level summaries for %d-level hierarchy %v", len(sks), h.Levels(), h)
	}
	if slices.Min(counts) < 0 {
		return fmt.Errorf("hhh: restore: negative total or packet count %v", counts)
	}
	for l, s := range sks {
		if s == nil {
			return fmt.Errorf("hhh: restore: nil summary at level %d", l)
		}
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

// LevelSummary returns level l's Space-Saving summary for serialization.
// The returned summary is the live one — callers must treat it as
// read-only.
func (r *RHHH) LevelSummary(l int) *sketch.SpaceSaving { return r.sks[l] }

// Sampler returns the current splitmix64 sampler state, serialized so a
// restored engine that keeps ingesting draws the same level sequence
// the original would have.
func (r *RHHH) Sampler() uint64 { return r.rng }

// RestoreRHHH brings r to serialized state over hierarchy h: byte total,
// packet count, sampler state, and one restored Space-Saving summary per
// level, which become r's levels (see RestorePerLevel, whose rules it
// follows). It validates instead of panicking.
func RestoreRHHH(r *RHHH, h addr.Hierarchy, total, updates int64, sampler uint64, sks []*sketch.SpaceSaving) error {
	if err := checkRestore(h, sks, total, updates); err != nil {
		return err
	}
	if r.qs == nil || r.h != h {
		r.h, r.sks, r.masks, r.qs = h, make([]*sketch.SpaceSaving, len(sks)), levelMasks(h), NewQueryScratch()
		r.levels = uint64(len(sks))
	}
	copy(r.sks, sks)
	r.rng, r.total, r.updates = sampler, total, updates
	return nil
}
