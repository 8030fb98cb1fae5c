package hhh

import (
	"fmt"

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

// RestorePerLevel rebuilds a PerLevel engine from serialized state: the
// hierarchy, the byte total, and one restored Space-Saving summary per
// hierarchy level (typically from sketch.SpaceSaving.Restore). It
// validates instead of panicking: the level count must match the
// hierarchy and every summary must be non-nil.
func RestorePerLevel(h addr.Hierarchy, total int64, sks []*sketch.SpaceSaving) (*PerLevel, error) {
	if len(sks) != h.Levels() {
		return nil, fmt.Errorf("hhh: restore: %d level summaries for %d-level hierarchy %v", len(sks), h.Levels(), h)
	}
	if total < 0 {
		return nil, fmt.Errorf("hhh: restore: negative total %d", total)
	}
	p := &PerLevel{
		h:     h,
		sks:   make([]*sketch.SpaceSaving, len(sks)),
		masks: make([]uint64, len(sks)),
		qs:    NewQueryScratch(),
		total: total,
	}
	for l, s := range sks {
		if s == nil {
			return nil, fmt.Errorf("hhh: restore: nil summary at level %d", l)
		}
		p.sks[l] = s
		p.masks[l] = h.KeyMask(l)
	}
	return p, nil
}

// LevelSummary returns level l's Space-Saving summary for serialization.
// The returned summary is the live one — callers must treat it as
// read-only.
func (r *RHHH) LevelSummary(l int) *sketch.SpaceSaving { return r.sks[l] }

// Sampler returns the current splitmix64 sampler state, serialized so a
// restored engine that keeps ingesting draws the same level sequence
// the original would have.
func (r *RHHH) Sampler() uint64 { return r.rng }

// RestoreRHHH rebuilds an RHHH engine from serialized state: hierarchy,
// byte total, packet count, sampler state, and one restored
// Space-Saving summary per level. It validates instead of panicking.
func RestoreRHHH(h addr.Hierarchy, total, updates int64, sampler uint64, sks []*sketch.SpaceSaving) (*RHHH, error) {
	if len(sks) != h.Levels() {
		return nil, fmt.Errorf("hhh: restore: %d level summaries for %d-level hierarchy %v", len(sks), h.Levels(), h)
	}
	if total < 0 || updates < 0 {
		return nil, fmt.Errorf("hhh: restore: negative total %d or updates %d", total, updates)
	}
	r := &RHHH{
		h:       h,
		sks:     make([]*sketch.SpaceSaving, len(sks)),
		masks:   make([]uint64, len(sks)),
		levels:  uint64(len(sks)),
		rng:     sampler,
		total:   total,
		updates: updates,
		qs:      NewQueryScratch(),
	}
	for l, s := range sks {
		if s == nil {
			return nil, fmt.Errorf("hhh: restore: nil summary at level %d", l)
		}
		r.sks[l] = s
		r.masks[l] = h.KeyMask(l)
	}
	return r, nil
}
