package hhh

import (
	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/trace"
)

// PerLevel is the classical streaming HHH engine: one Space-Saving summary
// per hierarchy level, each keyed by the packet's source address
// generalised to that level. This mirrors the structure programmable
// data-plane implementations use (a match-action stage per level).
//
// Estimates inherit Space-Saving's guarantees per level: never
// underestimating subtree volumes, with overestimation bounded by N/k.
// Conditioned volumes are derived at query time by discounting the
// (estimated) subtree volume of every descendant HHH, mirroring the exact
// bottom-up pass. Packets outside the hierarchy's address family are
// ignored (see addr.Hierarchy.Match), so the engine can sit directly on a
// dual-stack stream.
type PerLevel struct {
	h     addr.Hierarchy
	sks   []*sketch.SpaceSaving
	masks []uint64 // per-level key masks, hoisted out of the hot path
	high  bool     // which address half keys come from, ditto
	qs    *QueryScratch
	total int64
}

// NewPerLevel builds an engine with k Space-Saving counters per level.
func NewPerLevel(h addr.Hierarchy, k int) *PerLevel {
	levels := h.Levels()
	p := &PerLevel{
		h:     h,
		sks:   make([]*sketch.SpaceSaving, levels),
		masks: make([]uint64, levels),
		high:  h.KeyFromHigh(),
		qs:    NewQueryScratch(),
	}
	for l := range p.sks {
		p.sks[l] = sketch.NewSpaceSaving(k)
		p.masks[l] = h.KeyMask(l)
	}
	return p
}

// Hierarchy returns the configured hierarchy.
func (p *PerLevel) Hierarchy() addr.Hierarchy { return p.h }

// Update feeds one packet's source address and byte size. Packets of the
// other address family are dropped without counting toward Total.
func (p *PerLevel) Update(src addr.Addr, bytes int64) {
	if !p.h.Match(src) {
		return
	}
	p.total += bytes
	half := src.Lo()
	if p.high {
		half = src.Hi()
	}
	for l, m := range p.masks {
		p.sks[l].Update(half&m, bytes)
	}
}

// UpdateKeys feeds a columnar batch of pre-packed leaf keys and returns
// the total byte weight added. Per-level keys are derived by masking the
// leaf key with the hierarchy's nested per-level masks — no Addr math in
// the loop. The batch is applied level-major: each level's summary
// absorbs the whole run while its working set is hot, which is where
// the batch ingest path gains over per-packet calls. The final state is
// identical to calling Update per packet — per-level summaries are
// independent, and each still sees the packets in stream order.
func (p *PerLevel) UpdateKeys(b *trace.KeyBatch) int64 {
	bytes := b.Bytes()
	p.total += bytes
	for l, m := range p.masks {
		sk := p.sks[l]
		keys := b.Keys
		for i, k := range keys {
			sk.Update(k&m, int64(b.Sizes[i]))
		}
	}
	return bytes
}

// Total returns the byte volume seen since the last Reset.
func (p *PerLevel) Total() int64 { return p.total }

// Merge folds engine o into p level by level (see SpaceSaving.Merge for
// the bound arithmetic). o is not modified. Both engines must share the
// same hierarchy; capacities may differ, with the merged error bound the
// sum of the two engines' bounds. Merging hash-partitioned shards of one
// stream telescopes back to the single-engine bound.
func (p *PerLevel) Merge(o *PerLevel) {
	if p.h != o.h {
		panic("hhh: PerLevel.Merge hierarchy mismatch")
	}
	for l := range p.sks {
		p.sks[l].Merge(o.sks[l])
	}
	p.total += o.total
}

// Reset clears all levels. Sketch storage is retained, so the
// reset-per-window discipline performs no allocation.
func (p *PerLevel) Reset() {
	for _, s := range p.sks {
		s.Reset()
	}
	p.total = 0
}

// Query returns the HHH set at absolute byte threshold T.
func (p *PerLevel) Query(T int64) Set {
	return queryLevels(p.h, p.sks, 1, T, p.qs)
}

// QueryFraction returns the HHH set at threshold phi of the observed
// traffic volume.
func (p *PerLevel) QueryFraction(phi float64) Set {
	return p.Query(Threshold(p.total, phi))
}

// SizeBytes reports the state footprint: the exact per-level summary
// sizes (entry nodes, count buckets, occupancy bitmap, key index).
func (p *PerLevel) SizeBytes() int {
	n := 0
	for _, s := range p.sks {
		n += s.SizeBytes()
	}
	return n
}
