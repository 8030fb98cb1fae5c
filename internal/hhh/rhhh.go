package hhh

import (
	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hashx"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/trace"
)

// RHHH is the randomised HHH algorithm of Ben Basat et al. (SIGCOMM 2017),
// the state-of-the-art sketch the calibration notes name as prior work.
// Instead of updating every hierarchy level for every packet, it draws one
// uniform level per packet and updates only that level's Space-Saving
// summary, cutting per-packet cost from O(levels) to O(1). Queries scale
// each level's counts by the number of levels to recover unbiased subtree
// estimates.
//
// The constant-time update is exactly what makes tall hierarchies —
// IPv6's 17-level nibble lattice, versus IPv4's 5-level byte ladder —
// affordable: PerLevel's per-packet cost grows with the level count
// while RHHH's does not, which is the trade RHHH was designed for.
//
// The trade-off is variance: estimates converge as the per-level sample
// grows, so RHHH needs a minimum stream length before its output
// stabilises — one of the behaviours the continuous-comparison experiment
// surfaces on short windows. UpdateKeys is the only way in: the batch is
// packed and filtered to the hierarchy's address family where packets are
// staged (see trace.KeyBatch).
type RHHH struct {
	h       addr.Hierarchy
	sks     []*sketch.SpaceSaving
	masks   []uint64 // per-level key masks, hoisted out of the hot path
	levels  uint64
	rng     uint64 // splitmix64 state; deterministic under seed
	total   int64
	updates int64
	qs      *QueryScratch
}

// NewRHHH builds an engine with k counters per level and a deterministic
// sampling seed.
func NewRHHH(h addr.Hierarchy, k int, seed uint64) *RHHH {
	levels := h.Levels()
	r := &RHHH{
		h:      h,
		sks:    make([]*sketch.SpaceSaving, levels),
		masks:  levelMasks(h),
		levels: uint64(levels),
		rng:    hashx.Mix64(seed ^ 0x5851f42d4c957f2d),
		qs:     NewQueryScratch(),
	}
	for l := range r.sks {
		r.sks[l] = sketch.NewSpaceSaving(k)
	}
	return r
}

// Hierarchy returns the configured hierarchy.
func (r *RHHH) Hierarchy() addr.Hierarchy { return r.h }

// UpdateKeys feeds a columnar batch of pre-packed leaf keys and returns
// the total byte weight added. The sampled level's key is the leaf key
// masked by that level's nested mask — no Addr math in the loop. Levels
// are drawn one per packet from a deterministic sequence that runs on
// across calls, so the final state does not depend on how the stream was
// cut into batches.
func (r *RHHH) UpdateKeys(b *trace.KeyBatch) int64 {
	var bytes int64
	rng := r.rng
	keys := b.Keys
	for i, k := range keys {
		w := int64(b.Sizes[i])
		bytes += w
		// splitmix64 step, then unbiased-enough high-multiply range reduction.
		rng += 0x9e3779b97f4a7c15
		l := int((hashx.Mix64(rng) >> 32) * r.levels >> 32)
		r.sks[l].Update(k&r.masks[l], w)
	}
	r.rng = rng
	r.total += bytes
	r.updates += int64(len(keys))
	return bytes
}

// Total returns the byte volume seen since the last Reset.
func (r *RHHH) Total() int64 { return r.total }

// Merge folds engine o into r: MergeAll of the one source.
func (r *RHHH) Merge(o *RHHH) { r.MergeAll([]*RHHH{o}) }

// MergeAll folds the engines srcs into r, each level taking the whole
// round in one K-way merge (see PerLevel.MergeAll). The sources are not
// modified; r's RNG state is kept. All engines must share the same
// hierarchy. Because RHHH's level sampling is order-insensitive (each
// packet draws a level independently), summaries built on disjoint
// substreams merge exactly like their underlying Space-Saving levels: raw
// per-level counts add, and the query-time V-scaling of the merged counts
// remains unbiased for the combined stream.
func (r *RHHH) MergeAll(srcs []*RHHH) {
	for _, o := range srcs {
		if r.h != o.h {
			panic("hhh: RHHH.Merge hierarchy mismatch")
		}
		r.total = sketch.AddSat(r.total, o.total)
		r.updates = sketch.AddSat(r.updates, o.updates)
	}
	mergeLevels(r.sks, len(srcs), func(i int) []*sketch.SpaceSaving { return srcs[i].sks })
}

// Updates returns the packet count seen since the last Reset.
func (r *RHHH) Updates() int64 { return r.updates }

// Reset clears all levels and keeps the RNG rolling (reusing the engine
// across windows does not replay the same level sequence, matching how a
// switch deployment would behave). Sketch storage is retained.
func (r *RHHH) Reset() {
	for _, s := range r.sks {
		s.Reset()
	}
	r.total = 0
	r.updates = 0
}

// Query returns the HHH set at absolute byte threshold T, scaling each
// sampled level's counts by the level count.
func (r *RHHH) Query(T int64) Set {
	return queryLevels(r.h, r.sks, int64(r.levels), T, r.qs)
}

// QueryFraction returns the HHH set at threshold phi of the observed
// traffic volume.
func (r *RHHH) QueryFraction(phi float64) Set {
	return r.Query(Threshold(r.total, phi))
}

// SizeBytes reports the state footprint (see PerLevel.SizeBytes).
func (r *RHHH) SizeBytes() int {
	n := 0
	for _, s := range r.sks {
		n += s.SizeBytes()
	}
	return n
}
