package hhh

import (
	"unsafe"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/trace"
)

// PerLevel is the classical streaming HHH engine: one Space-Saving summary
// per hierarchy level, each keyed by the packet's source address
// generalised to that level. This mirrors the structure programmable
// data-plane implementations use (a match-action stage per level).
//
// Neighbouring packets share almost all of their ancestors, so the batch
// path does not pay one table update per packet and level. UpdateKeys sums
// packets per leaf key in a small coalescing block; when the block holds
// blockKeys distinct keys — or the engine's state is read or handed on:
// Settle, Query, Merge, LevelSummary — the block is applied up the
// prefix ladder, each level's summary taking one weighted update per
// distinct prefix, in order of first appearance. The engine is therefore a
// Space-Saving-HHH summary of its stream with each block applied as
// per-key sums: block boundaries are counted on the engine's own stream,
// so the state after a read depends on the stream and on where the reads
// fell, never on how the stream was cut into batches.
//
// Estimates inherit Space-Saving's guarantees per level — they hold for
// any weighted update sequence with the stream's per-key sums — never
// underestimating subtree volumes, with overestimation bounded by N/k.
// Conditioned volumes are derived at query time by discounting the
// (estimated) subtree volume of every descendant HHH, mirroring the exact
// bottom-up pass. UpdateKeys is the only way in: the batch is packed and
// filtered to the hierarchy's address family where packets are staged
// (see trace.KeyBatch).
type PerLevel struct {
	h     addr.Hierarchy
	sks   []*sketch.SpaceSaving
	masks []uint64 // per-level key masks, hoisted out of the hot path
	qs    *QueryScratch
	total int64
	blk   *block // pending packets; nil until the first UpdateKeys
}

// The coalescing block's geometry: blockKeys distinct keys behind an
// open-addressed index of four times as many one-byte slots, 2.5 KB in
// all. (Measured on one of two shards of the diurnal Tier-1 mix, nibble
// ladder: a 128-key block holds ~700 packets and costs the level summaries
// ~1.05 updates per packet against 9; a fuller index of two-byte slots in
// the same bytes ran 10 % slower.) The capacity is a property of the
// engine, not of any caller: changing it changes which weighted update
// sequence a stream stands for, never the guarantees.
const (
	blockSlotBits = 9
	blockSlots    = 1 << blockSlotBits
	blockKeys     = blockSlots / 4
	blockBytes    = int(unsafe.Sizeof(block{}))
	_             = uint8(blockKeys) // an index slot holds entry index + 1
)

// block is a run of packets summed per key: entry i is the i-th distinct
// key in order of first appearance, idx finds a key's entry.
type block struct {
	n    int
	keys [blockKeys]uint64
	sums [blockKeys]int64
	idx  [blockSlots]uint8 // entry index + 1 by linear probing; 0 is empty
}

// blockSlot is key's home slot in the index: the top bits of a
// multiplicative hash, which depend on every bit of the key.
func blockSlot(key uint64) uint32 {
	return uint32(key * 0x9e3779b97f4a7c15 >> (64 - blockSlotBits))
}

// add sums w into key's entry, appending the entry when the key is new.
// It reports false, adding nothing, when the key is new and the block is
// full.
func (b *block) add(key uint64, w int64) bool {
	for h := blockSlot(key); ; h = (h + 1) % blockSlots {
		j := b.idx[h]
		if j == 0 {
			if b.n == blockKeys {
				return false
			}
			b.keys[b.n], b.sums[b.n] = key, w
			b.n++
			b.idx[h] = uint8(b.n)
			return true
		}
		if b.keys[j-1] == key {
			b.sums[j-1] += w
			return true
		}
	}
}

// clear empties the block.
func (b *block) clear() {
	b.n = 0
	b.idx = [blockSlots]uint8{}
}

// coarsen masks every entry's key with m and merges the entries that now
// coincide, in place: the list keeps its order and only ever shrinks, so
// an entry is re-added at or before its own position.
func (b *block) coarsen(m uint64) {
	n := b.n
	b.clear()
	for i := 0; i < n; i++ {
		b.add(b.keys[i]&m, b.sums[i])
	}
}

// NewPerLevel builds an engine with k Space-Saving counters per level.
func NewPerLevel(h addr.Hierarchy, k int) *PerLevel {
	levels := h.Levels()
	p := &PerLevel{
		h:     h,
		sks:   make([]*sketch.SpaceSaving, levels),
		masks: make([]uint64, levels),
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

// UpdateKeys feeds a columnar batch of pre-packed leaf keys and returns
// the total byte weight added. Each packet costs one insert into the
// coalescing block; the level summaries are touched only when the block
// fills (see Settle), so per-level work scales with the distinct prefixes
// of the stream, not with its packets. How the stream is cut into batches
// leaves no trace in the state.
func (p *PerLevel) UpdateKeys(b *trace.KeyBatch) int64 {
	if p.blk == nil {
		p.blk = new(block)
	}
	blk, leaf := p.blk, p.masks[0]
	sizes := b.Sizes[:len(b.Keys)]
	var bytes int64
	for i, k := range b.Keys {
		w := int64(sizes[i])
		bytes += w
		if k &= leaf; !blk.add(k, w) {
			p.Settle()
			blk.add(k, w)
		}
	}
	p.total += bytes
	return bytes
}

// Settle applies the pending block: up the ladder from the leaves, each
// level's summary absorbs one Update(prefix, summed bytes) per distinct
// prefix of the block, in order of first appearance, and the block is
// coarsened to the next level's prefixes. It is what every read of the
// level summaries does first, and what a shard calls on its own goroutine
// before its engine is handed to a merge. With nothing pending it is a
// no-op.
func (p *PerLevel) Settle() {
	b := p.blk
	if b == nil || b.n == 0 {
		return
	}
	for l, m := range p.masks {
		if l > 0 {
			b.coarsen(m)
		}
		sk := p.sks[l]
		for i, k := range b.keys[:b.n] {
			sk.Update(k, b.sums[i])
		}
	}
	b.clear()
}

// Total returns the byte volume seen since the last Reset, pending block
// included.
func (p *PerLevel) Total() int64 { return p.total }

// Merge folds engine o into p level by level (see SpaceSaving.Merge for
// the bound arithmetic). Pending blocks of both are applied first; o is
// not otherwise modified. Both engines must share the same hierarchy;
// capacities may differ, with the merged error bound the sum of the two
// engines' bounds. Merging hash-partitioned shards of one stream
// telescopes back to the single-engine bound.
func (p *PerLevel) Merge(o *PerLevel) {
	if p.h != o.h {
		panic("hhh: PerLevel.Merge hierarchy mismatch")
	}
	p.Settle()
	o.Settle()
	for l := range p.sks {
		p.sks[l].Merge(o.sks[l])
	}
	p.total += o.total
}

// Reset clears all levels and discards a pending block. Sketch and block
// storage is retained, so the reset-per-window discipline performs no
// allocation.
func (p *PerLevel) Reset() {
	for _, s := range p.sks {
		s.Reset()
	}
	p.total = 0
	if p.blk != nil && p.blk.n > 0 {
		p.blk.clear()
	}
}

// Query returns the HHH set at absolute byte threshold T.
func (p *PerLevel) Query(T int64) Set {
	p.Settle()
	return queryLevels(p.h, p.sks, 1, T, p.qs)
}

// QueryFraction returns the HHH set at threshold phi of the observed
// traffic volume.
func (p *PerLevel) QueryFraction(phi float64) Set {
	return p.Query(Threshold(p.total, phi))
}

// SizeBytes reports the state footprint: the exact per-level summary
// sizes (entry nodes, count buckets, occupancy bitmap, key index) plus
// the coalescing block once the engine has one. It reads no level
// summary, so it does not apply the block.
func (p *PerLevel) SizeBytes() int {
	n := 0
	if p.blk != nil {
		n = blockBytes
	}
	for _, s := range p.sks {
		n += s.SizeBytes()
	}
	return n
}
