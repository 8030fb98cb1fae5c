package hhh

import (
	"unsafe"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hashx"
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
// packets per leaf key in a small coalescing Block; when the block holds
// BlockKeys distinct keys — or the engine's state is read or handed on:
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
//
// Built by NewRHHH, the engine is level-sampled instead: RHHH, the
// randomised HHH algorithm of Ben Basat et al. (SIGCOMM 2017). Each packet
// updates the summary of one level drawn from a seeded splitmix64 sequence
// (hashx.Level), and queries scale every count by the level count V to
// recover unbiased subtree estimates. Per-packet cost is then one table
// update whatever the hierarchy's height — the trade RHHH was designed for
// on IPv6's 17-level nibble lattice — at the price of sampling variance,
// which shrinks as the per-level sample grows. A sampled engine has no
// block.
type PerLevel struct {
	h       addr.Hierarchy
	sks     []*sketch.SpaceSaving
	masks   []uint64 // per-level key masks, hoisted out of the hot path
	qs      *QueryScratch
	total   int64
	packets int64  // packets since the last Reset
	blk     *Block // pending packets; nil until the first unsampled UpdateKeys
	updates int64  // table updates applied by settles, since built
	sampled bool   // one drawn level per packet (RHHH)
	rng     uint64 // the level sampler's state (hashx.Level)
}

// RHHH is the level-sampled setting of PerLevel (see NewRHHH).
type RHHH = PerLevel

// The coalescing block's geometry: BlockKeys distinct keys behind an
// open-addressed index of four times as many two-byte slots, 12 KB in all —
// beside a 256-key batch it stays inside a 32 KB L1d, which is the budget
// it is sized on. Table updates per packet on one of two shards, ten
// seconds of trace, 512 counters (TestTableUpdatesPerPacket prints the
// BlockKeys row):
//
//	keys   diurnal-tier1   hit-and-run-ddos   uniform-random
//	       nibble ladder   byte ladder        nibble ladder
//	 128   1.06            0.47               6.91
//	 256   0.69            0.30               6.67
//	 512   0.35            0.14               6.41
//	1024   0.13            0.06               6.14
//
// against 9, 5 and 9 without a block. The weights the level summaries see
// are therefore block sums of several KB, not packet sizes. Do not read
// the last row as the slope continuing: every generated scenario draws
// from ~3 200 sources a lap (1 578 distinct leaves a shard in 60 s of
// diurnal-tier1), so from 1 024 keys up a shard's whole window fits the
// block, which is then an exact table — a plateau (2 048 keys: the same
// 0.13 and 0.06) that real traffic does not have. The block is sized on
// the slope and on L1. The capacity is a property of the block, not of any
// caller: changing it changes which weighted update sequence a stream
// stands for, never the guarantees.
const (
	blockSlotBits = 11
	blockSlots    = 1 << blockSlotBits
	// BlockKeys is the number of distinct keys a Block holds.
	BlockKeys = blockSlots / 4
	// BlockBytes is a Block's footprint.
	BlockBytes = int(unsafe.Sizeof(Block{}))
	_          = uint16(BlockKeys) // an index slot holds entry index + 1
)

// Block is a run of packets summed per leaf key: entry i is the i-th
// distinct key in order of first appearance, idx finds a key's entry. It
// is the coalescing stage of both per-level deterministic engines —
// PerLevel and swhh.SlidingHHH, whose block holds packets of one frame.
// The zero value is empty.
type Block struct {
	n    int
	keys [BlockKeys]uint64
	sums [BlockKeys]int64
	idx  [blockSlots]uint16 // entry index + 1 by linear probing; 0 is empty
}

// blockSlot is key's home slot in the index: the top bits of a
// multiplicative hash, which depend on every bit of the key.
func blockSlot(key uint64) uint32 {
	return uint32(key * 0x9e3779b97f4a7c15 >> (64 - blockSlotBits))
}

// Add sums w into key's entry, appending the entry when the key is new.
// It reports false, adding nothing, when the key is new and the block is
// full.
func (b *Block) Add(key uint64, w int64) bool {
	for h := blockSlot(key); ; h = (h + 1) % blockSlots {
		j := b.idx[h]
		if j == 0 {
			if b.n == BlockKeys {
				return false
			}
			b.keys[b.n], b.sums[b.n] = key, w
			b.n++
			b.idx[h] = uint16(b.n)
			return true
		}
		if b.keys[j-1] == key {
			b.sums[j-1] += w
			return true
		}
	}
}

// Len returns the number of distinct keys held.
func (b *Block) Len() int { return b.n }

// Clear empties the block.
func (b *Block) Clear() {
	b.n = 0
	b.idx = [blockSlots]uint16{}
}

// coarsen masks every entry's key with m and merges the entries that now
// coincide, in place: the list keeps its order and only ever shrinks, so
// an entry is re-added at or before its own position.
func (b *Block) coarsen(m uint64) {
	n := b.n
	b.Clear()
	for i := 0; i < n; i++ {
		b.Add(b.keys[i]&m, b.sums[i])
	}
}

// Settle applies the block and empties it: up the ladder from the leaves
// (masks[0], under which the keys were added), sks[l] absorbs one
// Update(prefix, summed bytes) per distinct level-l prefix of the block,
// in order of first appearance, and the block is coarsened to the next
// level's prefixes. It returns the table updates made and the bytes held.
func (b *Block) Settle(masks []uint64, sks []*sketch.SpaceSaving) (updates int, bytes int64) {
	for _, w := range b.sums[:b.n] {
		bytes += w
	}
	for l, m := range masks {
		if l > 0 {
			b.coarsen(m)
		}
		sk := sks[l]
		for i, k := range b.keys[:b.n] {
			sk.Update(k, b.sums[i])
		}
		updates += b.n
	}
	b.Clear()
	return updates, bytes
}

// NewPerLevel builds an engine with k Space-Saving counters per level.
func NewPerLevel(h addr.Hierarchy, k int) *PerLevel {
	p := &PerLevel{
		h:     h,
		sks:   make([]*sketch.SpaceSaving, h.Levels()),
		masks: levelMasks(h),
		qs:    NewQueryScratch(),
	}
	for l := range p.sks {
		p.sks[l] = sketch.NewSpaceSaving(k)
	}
	return p
}

// NewRHHH builds a level-sampled engine (RHHH) with k counters per level,
// drawing levels from a sequence fixed by seed.
func NewRHHH(h addr.Hierarchy, k int, seed uint64) *PerLevel {
	p := NewPerLevel(h, k)
	p.sampled, p.rng = true, hashx.Sampler(seed)
	return p
}

// Hierarchy returns the configured hierarchy.
func (p *PerLevel) Hierarchy() addr.Hierarchy { return p.h }

// Sampled reports whether p is level-sampled, with its packet count since
// the last Reset and its sampler state: what a sampled engine is serialized
// with beside its levels, so that a restored engine draws the levels the
// original would (see RestoreRHHH).
func (p *PerLevel) Sampled() (sampled bool, packets int64, sampler uint64) {
	return p.sampled, p.packets, p.rng
}

// UpdateKeys feeds a columnar batch of pre-packed leaf keys and returns
// the total byte weight added. Each packet costs one insert into the
// coalescing block; the level summaries are touched only when the block
// fills (see Settle), so per-level work scales with the distinct prefixes
// of the stream, not with its packets. A sampled engine instead updates
// the drawn level's summary directly, with the leaf key masked by that
// level's mask, and its sampler runs on across calls. Either way how the
// stream is cut into batches leaves no trace in the state.
func (p *PerLevel) UpdateKeys(b *trace.KeyBatch) int64 {
	sizes := b.Sizes[:len(b.Keys)]
	var bytes int64
	if p.sampled {
		rng, levels := p.rng, uint64(len(p.sks))
		for i, k := range b.Keys {
			w := int64(sizes[i])
			bytes += w
			var l int
			rng, l = hashx.Level(rng, levels)
			p.sks[l].Update(k&p.masks[l], w)
		}
		p.rng = rng
	} else {
		if p.blk == nil {
			p.blk = new(Block)
		}
		blk, leaf := p.blk, p.masks[0]
		for i, k := range b.Keys {
			w := int64(sizes[i])
			bytes += w
			if k &= leaf; !blk.Add(k, w) {
				p.Settle()
				blk.Add(k, w)
			}
		}
	}
	p.total += bytes
	p.packets += int64(len(b.Keys))
	return bytes
}

// Settle applies the pending block to the level summaries (see
// Block.Settle). It is what every read of the level summaries does first,
// and what a shard calls on its own goroutine before its engine is handed
// to a merge. With nothing pending it is a no-op.
func (p *PerLevel) Settle() {
	if p.blk == nil || p.blk.n == 0 {
		return
	}
	n, _ := p.blk.Settle(p.masks, p.sks)
	p.updates += int64(n)
}

// TableUpdates returns how many Space-Saving updates the engine's settles
// have applied since it was built.
func (p *PerLevel) TableUpdates() int64 { return p.updates }

// Total returns the byte volume seen since the last Reset, pending block
// included.
func (p *PerLevel) Total() int64 { return p.total }

// Merge folds engine o into p: MergeAll of the one source.
func (p *PerLevel) Merge(o *PerLevel) { p.MergeAll([]*PerLevel{o}) }

// MergeAll folds the engines srcs into p, each level taking the whole
// round in one K-way merge (see SpaceSaving.MergeAll for the bound
// arithmetic: the sum of the engines' bounds, the single-engine bound for
// hash-partitioned shards of one stream). Pending blocks are applied
// first; the sources are not otherwise modified. All engines must share
// the same hierarchy and sampling; p keeps its sampler state. Totals
// saturate at MaxInt64. Level sampling is order-insensitive — each packet
// draws independently — so sampled engines built on disjoint substreams
// merge like their level summaries, and the merged counts scaled by V stay
// unbiased for the combined stream.
func (p *PerLevel) MergeAll(srcs []*PerLevel) {
	p.Settle()
	for _, o := range srcs {
		if p.h != o.h || p.sampled != o.sampled {
			panic("hhh: PerLevel.Merge hierarchy or sampling mismatch")
		}
		o.Settle()
		p.total = sketch.AddSat(p.total, o.total)
		p.packets = sketch.AddSat(p.packets, o.packets)
	}
	from := make([]*sketch.SpaceSaving, 0, 8) // the usual round fits; a wider one spills to the heap
	for l, sk := range p.sks {
		from = from[:0]
		for _, o := range srcs {
			from = append(from, o.sks[l])
		}
		sk.MergeAll(from)
	}
}

// Reset clears all levels and discards a pending block. Sketch and block
// storage is retained, so the reset-per-window discipline performs no
// allocation. The sampler keeps rolling, so consecutive windows do not
// replay one level sequence.
func (p *PerLevel) Reset() {
	for _, s := range p.sks {
		s.Reset()
	}
	p.total, p.packets = 0, 0
	if p.blk != nil && p.blk.n > 0 {
		p.blk.Clear()
	}
}

// Query returns the HHH set at absolute byte threshold T, a sampled
// engine scaling every count by the level count.
func (p *PerLevel) Query(T int64) Set {
	p.Settle()
	scale := int64(1)
	if p.sampled {
		scale = int64(len(p.sks))
	}
	return queryLevels(p.h, p.sks, scale, T, p.qs)
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
		n = BlockBytes
	}
	for _, s := range p.sks {
		n += s.SizeBytes()
	}
	return n
}
