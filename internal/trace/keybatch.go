package trace

import (
	"slices"

	"hiddenhhh/internal/addr"
)

// KeyBatch is the columnar (structure-of-arrays) batch the ingest data
// path hands between the producer, the pipeline rings, and the engines,
// and the only form in which an engine takes packets (UpdateKeys /
// ObserveKeys): no engine has an address-taking entry. Instead of shipping
// 48-byte Packet structs and re-deriving hierarchy sketch keys inside every
// engine, the producer packs each family-matching packet's leaf key
// exactly once with addr.Hierarchy.Key and the downstream consumers derive
// every coarser level by a single AND with the hierarchy's per-level
// KeyMask — masks nest, so leafKey & KeyMask(l) equals Hierarchy.Key(a, l)
// for every level l.
//
// The three columns are parallel: Keys[i], Sizes[i] and Ts[i] describe
// the i-th packet of the batch. Only family-matching packets are packed —
// the hierarchy's ingest family filter runs where packets are packed
// (AppendPackets and the sharded pipeline's stageRun) — so an engine
// never re-checks Match. Timestamps stay
// non-decreasing when the input stream is, which the sliding-window
// engines rely on for frame chunking.
//
// A KeyBatch is not safe for concurrent use; the pipeline recycles them
// through per-shard freelists so the steady state allocates nothing.
type KeyBatch struct {
	// Keys holds the packed leaf-level hierarchy keys.
	Keys []uint64
	// Sizes holds the wire lengths in bytes, parallel to Keys.
	Sizes []uint32
	// Ts holds the packet timestamps in trace-epoch nanoseconds,
	// parallel to Keys.
	Ts []int64
}

// NewKeyBatch returns an empty batch with capacity for n packets in
// every column.
func NewKeyBatch(n int) *KeyBatch {
	return &KeyBatch{
		Keys:  make([]uint64, 0, n),
		Sizes: make([]uint32, 0, n),
		Ts:    make([]int64, 0, n),
	}
}

// Len returns the number of packets in the batch.
func (b *KeyBatch) Len() int { return len(b.Keys) }

// Reset truncates all columns to length zero, keeping their capacity for
// reuse.
func (b *KeyBatch) Reset() {
	b.Keys = b.Keys[:0]
	b.Sizes = b.Sizes[:0]
	b.Ts = b.Ts[:0]
}

// Append adds one packed packet to the batch.
func (b *KeyBatch) Append(key uint64, size uint32, ts int64) {
	b.Keys = append(b.Keys, key)
	b.Sizes = append(b.Sizes, size)
	b.Ts = append(b.Ts, ts)
}

// Bytes sums the Sizes column.
func (b *KeyBatch) Bytes() int64 {
	var n int64
	for _, s := range b.Sizes {
		n += int64(s)
	}
	return n
}

// AppendPackets packs every packet of pkts that matches h's address
// family onto the batch: leaf key via h.Key(Src, 0), plus the Size and
// Ts columns. Non-matching packets are skipped — this is the packing
// body of pipeline.Single, of tests and of the benchmark kernels (the
// sharded pipeline's stageRun packs and partitions in one pass of its
// own). It returns the number of packets packed.
func (b *KeyBatch) AppendPackets(h addr.Hierarchy, pkts []Packet) int {
	// Grow once, then fill by index, with the leaf mask hoisted: the loop
	// carries no capacity checks and no per-packet hierarchy arithmetic.
	n := len(b.Keys)
	m := n + len(pkts)
	keys := slices.Grow(b.Keys, len(pkts))[:m]
	sizes := slices.Grow(b.Sizes, len(pkts))[:m]
	ts := slices.Grow(b.Ts, len(pkts))[:m]
	mask, high := h.KeyMask(0), h.KeyFromHigh()
	j := n
	for i := range pkts {
		p := &pkts[i]
		if !h.Match(p.Src) {
			continue
		}
		half := p.Src.Lo()
		if high {
			half = p.Src.Hi()
		}
		keys[j], sizes[j], ts[j] = half&mask, p.Size, p.Ts
		j++
	}
	b.Keys, b.Sizes, b.Ts = keys[:j], sizes[:j], ts[:j]
	return j - n
}
