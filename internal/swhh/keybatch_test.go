package swhh

import (
	"math/rand"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/trace"
)

// dualStackStream synthesises a time-ordered mixed-family stream whose
// span crosses many frame boundaries, so the batch path's frame chunking
// and the family filter interact: wrong-family packets must neither
// update frames nor advance them.
func dualStackStream(seed int64, n int) []trace.Packet {
	rng := rand.New(rand.NewSource(seed))
	out := make([]trace.Packet, n)
	step := int64(12 * time.Second / time.Duration(n))
	for i := range out {
		var src addr.Addr
		if rng.Intn(4) == 0 {
			src = addr.FromParts(0x2001_0db8_0000_0000|uint64(rng.Intn(7))<<16, uint64(i))
		} else {
			src = addr.From4(10, byte(rng.Intn(4)), byte(rng.Intn(8)), byte(rng.Intn(40)))
		}
		out[i] = trace.Packet{Ts: int64(i) * step, Src: src, Size: uint32(40 + rng.Intn(1460))}
	}
	return out
}

// pack runs pkts through the producer-side packing (family filter, leaf
// key) the way every caller of UpdateKeys does.
func pack(h addr.Hierarchy, pkts []trace.Packet) *trace.KeyBatch {
	b := trace.NewKeyBatch(len(pkts))
	b.AppendPackets(h, pkts)
	return b
}

// ingest feeds one packet the way everything that ships does: a
// one-packet batch through the producer-side packing, then UpdateKeys.
func ingest(d interface {
	Hierarchy() addr.Hierarchy
	UpdateKeys(*trace.KeyBatch)
}, src addr.Addr, bytes, now int64) {
	d.UpdateKeys(pack(d.Hierarchy(), []trace.Packet{{Ts: now, Src: src, Size: uint32(bytes)}}))
}

// chunkSizes cuts a stream into one-packet batches (the reference every
// other chunking is held to), primes that straddle frame edges, and one
// batch for the whole stream.
func chunkSizes(n int) []int { return []int{1, 7, 97, n} }

// benchUpdateKeys times ingest the way it ships: b.N packets from
// distinct sources, one per microsecond, in 256-packet key batches.
func benchUpdateKeys(b *testing.B, h addr.Hierarchy, update func(*trace.KeyBatch)) {
	kb := trace.NewKeyBatch(256)
	b.ReportAllocs()
	for i := 0; i < b.N; {
		kb.Reset()
		for ; i < b.N && kb.Len() < 256; i++ {
			kb.Append(h.Key(addr.From4Uint32(uint32(i)*2654435761), 0), 1000, int64(i)*1000)
		}
		update(kb)
	}
}
