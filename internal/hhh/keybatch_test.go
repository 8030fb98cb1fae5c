package hhh

import (
	"math/rand"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/trace"
)

// dualStackStream synthesises a time-ordered mixed-family stream: skewed
// IPv4 sources interleaved with IPv6 sources, so the KeyBatch packing
// has to exercise its family filter in both directions.
func dualStackStream(seed int64, n int) []trace.Packet {
	rng := rand.New(rand.NewSource(seed))
	out := make([]trace.Packet, n)
	step := int64(10 * time.Second / time.Duration(n))
	for i := range out {
		var src addr.Addr
		if rng.Intn(3) == 0 {
			src = addr.FromParts(0x2001_0db8_0000_0000|uint64(rng.Intn(9))<<16|uint64(rng.Intn(5)), uint64(i))
		} else {
			src = addr.From4(10, byte(rng.Intn(5)), byte(rng.Intn(9)), byte(rng.Intn(50)))
		}
		out[i] = trace.Packet{Ts: int64(i) * step, Src: src, Size: uint32(40 + rng.Intn(1460))}
	}
	return out
}

// hierarchiesUnderTest returns one hierarchy per family so every
// equivalence case runs against both the low-half (IPv4) and high-half
// (IPv6) key packing.
func hierarchiesUnderTest() map[string]addr.Hierarchy {
	return map[string]addr.Hierarchy{
		"ipv4-byte":     addr.NewIPv4Hierarchy(addr.Byte),
		"ipv6-hextet":   addr.NewIPv6Hierarchy(addr.Hextet),
		"ipv6-nibble48": addr.NewIPv6HierarchyDepth(addr.Nibble, 48),
	}
}

// pack runs pkts through the producer-side packing (family filter, leaf
// key) the way every caller of UpdateKeys does.
func pack(h addr.Hierarchy, pkts []trace.Packet) *trace.KeyBatch {
	b := trace.NewKeyBatch(len(pkts))
	b.AppendPackets(h, pkts)
	return b
}

// chunks splits pkts into deliberately awkward runs: single packets,
// primes straddling no particular boundary, and one giant batch.
var chunkSizes = []int{1, 7, 97, 1 << 20}

// TestPerLevelKeyBatchMatchesUpdate pins the columnar fast path to the
// per-packet path: UpdateKeys over packed runs must leave PerLevel in a
// byte-identical state to per-packet Update calls on
// the same dual-stack stream, for both families' key packings and any
// batch boundaries.
func TestPerLevelKeyBatchMatchesUpdate(t *testing.T) {
	pkts := dualStackStream(3, 20000)
	for name, h := range hierarchiesUnderTest() {
		t.Run(name, func(t *testing.T) {
			ref := NewPerLevel(h, 64)
			for i := range pkts {
				ref.Update(pkts[i].Src, int64(pkts[i].Size))
			}
			T := ref.Total() / 50
			want := ref.Query(T)
			for _, bs := range chunkSizes {
				got := NewPerLevel(h, 64)
				var added int64
				for off := 0; off < len(pkts); off += bs {
					end := min(off+bs, len(pkts))
					added += got.UpdateKeys(pack(h, pkts[off:end]))
				}
				if added != ref.Total() || got.Total() != ref.Total() {
					t.Fatalf("chunk %d: total %d (added %d) != per-packet %d", bs, got.Total(), added, ref.Total())
				}
				if !got.Query(T).Equal(want) {
					t.Fatalf("chunk %d: query diverged:\nbatch: %v\nref:   %v", bs, got.Query(T), want)
				}
			}
		})
	}
}

// TestRHHHKeyBatchMatchesUpdate is the same pin for the sampled engine,
// where equivalence is strictest: the level sampler must advance once per
// family-matching packet in stream order, so any filter or ordering skew
// between the two paths changes which sketch each packet lands in.
func TestRHHHKeyBatchMatchesUpdate(t *testing.T) {
	pkts := dualStackStream(5, 20000)
	for name, h := range hierarchiesUnderTest() {
		t.Run(name, func(t *testing.T) {
			ref := NewRHHH(h, 64, 99)
			for i := range pkts {
				ref.Update(pkts[i].Src, int64(pkts[i].Size))
			}
			T := ref.Total() / 50
			want := ref.Query(T)
			for _, bs := range chunkSizes {
				got := NewRHHH(h, 64, 99)
				for off := 0; off < len(pkts); off += bs {
					end := min(off+bs, len(pkts))
					got.UpdateKeys(pack(h, pkts[off:end]))
				}
				if got.Total() != ref.Total() || got.Updates() != ref.Updates() {
					t.Fatalf("chunk %d: total/updates %d/%d != per-packet %d/%d",
						bs, got.Total(), got.Updates(), ref.Total(), ref.Updates())
				}
				if !got.Query(T).Equal(want) {
					t.Fatalf("chunk %d: query diverged:\nbatch: %v\nref:   %v", bs, got.Query(T), want)
				}
			}
		})
	}
}

// TestKeyBatchPackingInvariants pins the producer-side packing contract
// the engine fast paths rely on: AppendPackets packs exactly the
// family-matching packets, the packed leaf key reproduces Hierarchy.Key,
// and masking the leaf key with each level's KeyMask equals packing at
// that level directly (masks nest).
func TestKeyBatchPackingInvariants(t *testing.T) {
	pkts := dualStackStream(7, 5000)
	for name, h := range hierarchiesUnderTest() {
		t.Run(name, func(t *testing.T) {
			b := trace.NewKeyBatch(64)
			packed := b.AppendPackets(h, pkts)
			matching := 0
			for i := range pkts {
				if h.Match(pkts[i].Src) {
					matching++
				}
			}
			if packed != matching || b.Len() != matching {
				t.Fatalf("packed %d (len %d), want %d matching", packed, b.Len(), matching)
			}
			j := 0
			for i := range pkts {
				if !h.Match(pkts[i].Src) {
					continue
				}
				if b.Keys[j] != h.Key(pkts[i].Src, 0) {
					t.Fatalf("key %d: %#x != Hierarchy.Key %#x", j, b.Keys[j], h.Key(pkts[i].Src, 0))
				}
				if b.Sizes[j] != pkts[i].Size || b.Ts[j] != pkts[i].Ts {
					t.Fatalf("column %d misaligned", j)
				}
				for l := 0; l < h.Levels(); l++ {
					if b.Keys[j]&h.KeyMask(l) != h.Key(pkts[i].Src, l) {
						t.Fatalf("level %d: masked leaf key %#x != direct key %#x",
							l, b.Keys[j]&h.KeyMask(l), h.Key(pkts[i].Src, l))
					}
				}
				j++
			}
		})
	}
}
