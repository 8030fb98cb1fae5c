package hhh

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/sketch"
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

// ingest feeds one packet the way everything that ships does: a
// one-packet batch through the producer-side packing, then UpdateKeys.
func ingest(eng interface {
	Hierarchy() addr.Hierarchy
	UpdateKeys(*trace.KeyBatch) int64
}, src addr.Addr, bytes int64) {
	eng.UpdateKeys(pack(eng.Hierarchy(), []trace.Packet{{Src: src, Size: uint32(bytes)}}))
}

// chunks splits pkts into deliberately awkward runs: single packets,
// primes straddling no particular boundary, the pipeline's batch size, and
// one giant batch.
var chunkSizes = []int{1, 7, 97, 256, 1 << 20}

// refPerLevel is PerLevel's contract done naively, the reference the
// engine is held to bit for bit: a map and an order slice stand in for the
// coalescing block, every level is derived from the block's leaf entries
// directly, and plain per-level SpaceSaving.Update takes the sums.
type refPerLevel struct {
	h     addr.Hierarchy
	sks   []*sketch.SpaceSaving
	total int64
	sum   map[uint64]int64
	order []uint64 // the block's distinct leaf keys, by first appearance
}

func newRefPerLevel(h addr.Hierarchy, k int) *refPerLevel {
	r := &refPerLevel{h: h, sks: make([]*sketch.SpaceSaving, h.Levels()), sum: map[uint64]int64{}}
	for l := range r.sks {
		r.sks[l] = sketch.NewSpaceSaving(k)
	}
	return r
}

// update is one packet arriving through UpdateKeys.
func (r *refPerLevel) update(key uint64, w int64) {
	r.total += w
	if _, pending := r.sum[key]; !pending {
		if len(r.order) == BlockKeys {
			r.settle()
		}
		r.order = append(r.order, key)
	}
	r.sum[key] += w
}

func (r *refPerLevel) settle() {
	for l, sk := range r.sks {
		sum := map[uint64]int64{}
		var order []uint64
		for _, leaf := range r.order {
			k := leaf & r.h.KeyMask(l)
			if _, seen := sum[k]; !seen {
				order = append(order, k)
			}
			sum[k] += r.sum[leaf]
		}
		for _, k := range order {
			sk.Update(k, sum[k])
		}
	}
	clear(r.sum)
	r.order = r.order[:0]
}

func (r *refPerLevel) merge(o *refPerLevel) {
	r.settle()
	o.settle()
	for l, sk := range r.sks {
		sk.Merge(o.sks[l])
	}
	r.total += o.total
}

func (r *refPerLevel) reset() {
	for _, sk := range r.sks {
		sk.Reset()
	}
	r.total = 0
	clear(r.sum)
	r.order = r.order[:0]
}

func (r *refPerLevel) query(T int64) Set {
	r.settle()
	return queryLevels(r.h, r.sks, 1, T, NewQueryScratch())
}

// requireSameTables holds got's level summaries to the reference's entry
// for entry — key, count, error bound, node order — and total for total.
// It is a read of both: pending blocks are applied.
func requireSameTables(t *testing.T, what string, got *PerLevel, ref *refPerLevel) {
	t.Helper()
	ref.settle()
	if got.Total() != ref.total {
		t.Fatalf("%s: total %d, reference %d", what, got.Total(), ref.total)
	}
	for l, want := range ref.sks {
		requireSameSummary(t, what, l, got.LevelSummary(l), want)
	}
}

// requireSameSummary is requireSameTables' check of one level.
func requireSameSummary(t *testing.T, what string, l int, sk, want *sketch.SpaceSaving) {
	t.Helper()
	if sk.Len() != want.Len() || sk.Total() != want.Total() {
		t.Fatalf("%s: level %d: %d entries total %d, reference %d entries total %d",
			what, l, sk.Len(), sk.Total(), want.Len(), want.Total())
	}
	for i := 0; i < want.Len(); i++ {
		if sk.Entry(i) != want.Entry(i) {
			t.Fatalf("%s: level %d entry %d: %+v, reference %+v", what, l, i, sk.Entry(i), want.Entry(i))
		}
	}
}

// TestPerLevelKeyBatchMatchesUpdate pins PerLevel's update order bit for
// bit: on a dual-stack stream, for both families' key packings, the level
// tables equal refPerLevel's entry for entry however the stream is cut
// into batches — one packet at a time up to chunks of 2^20 — with queries,
// merges from a source that has a block pending, resets and plain reads
// of the tables falling at arbitrary packet offsets.
func TestPerLevelKeyBatchMatchesUpdate(t *testing.T) {
	pkts := dualStackStream(3, 20000)
	side := dualStackStream(4, 300) // the merge source's stream
	for name, h := range hierarchiesUnderTest() {
		t.Run(name, func(t *testing.T) {
			feedRef := func(r *refPerLevel, pkts []trace.Packet) {
				for i := range pkts {
					if h.Match(pkts[i].Src) {
						r.update(h.Key(pkts[i].Src, 0), int64(pkts[i].Size))
					}
				}
			}
			for _, bs := range chunkSizes {
				rng := rand.New(rand.NewSource(11)) // the same read points for every chunking
				got, ref := NewPerLevel(h, 64), newRefPerLevel(h, 64)
				resets := 0
				for off := 0; off < len(pkts); {
					stop := min(off+1+rng.Intn(1500), len(pkts))
					feedRef(ref, pkts[off:stop])
					for off < stop {
						end := min(off+bs, stop)
						got.UpdateKeys(pack(h, pkts[off:end]))
						off = end
					}
					what := fmt.Sprintf("chunk %d, packet %d", bs, off)
					switch op := rng.Intn(8); {
					case op < 3:
						T := got.Total() / 50
						if q, want := got.Query(T), ref.query(T); !reflect.DeepEqual(q, want) {
							t.Fatalf("%s: query diverged:\nengine:    %v\nreference: %v", what, q, want)
						}
					case op < 6:
						o, ro := NewPerLevel(h, 64), newRefPerLevel(h, 64)
						o.UpdateKeys(pack(h, side))
						feedRef(ro, side)
						if o.blk.n == 0 {
							t.Fatal("merge source has no pending block")
						}
						got.Merge(o)
						ref.merge(ro)
					case off < len(pkts)/2:
						got.Reset()
						ref.reset()
						resets++
					}
					requireSameTables(t, what, got, ref)
				}
				if items := got.Query(got.Total() / 50).Len(); resets == 0 || items == 0 {
					t.Fatalf("chunk %d: %d resets, %d items: the run proves nothing", bs, resets, items)
				}
			}
		})
	}
}

// TestPerLevelBlockGuaranteesHostile holds the coalesced engine to
// Space-Saving's three guarantees, per level and with zero slack, against
// exact per-level counts on the shapes most unlike the traffic the block
// was sized on: no repeats at all, nothing but repeats, keys that all
// probe from one index slot, weights that overflow 32 bits within a block,
// and a window that closes on a part-filled block.
func TestPerLevelBlockGuaranteesHostile(t *testing.T) {
	const k = 16
	h := addr.NewIPv4Hierarchy(addr.Nibble)
	spread := func(i int) uint32 { return uint32(i+1) * 2654435761 }
	var colliding []uint32 // sources whose leaf keys share a home slot
	for i := 0; len(colliding) < 3*BlockKeys; i++ {
		if a := spread(i); blockSlot(h.Key(addr.From4Uint32(a), 0)) == 7 {
			colliding = append(colliding, a)
		}
	}
	shapes := []struct {
		name string
		n    int
		src  func(i int) uint32
		size func(i int) uint32
	}{
		{"all-distinct", 5000, spread, func(i int) uint32 { return uint32(40 + i%1400) }},
		{"one-key", 5000, func(int) uint32 { return 0x0a010203 }, func(i int) uint32 { return uint32(40 + i%1400) }},
		{"two-alternating", 5000, func(i int) uint32 { return 0x0a010203 + uint32(i%2)<<24 }, func(i int) uint32 { return 1500 }},
		{"index-collisions", 5000, func(i int) uint32 { return colliding[i*i%len(colliding)] }, func(i int) uint32 { return uint32(40 + i%1400) }},
		{"max-sizes", 3000, func(i int) uint32 { return spread(i % 300) }, func(int) uint32 { return math.MaxUint32 }},
		{"pending-at-close", 3*BlockKeys + 17, spread, func(i int) uint32 { return uint32(40 + i%1400) }},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			pkts := make([]trace.Packet, sh.n)
			truth := make([]map[uint64]int64, h.Levels())
			for l := range truth {
				truth[l] = map[uint64]int64{}
			}
			var N int64
			for i := range pkts {
				pkts[i] = trace.Packet{Ts: int64(i), Src: addr.From4Uint32(sh.src(i)), Size: sh.size(i)}
				N += int64(pkts[i].Size)
				for l := range truth {
					truth[l][h.Key(pkts[i].Src, l)] += int64(pkts[i].Size)
				}
			}
			p := NewPerLevel(h, k)
			for off := 0; off < len(pkts); off += 256 {
				p.UpdateKeys(pack(h, pkts[off:min(off+256, len(pkts))]))
			}
			if p.blk.n == 0 {
				t.Fatal("no block pending when the window closes")
			}
			if p.Total() != N {
				t.Fatalf("total %d, want %d", p.Total(), N)
			}
			for l := range truth {
				sk := p.LevelSummary(l)
				if sk.Total() != N {
					t.Fatalf("level %d: summary total %d, want %d", l, sk.Total(), N)
				}
				for key, want := range truth[l] {
					if est := sk.Estimate(key); est < want {
						t.Fatalf("level %d key %#x: estimate %d under true %d", l, key, est, want)
					}
					count, tracked := sk.Lookup(key)
					if tracked && (count-want)*k > N {
						t.Fatalf("level %d key %#x: count %d over true %d by more than N/k = %d/%d", l, key, count, want, N, k)
					}
					if !tracked && want*k > N {
						t.Fatalf("level %d key %#x: true %d above N/k = %d/%d but not tracked", l, key, want, N, k)
					}
				}
			}
		})
	}
}

// TestRHHHKeyBatchMatchesUpdate is the same pin for the sampled engine,
// where it is strictest: the level sampler must advance once per
// family-matching packet in stream order, so a stream fed one packet at a
// time and the same stream in chunks of any size leave the same totals,
// packet count, sampler state and level tables.
func TestRHHHKeyBatchMatchesUpdate(t *testing.T) {
	pkts := dualStackStream(5, 20000)
	for name, h := range hierarchiesUnderTest() {
		t.Run(name, func(t *testing.T) {
			var ref *RHHH
			for _, bs := range chunkSizes {
				got := NewRHHH(h, 64, 99)
				for off := 0; off < len(pkts); off += bs {
					end := min(off+bs, len(pkts))
					got.UpdateKeys(pack(h, pkts[off:end]))
				}
				if ref == nil {
					ref = got // chunkSizes[0] == 1: packet at a time
					if ref.Query(ref.Total()/50).Len() == 0 {
						t.Fatal("empty reference query: the run proves nothing")
					}
					continue
				}
				if got.Total() != ref.Total() || got.packets != ref.packets || got.rng != ref.rng {
					t.Fatalf("chunk %d: total/packets/sampler %d/%d/%#x != per-packet %d/%d/%#x",
						bs, got.Total(), got.packets, got.rng, ref.Total(), ref.packets, ref.rng)
				}
				for l, want := range ref.sks {
					requireSameSummary(t, fmt.Sprintf("chunk %d", bs), l, got.sks[l], want)
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
