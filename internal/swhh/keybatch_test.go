package swhh

import (
	"math/rand"
	"slices"
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

// TestSlidingKeyBatchMatchesUpdate pins that how a stream is cut into
// batches leaves no trace in the sliding-window engine: fed one packet at
// a time or in chunks that straddle frame edges, for both families' key
// packings, every level ends with the same frame clock, the same
// per-frame totals and the same frame summaries entry for entry — hence
// the same window total and reported set.
func TestSlidingKeyBatchMatchesUpdate(t *testing.T) {
	pkts := dualStackStream(11, 24000)
	last := pkts[len(pkts)-1].Ts
	cfg := Config{Window: 4 * time.Second, Frames: 8, Counters: 64}
	for name, h := range map[string]addr.Hierarchy{
		"ipv4-byte":   addr.NewIPv4Hierarchy(addr.Byte),
		"ipv6-hextet": addr.NewIPv6Hierarchy(addr.Hextet),
	} {
		t.Run(name, func(t *testing.T) {
			var ref *SlidingHHH
			for _, bs := range chunkSizes(len(pkts)) {
				got, err := NewSlidingHHH(h, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for off := 0; off < len(pkts); off += bs {
					end := min(off+bs, len(pkts))
					got.UpdateKeys(pack(h, pkts[off:end]))
				}
				if ref == nil {
					ref = got
					if ref.Query(0.02, last).Len() == 0 {
						t.Fatal("empty reference query: the run proves nothing")
					}
					continue
				}
				for l := range ref.levels {
					g, w := got.levels[l].State(), ref.levels[l].State()
					if g.CurFrame != w.CurFrame || !slices.Equal(g.Totals, w.Totals) {
						t.Fatalf("chunk %d level %d: clock %d totals %v != per-packet %d %v",
							bs, l, g.CurFrame, g.Totals, w.CurFrame, w.Totals)
					}
					for slot, wf := range w.Frames {
						// Tracked lists the entries in node order: equal
						// lists are equal summaries, layout included.
						if gf := g.Frames[slot]; gf.Total() != wf.Total() || !slices.Equal(gf.Tracked(), wf.Tracked()) {
							t.Fatalf("chunk %d level %d slot %d: total %d entries %v != per-packet %d %v",
								bs, l, slot, gf.Total(), gf.Tracked(), wf.Total(), wf.Tracked())
						}
					}
				}
				if gs, want := got.Query(0.02, last), ref.Query(0.02, last); !gs.Equal(want) {
					t.Fatalf("chunk %d: query diverged:\nbatch: %v\nref:   %v", bs, gs, want)
				}
			}
		})
	}
}

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
