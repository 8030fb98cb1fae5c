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

// TestSlidingKeyBatchMatchesUpdate pins the columnar fast path of the
// sliding-window engine to per-packet Update calls: same frame rotation,
// same per-frame totals, same reported set — for both families' key
// packings and awkward batch boundaries (including batches that straddle
// frame edges).
func TestSlidingKeyBatchMatchesUpdate(t *testing.T) {
	pkts := dualStackStream(11, 24000)
	last := pkts[len(pkts)-1].Ts
	cfg := Config{Window: 4 * time.Second, Frames: 8, Counters: 64}
	for name, h := range map[string]addr.Hierarchy{
		"ipv4-byte":   addr.NewIPv4Hierarchy(addr.Byte),
		"ipv6-hextet": addr.NewIPv6Hierarchy(addr.Hextet),
	} {
		t.Run(name, func(t *testing.T) {
			ref, err := NewSlidingHHH(h, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range pkts {
				ref.Update(pkts[i].Src, int64(pkts[i].Size), pkts[i].Ts)
			}
			want := ref.Query(0.02, last)
			wantTotal := ref.WindowTotal(last)
			for _, bs := range []int{1, 7, 97, len(pkts)} {
				got, err := NewSlidingHHH(h, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for off := 0; off < len(pkts); off += bs {
					end := min(off+bs, len(pkts))
					got.UpdateKeys(pack(h, pkts[off:end]))
				}
				if gt := got.WindowTotal(last); gt != wantTotal {
					t.Fatalf("chunk %d: window total %d != per-packet %d", bs, gt, wantTotal)
				}
				if gs := got.Query(0.02, last); !gs.Equal(want) {
					t.Fatalf("chunk %d: query diverged:\nbatch: %v\nref:   %v", bs, gs, want)
				}
			}
		})
	}
}
