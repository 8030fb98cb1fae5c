package continuous

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hashx"
	"hiddenhhh/internal/tdbf"
)

// TestExactLevelsZeroSlack: a level whose whole prefix space is no larger
// than Filter.Cells is held exactly. After a stream with pauses longer than
// a landmark epoch (so the landmark rolls over) split by leaf-key hash over
// two detectors and merged, every such level's estimate of every key the
// level has — the absent ones included — is the closed form
// Σ w·e^(−(now−t)/τ) to float rounding, with no collision allowance; the
// hashed levels never fall below it; and which levels are held exactly is
// what the hierarchy and Cells say, nothing else. So it is at reads in the
// middle of the stream, each detector's own, at packet counts that are not
// multiples of the block's 64: a read settles a part-filled block, so it
// sees every packet.
func TestExactLevelsZeroSlack(t *testing.T) {
	// Beyond rounding the one give is the flush floor (see package tdbf): a
	// roll-over may zero under 2⁻³² B of a cell, per detector merged.
	const flushed = 1.0 / (1 << 30)
	tau := 50 * time.Millisecond
	for _, h := range []addr.Hierarchy{
		addr.NewIPv4Hierarchy(addr.Byte), addr.NewIPv4Hierarchy(addr.Nibble),
		addr.NewIPv6Hierarchy(addr.Hextet), addr.NewIPv6HierarchyDepth(addr.Hextet, 48),
	} {
		for _, cells := range []int{1, 256, 4096, 65536} {
			t.Run(fmt.Sprintf("%v/%d", h, cells), func(t *testing.T) {
				var ds [2]*Detector
				for i := range ds {
					d, err := NewDetector(Config{Hierarchy: h, Phi: 0.05, Seed: 11,
						Filter: tdbf.Config{Cells: cells, Hashes: 3, Decay: tdbf.Exponential{Tau: tau}}})
					if err != nil {
						t.Fatal(err)
					}
					ds[i] = d
				}
				rng := rand.New(rand.NewSource(int64(cells)))
				pkts := make([]pkt, 6000)
				var fed [2][]pkt // each detector's packets so far
				midBlock := 0
				now := int64(1_700_000_000_000_000_000)
				for i := range pkts {
					now += int64(rng.Intn(int(200 * time.Microsecond)))
					if i%2500 == 2499 {
						now += int64(70 * tau) // longer than a landmark epoch
					}
					// Half the sources from a few crowded subnets, half from anywhere.
					v := rng.Uint64()
					if i&1 == 0 {
						v = v&0x0000_0000_ffff_ffff | uint64(0x2001+rng.Intn(3))<<48 | uint64(rng.Intn(3))<<32
					}
					src := addr.FromParts(v, 0)
					if h.Family() == addr.V4 {
						src = addr.From4Uint32(uint32(v >> 24))
					}
					pkts[i] = pkt{h.Key(src, 0), float64(40 + rng.Intn(1460)), now}
					j := hashx.Bucket(hashx.Mix64(pkts[i].leaf), 2)
					ingest(ds[j], src, int64(pkts[i].w), now)
					fed[j] = append(fed[j], pkts[i])
					if i%997 == 500 {
						if ds[j].Packets()%sweepEvery != 0 {
							midBlock++
						}
						ds[j].State() // a read
						holds(t, ds[j], fed[j], now, cells, flushed)
					}
				}
				if midBlock == 0 {
					t.Fatal("no read fell inside a block")
				}
				land := ds[0].total.State().Touch
				ds[0].Merge(ds[1])
				if land == pkts[0].at || ds[0].Packets() != int64(len(pkts)) {
					t.Fatalf("landmark %d never rolled over, or %d packets of %d", land, ds[0].Packets(), len(pkts))
				}
				holds(t, ds[0], pkts, now, cells, flushed)
			})
		}
	}
}

type pkt struct {
	leaf uint64
	w    float64
	at   int64
}

// holds checks d's filters at now against the closed form of the packets
// fed to it: exact at the levels held exactly, for every key each has, and
// never under it at the hashed ones.
func holds(t *testing.T, d *Detector, pkts []pkt, now int64, cells int, flushed float64) {
	t.Helper()
	h, tau := d.cfg.Hierarchy, d.cfg.Filter.Decay.Tau
	exact := 0
	for l, f := range d.filters {
		want := map[uint64]float64{}
		for _, p := range pkts {
			want[p.leaf&d.masks[l]] += p.w * math.Exp(-float64(now-p.at)/float64(tau))
		}
		r := int(h.Bits(l) - h.Bits(h.Levels()-1))
		if fits := r < 62 && 1<<r <= cells; f.Direct() != fits || (fits && f.Cells() != 1<<r) || (!fits && f.Cells() != cells) {
			t.Fatalf("level %d (%d bits): direct %v, %d cells under Cells %d", l, r, f.Direct(), f.Cells(), cells)
		}
		if !f.Direct() {
			for key, w := range want {
				if got := f.Estimate(key, now); got < w*(1-1e-9)-flushed {
					t.Fatalf("level %d key %#x: hashed estimate %v under the closed form %v", l, key, got, w)
				}
			}
			continue
		}
		exact++
		live := 0
		for i := 0; i < 1<<r; i++ {
			// The level's i-th prefix, built from the address up.
			src := addr.FromParts(uint64(i)<<(64-r), 0)
			if h.Family() == addr.V4 {
				src = addr.From4Uint32(uint32(uint64(i) << (32 - r)))
			}
			key := h.Key(src, l)
			if got, w := f.Estimate(key, now), want[key]; math.Abs(got-w) > 1e-9*w+flushed {
				t.Fatalf("level %d key %#x: exact estimate %v, closed form %v", l, key, got, w)
			} else if w > 0 {
				live++
			}
		}
		if live != len(want) {
			t.Fatalf("level %d: %d of its %d keys carry mass, the stream touched %d", l, live, 1<<r, len(want))
		}
	}
	if exact == 0 {
		t.Fatal("no level held exactly: the root always fits")
	}
}
