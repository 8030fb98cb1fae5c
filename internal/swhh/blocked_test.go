package swhh_test

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/swhh"
	"hiddenhhh/internal/trace"
	"hiddenhhh/internal/wire"
)

// refSlidingHHH is SlidingHHH's contract done naively, the reference the
// detector is held to byte for byte: a map and an order slice stand in for
// the coalescing block, every level's prefixes are derived from the
// block's leaf entries directly, and plain per-item Sliding.Update — one
// call per distinct prefix, stamped inside the block's frame — takes the
// sums.
type refSlidingHHH struct {
	h       addr.Hierarchy
	frameNs int64
	levels  []*swhh.Sliding
	d       *swhh.SlidingHHH // the same rings, to query and seal them
	sum     map[uint64]int64
	order   []uint64 // the block's distinct leaf keys, by first appearance
}

func newRefSlidingHHH(t *testing.T, h addr.Hierarchy, cfg swhh.Config) *refSlidingHHH {
	r := &refSlidingHHH{h: h, levels: make([]*swhh.Sliding, h.Levels()), sum: map[uint64]int64{}}
	for l := range r.levels {
		s, err := swhh.NewSliding(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.levels[l] = s
	}
	r.frameNs = int64(r.levels[0].Config().Window) / int64(r.levels[0].Config().Frames)
	r.d = swhh.OverLevels(h, r.levels)
	return r
}

// frame is the rings' current global frame.
func (r *refSlidingHHH) frame() int64 { return r.levels[0].State().CurFrame }

// update is one packet arriving through UpdateKeys: a packet of a later
// frame than the rings' closes the block and moves them on; one of the
// current frame, or of an earlier one, joins the block.
func (r *refSlidingHHH) update(key uint64, w, ts int64) {
	if cur := r.frame(); cur == swhh.FrameUninit || swhh.FloorDiv(ts, r.frameNs) > cur {
		r.settle()
		for _, lv := range r.levels {
			lv.Advance(ts)
		}
	}
	if _, pending := r.sum[key]; !pending {
		if len(r.order) == hhh.BlockKeys {
			r.settle()
		}
		r.order = append(r.order, key)
	}
	r.sum[key] += w
}

func (r *refSlidingHHH) settle() {
	if len(r.order) == 0 {
		return
	}
	at := r.frame() * r.frameNs // an instant of the current frame
	for l, lv := range r.levels {
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
			lv.Update(k, sum[k], at)
		}
	}
	clear(r.sum)
	r.order = r.order[:0]
}

func (r *refSlidingHHH) advance(now int64) {
	r.settle()
	for _, lv := range r.levels {
		lv.Advance(now)
	}
}

func (r *refSlidingHHH) merge(o *refSlidingHHH) {
	r.settle()
	o.settle()
	for l, lv := range r.levels {
		lv.Merge(o.levels[l])
	}
}

func (r *refSlidingHHH) reset() {
	clear(r.sum)
	r.order = r.order[:0]
	for _, lv := range r.levels {
		lv.Reset()
	}
}

// seal is the reference's wire frame; it is a read, so the block is
// applied.
func (r *refSlidingHHH) seal() []byte {
	r.settle()
	return wire.EncodeSliding(r.d)
}

// blockedStream is a dual-stack stream built to cross everything the
// coalescing stage keys on. It starts before the epoch; its packets come
// a few to a few hundred per frame, so frames change inside batches of
// every size; twice it pauses for longer than the ring; here and there a
// timestamp falls back behind the frame it follows; and after each pause a
// frame opens with exactly hhh.BlockKeys distinct sources followed by one
// more, the capacity's off-by-one.
func blockedStream(seed int64, n int, frame int64, ring int) []trace.Packet {
	rng := rand.New(rand.NewSource(seed))
	out := make([]trace.Packet, 0, n)
	ts := -7*frame - 13
	source := func() addr.Addr {
		if rng.Intn(4) == 0 {
			return addr.FromParts(0x2001_0db8_0000_0000|uint64(rng.Intn(7))<<16, uint64(rng.Intn(300)))
		}
		return addr.From4(10, byte(rng.Intn(4)), byte(rng.Intn(8)), byte(rng.Intn(60)))
	}
	for len(out) < n {
		switch i := len(out); {
		case i == n/3 || i == 2*n/3:
			ts += frame*int64(ring+1+rng.Intn(3)) - ts%frame + 1 // a pause longer than the ring, to a frame's start
			for j := 0; j <= hhh.BlockKeys; j++ {
				out = append(out,
					trace.Packet{Ts: ts, Src: addr.From4(172, 16, byte(j>>8), byte(j)), Size: 100},
					trace.Packet{Ts: ts, Src: addr.FromParts(0x2001_0db8_ffff_0000, uint64(j)), Size: 100})
			}
			continue
		case rng.Intn(200) == 0:
			out = append(out, trace.Packet{Ts: ts - frame - rng.Int63n(frame), Src: source(), Size: 999}) // backwards
			continue
		case rng.Intn(3) == 0:
			ts += rng.Int63n(frame / 40)
		}
		out = append(out, trace.Packet{Ts: ts, Src: source(), Size: uint32(40 + rng.Intn(1460))})
	}
	return out
}

// TestSlidingKeyBatchMatchesUpdate pins SlidingHHH's update order byte
// for byte: on a dual-stack stream, for both families' key packings, the
// detector seals to the same bytes as refSlidingHHH however the stream is
// cut into batches — one packet at a time up to chunks of 2^20 — with
// Advance, QueryMass, merges from a source that has a block pending and
// resets falling at arbitrary packet offsets, through frame changes inside
// a batch, pauses longer than the ring, a pre-epoch start, timestamps that
// run backwards (they land in the current frame) and a frame of exactly
// one key more than the block holds.
func TestSlidingKeyBatchMatchesUpdate(t *testing.T) {
	cfg := swhh.Config{Window: 4 * time.Second, Frames: 8, Counters: 64}
	frame := int64(cfg.Window) / int64(cfg.Frames)
	pkts := blockedStream(11, 24000, frame, cfg.Frames+1)
	side := blockedStream(12, 300, frame, cfg.Frames+1) // the merge source's stream, moved to where the merge falls
	for name, h := range map[string]addr.Hierarchy{
		"ipv4-byte":   addr.NewIPv4Hierarchy(addr.Byte),
		"ipv6-hextet": addr.NewIPv6Hierarchy(addr.Hextet),
	} {
		t.Run(name, func(t *testing.T) {
			feedRef := func(r *refSlidingHHH, pkts []trace.Packet) {
				for i := range pkts {
					if h.Match(pkts[i].Src) {
						r.update(h.Key(pkts[i].Src, 0), int64(pkts[i].Size), pkts[i].Ts)
					}
				}
			}
			pack := func(pkts []trace.Packet) *trace.KeyBatch {
				b := trace.NewKeyBatch(len(pkts))
				b.AppendPackets(h, pkts)
				return b
			}
			for _, bs := range []int{1, 7, 97, 256, 1 << 20} {
				rng := rand.New(rand.NewSource(5)) // the same read points for every chunking
				got, err := swhh.NewSlidingHHH(h, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefSlidingHHH(t, h, cfg)
				var advances, queries, merges, resets, items int
				for off := 0; off < len(pkts); {
					stop := min(off+1+rng.Intn(1200), len(pkts))
					feedRef(ref, pkts[off:stop])
					for off < stop {
						end := min(off+bs, stop)
						got.UpdateKeys(pack(pkts[off:end]))
						off = end
					}
					what := fmt.Sprintf("chunk %d, packet %d", bs, off)
					now := pkts[off-1].Ts + rng.Int63n(2*frame)
					switch op := rng.Intn(10); {
					case op < 2:
						got.Advance(now)
						ref.advance(now)
						advances++
					case op < 5:
						ref.advance(now)
						set, mass := got.QueryMass(0.02, now)
						want, wantMass := ref.d.QueryMass(0.02, now)
						if !maps.Equal(set, want) || mass != wantMass {
							t.Fatalf("%s: query diverged:\ndetector:  %v\nreference: %v", what, set, want)
						}
						queries++
						items += set.Len()
					case op < 7:
						// A source that ends up to two frames behind or ahead
						// of the receiver, so either side's ring may move.
						shifted := make([]trace.Packet, len(side))
						shift := now - 2*frame - side[len(side)-1].Ts
						for i, p := range side {
							shifted[i] = trace.Packet{Ts: p.Ts + shift, Src: p.Src, Size: p.Size}
						}
						o, _ := swhh.NewSlidingHHH(h, cfg)
						ro := newRefSlidingHHH(t, h, cfg)
						o.UpdateKeys(pack(shifted))
						feedRef(ro, shifted)
						if len(ro.order) == 0 {
							t.Fatal("merge source has no pending block")
						}
						got.Merge(o)
						ref.merge(ro)
						merges++
					case op < 8 && off < len(pkts)/2:
						got.Reset()
						ref.reset()
						resets++
					}
					if !bytes.Equal(wire.EncodeSliding(got), ref.seal()) {
						t.Fatalf("%s: the detector seals differently from the reference", what)
					}
				}
				if advances == 0 || queries == 0 || merges == 0 || resets == 0 || items == 0 {
					t.Fatalf("chunk %d: %d advances, %d queries (%d items), %d merges, %d resets: the run proves nothing",
						bs, advances, queries, items, merges, resets)
				}
			}
		})
	}
}

// TestSlidingBlockCapacity is the off-by-one on its own: hhh.BlockKeys
// distinct keys in one frame reach no table until something reads the
// state, and one key more applies exactly those.
func TestSlidingBlockCapacity(t *testing.T) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	d, err := swhh.NewSlidingHHH(h, swhh.Config{Window: time.Second, Frames: 4, Counters: 512})
	if err != nil {
		t.Fatal(err)
	}
	b := trace.NewKeyBatch(0)
	for i := 0; i < hhh.BlockKeys; i++ { // two bytes of i: distinct however many keys the block holds
		b.Append(h.Key(addr.From4(10, byte(i>>8), byte(i), 1), 0), 100, 5)
		b.Append(h.Key(addr.From4(10, byte(i>>8), byte(i), 1), 0), 1, 5) // a repeat takes no room
	}
	d.UpdateKeys(b)
	if d.TableUpdates() != 0 {
		t.Fatalf("%d table updates with the block exactly full", d.TableUpdates())
	}
	b.Reset()
	b.Append(h.Key(addr.From4(10, 200, 0, 1), 0), 100, 5)
	d.UpdateKeys(b)
	// BlockKeys leaves, as many /24s, a /16 per 256 of them, one /8 and the root.
	full := int64(2*hhh.BlockKeys + (hhh.BlockKeys+255)/256 + 2)
	if d.TableUpdates() != full {
		t.Fatalf("%d table updates after the key the block had no room for, want %d", d.TableUpdates(), full)
	}
	if got, want := d.WindowTotal(5), int64(101*hhh.BlockKeys+100); got != want {
		t.Fatalf("window total %d, want %d", got, want)
	}
	if want := full + 5; d.TableUpdates() != want {
		t.Fatalf("%d table updates once read, want %d", d.TableUpdates(), want)
	}
}

// TestSlidingLastFrame: the frame that ends past the largest timestamp
// has no end to compare a packet against, and coalesces all the same.
func TestSlidingLastFrame(t *testing.T) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	cfg := swhh.Config{Window: 4 * time.Second, Frames: 8, Counters: 16}
	got, _ := swhh.NewSlidingHHH(h, cfg)
	ref := newRefSlidingHHH(t, h, cfg)
	b := trace.NewKeyBatch(0)
	for i := 0; i < 300; i++ {
		key, ts := h.Key(addr.From4(10, byte(i%3), byte(i%7), byte(i%40)), 0), int64(math.MaxInt64-600+2*i)
		b.Append(key, uint32(40+i), ts)
		ref.update(key, int64(40+i), ts)
	}
	got.UpdateKeys(b)
	if !bytes.Equal(wire.EncodeSliding(got), ref.seal()) {
		t.Fatal("the detector seals differently from the reference")
	}
	if got.TableUpdates() >= 300*int64(h.Levels()) {
		t.Fatalf("%d table updates for 300 packets: nothing was coalesced", got.TableUpdates())
	}
}
