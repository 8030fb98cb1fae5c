package continuous_test

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/continuous"
	"hiddenhhh/internal/tdbf"
	"hiddenhhh/internal/trace"
	"hiddenhhh/internal/wire"
)

// TestChunkingLeavesIdenticalFrames: state is a function of the stream.
// The same packets through ObserveKeys one at a time and in chunks of 7,
// 256 and 2²⁰ seal to byte-identical frames — cells, landmark and all — at
// several points of a stream long enough, against its time constant, to
// roll the landmark over many times: a roll-over happens at the packet
// whose timestamp calls for it, wherever the batch boundaries fall, and so
// does the settle of the coalescing block before it. The landmark is
// probed after every chunk without settling the block, which a read would.
// (This lives in an external test package because the codec imports the
// detector.)
func TestChunkingLeavesIdenticalFrames(t *testing.T) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	tau := 20 * time.Millisecond
	rng := rand.New(rand.NewSource(23))
	pkts := make([]trace.Packet, 30000)
	now := int64(1_700_000_000_000_000_000)
	for i := range pkts {
		now += int64(rng.Intn(int(600 * time.Microsecond))) // 9 s: seven roll-overs at 64 tau
		if rng.Intn(5000) == 0 {
			now += int64(100 * tau) // an idle gap longer than a landmark epoch
		}
		src := addr.From4(10, byte(rng.Intn(3)), byte(rng.Intn(6)), byte(rng.Intn(50)))
		pkts[i] = trace.Packet{Ts: now, Src: src, Size: uint32(40 + rng.Intn(1460))}
	}
	for _, sampled := range []bool{false, true} {
		mk := func() *continuous.Detector {
			d, err := continuous.NewDetector(continuous.Config{
				Hierarchy: h, Phi: 0.05, Sampled: sampled, Seed: 3,
				Filter: tdbf.Config{Cells: 1 << 10, Hashes: 3, Decay: tdbf.Exponential{Tau: tau}},
			})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		// frames replays pkts in chunks of bs and seals after every third
		// of the stream (cutting the chunk there, as a barrier would).
		frames := func(bs int) (out [][]byte, landmarks map[int64]bool) {
			d := mk()
			kb := trace.NewKeyBatch(min(bs, len(pkts)))
			landmarks = map[int64]bool{}
			for third := 0; third < 3; third++ {
				part := pkts[third*len(pkts)/3 : (third+1)*len(pkts)/3]
				for off := 0; off < len(part); off += bs {
					kb.Reset()
					kb.AppendPackets(h, part[off:min(off+bs, len(part))])
					d.ObserveKeys(kb)
					landmarks[continuous.Landmark(d)] = true // State would settle the block
				}
				frame := wire.EncodeContinuous(d)
				out = append(out, frame)
			}
			return out, landmarks
		}
		want, landmarks := frames(1)
		if len(landmarks) < 5 {
			t.Fatalf("sampled=%v: the stream stood at %d landmarks only", sampled, len(landmarks))
		}
		for _, bs := range []int{7, 256, 1 << 20} {
			got, _ := frames(bs)
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("sampled=%v: chunks of %d: frame %d differs from the per-packet replay's", sampled, bs, i)
				}
			}
		}
		if f, err := wire.Verify(want[2]); err != nil || f.Header.Version != wire.VersionLevelsDict {
			t.Fatalf("sampled=%v: sealed frame: version %d, %v", sampled, f.Header.Version, err)
		}
	}
}

// TestHostileStampsLeaveIdenticalFrames: the ahead-of-time factor pass
// resolves a run of stamps before the packets that carry them, and where
// it cuts a run must depend on the stamps alone. A stream whose detector
// packets begin in the middle of a caller's batch (the packets before are
// another family's, filtered where they are packed), with a roll-over in
// mid-batch, stamps that run backwards — by a little, and by more than a
// landmark epoch — and math.MinInt64 and math.MaxInt64 among them, seals
// to byte-identical frames at every third of the stream whether it is fed
// one packet at a time or in batches of 7, 256 and 2²⁰ — the batched
// replays, unsampled, through a detector Reset after another stream: a used
// time base with no landmark. Every frame decodes, and the same stream with
// its first detector packet stamped math.MaxInt64 admits nothing: on the
// clamped clock no time passes after that first instant, so the warm-up
// never ends.
func TestHostileStampsLeaveIdenticalFrames(t *testing.T) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	tau := 20 * time.Millisecond
	rng := rand.New(rand.NewSource(29))
	var pkts []trace.Packet
	now := int64(1_700_000_000_000_000_000)
	for i := 0; i < 300; i++ { // no detector packet yet: every batch size finds the first one elsewhere
		pkts = append(pkts, trace.Packet{Ts: now, Src: addr.FromParts(0x2001_0db8<<32, uint64(i)), Size: 100})
	}
	for i := 0; i < 12000; i++ {
		now += int64(rng.Intn(int(300 * time.Microsecond)))
		ts := now
		switch {
		case i%1000 == 999:
			now += int64(65 * tau) // a roll-over wherever the batch boundaries fall
		case i%700 == 350:
			ts = now - int64(3*tau) // a straggler
		case i%2300 == 1200:
			ts = now - int64(200*tau) // one from before the landmark's epoch
		case i == 5000:
			ts = math.MaxInt64
		case i == 5003 || i == 9000:
			ts = math.MinInt64
		case i == 9001:
			ts = math.MaxInt64 - 1
		}
		src := addr.From4(10, byte(rng.Intn(3)), byte(rng.Intn(6)), byte(rng.Intn(50)))
		pkts = append(pkts, trace.Packet{Ts: ts, Src: src, Size: uint32(40 + rng.Intn(1460))})
	}
	firstAtMax := slices.Clone(pkts)
	firstAtMax[300].Ts = math.MaxInt64
	for _, sampled := range []bool{false, true} {
		frames := func(pkts []trace.Packet, bs int, used bool) (out [][]byte, admitted int) {
			d, err := continuous.NewDetector(continuous.Config{
				Hierarchy: h, Phi: 0.05, Sampled: sampled, Seed: 3,
				Filter: tdbf.Config{Cells: 1 << 10, Hashes: 3, Decay: tdbf.Exponential{Tau: tau}},
			})
			if err != nil {
				t.Fatal(err)
			}
			kb := trace.NewKeyBatch(min(bs, len(pkts)))
			if used {
				kb.AppendPackets(h, pkts[:5000])
				d.ObserveKeys(kb)
				d.Reset()
			}
			for third := 0; third < 3; third++ {
				part := pkts[third*len(pkts)/3 : (third+1)*len(pkts)/3]
				for off := 0; off < len(part); off += bs {
					kb.Reset()
					kb.AppendPackets(h, part[off:min(off+bs, len(part))])
					d.ObserveKeys(kb)
				}
				frame := wire.EncodeContinuous(d)
				if _, err := wire.Decode(frame); err != nil {
					t.Fatalf("sampled=%v: batches of %d: sealed frame %d does not decode: %v", sampled, bs, third, err)
				}
				out, admitted = append(out, frame), admitted+d.ActiveLen()
			}
			if d.Packets() != 12000 {
				t.Fatalf("%d packets observed", d.Packets())
			}
			return out, admitted
		}
		if _, admitted := frames(firstAtMax, 1, false); admitted != 0 {
			t.Errorf("sampled=%v: first stamp math.MaxInt64: %d prefixes admitted during the warm-up", sampled, admitted)
		}
		want, admitted := frames(pkts, 1, false)
		if admitted == 0 {
			t.Fatalf("sampled=%v: the stream admitted nothing", sampled)
		}
		for _, bs := range []int{7, 256, 1 << 20} {
			// Reset leaves the level sampler where it stands, so only the
			// unsampled detector replays identically after one.
			got, _ := frames(pkts, bs, !sampled)
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("sampled=%v: batches of %d: frame %d differs from the per-packet replay's", sampled, bs, i)
				}
			}
		}
	}
}
