package wire

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"hiddenhhh/internal/swhh"
)

// deltaChain is the delta fixture: the sliding-v4-block fixture sealed as a
// full frame under Seq 1, a frame's worth of further packets, and what was
// written since sealed as a delta over it — beside the whole summary the
// two stand for.
func deltaChain() (base, delta, whole []byte) {
	h := testHierarchy()
	d := testSlidingH(h, 0x50)
	base = SealSliding(d, false, 0, 0)
	frameNs := int64(slidingTestConfig().Window) / int64(slidingTestConfig().Frames)
	now := (d.LevelSummary(0).State().CurFrame + 1) * frameNs
	r := splitmix(0x52)
	for i := 0; i < 60; i++ {
		now += int64(r.next() % uint64(3*time.Millisecond))
		d.UpdateKeys(packet(h, addrFor(h, &r), int64(1+r.next()%9), now))
	}
	d.Advance(now)
	return base, SealSliding(d, true, 1, Checksum(base)), EncodeSliding(d)
}

func mustVerify(t testing.TB, frame []byte) Frame {
	t.Helper()
	f, err := Verify(frame)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestGoldenDelta holds the committed delta vectors to their bases, at
// either version: the committed full frame sliding-v4-block.wire, decoded,
// with sliding-v4-delta.wire applied over it as the frame sealed under Seq
// 1, re-encodes to sliding-v4-delta-whole-v2.wire byte for byte, and so does
// the -v2 triple's; each delta is a fraction of the whole, decodes on its
// own to the base it names, and re-encodes to itself.
func TestGoldenDelta(t *testing.T) {
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", name+".wire"))
		if err != nil {
			t.Fatalf("read golden: %v", err)
		}
		return b
	}
	whole := read("sliding-v4-delta-whole-v2")
	for _, suffix := range []string{"", "-v2"} {
		base, delta := read("sliding-v4-block"+suffix), read("sliding-v4-delta"+suffix)
		d, err := decodeAs[*swhh.SlidingHHH](base)
		if err != nil {
			t.Fatal(err)
		}
		v, err := decodeAs[SlidingDelta](delta)
		if err != nil {
			t.Fatal(err)
		}
		slots := testHierarchy().Levels() * (slidingTestConfig().Frames + 1)
		if v.BaseSeq != 1 || v.BaseSum != Checksum(base) || len(delta) > len(read("sliding-v4-delta-whole"+suffix))/2 {
			t.Fatalf("delta%s of %d bytes names base %d (%#08x)", suffix, len(delta), v.BaseSeq, v.BaseSum)
		}
		if re, err := Encode(v); err != nil || !bytes.Equal(re, delta) {
			t.Fatalf("the decoded delta%s does not re-encode to itself (%v)", suffix, err)
		}
		restored, skipped, err := mustVerify(t, delta).ApplySlidingDelta(d, 1, Checksum(base))
		if err != nil || restored == 0 || restored > slots/2 || restored+skipped != slots {
			t.Fatalf("apply%s: %d restored, %d left alone, %v", suffix, restored, skipped, err)
		}
		if !bytes.Equal(EncodeSliding(d), whole) {
			t.Fatalf("base%s + delta%s is not the whole summary", suffix, suffix)
		}
	}
}

// TestApplySlidingDelta drives a sender's chain — full frame, then deltas —
// into one retained detector with a reader that advances it in between, as
// the Aggregator does. After every delta applied the detector re-encodes to
// the sender's whole summary; a delta is refused with ErrBase, the detector
// bit for bit what it was, when it names another frame than the one the
// detector stands at, when the reader has expired a slot it leaves out, and
// when there is no detector; one a byte short is ErrCorrupt before the first
// write; the full-frame entry refuses a delta and the delta entry a full
// frame.
func TestApplySlidingDelta(t *testing.T) {
	h := testHierarchy()
	live, err := swhh.NewSlidingHHH(h, slidingTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := splitmix(17)
	now, seq, sum := int64(0), int64(0), uint32(0)
	// seal feeds the sender for span and seals it, whole or as a delta over
	// the frame before.
	seal := func(span time.Duration, full bool) (frame, whole []byte) {
		for end := now + int64(span); now < end; now += int64(r.next() % uint64(2*time.Millisecond)) {
			live.UpdateKeys(packet(h, addrFor(h, &r), int64(1+r.next()%9), now))
		}
		live.Advance(now)
		frame = SealSliding(live, !full, seq, sum)
		seq, sum = seq+1, Checksum(frame)
		return frame, EncodeSliding(live)
	}
	slots := h.Levels() * (slidingTestConfig().Frames + 1)

	f1, _ := seal(900*time.Millisecond, true)
	d, _, _, err := mustVerify(t, f1).RestoreSliding(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mustVerify(t, f1).ApplySlidingDelta(d, 0, 0); !errors.Is(err, ErrKind) {
		t.Fatalf("a full frame through the delta entry: %v", err)
	}
	atSeq, atSum := seq, sum // the frame d stands at
	for step, span := range []time.Duration{60 * time.Millisecond, 10 * time.Millisecond, 400 * time.Millisecond, 3 * time.Second, time.Millisecond} {
		frame, whole := seal(span, false)
		f := mustVerify(t, frame)
		before := EncodeSliding(d)
		if _, _, _, err := f.RestoreSliding(d); !errors.Is(err, ErrKind) {
			t.Fatalf("step %d: a delta through the full-frame entry: %v", step, err)
		}
		for name, try := range map[string]func() error{
			"another Seq":      func() error { _, _, err := f.ApplySlidingDelta(d, atSeq+1, atSum); return err },
			"another checksum": func() error { _, _, err := f.ApplySlidingDelta(d, atSeq, atSum^1); return err },
			"no detector":      func() error { _, _, err := f.ApplySlidingDelta(nil, atSeq, atSum); return err },
		} {
			if err := try(); !errors.Is(err, ErrBase) || !bytes.Equal(EncodeSliding(d), before) {
				t.Fatalf("step %d, %s: %v; detector untouched: %v", step, name, err, bytes.Equal(EncodeSliding(d), before))
			}
		}
		payload := frame[headerSize : len(frame)-crcSize]
		short := mustVerify(t, frameFor(KindSlidingDelta, f.Header.Family, f.Header.Step, f.Header.Depth, payload[:len(payload)-1]))
		if _, _, err := short.ApplySlidingDelta(d, atSeq, atSum); !errors.Is(err, ErrCorrupt) || !bytes.Equal(EncodeSliding(d), before) {
			t.Fatalf("step %d, a byte short: %v; detector untouched: %v", step, err, bytes.Equal(EncodeSliding(d), before))
		}
		restored, skipped, err := f.ApplySlidingDelta(d, atSeq, atSum)
		if err != nil || restored+skipped != slots || !bytes.Equal(EncodeSliding(d), whole) {
			t.Fatalf("step %d: %d restored, %d left alone, %v; the sender's summary: %v",
				step, restored, skipped, err, bytes.Equal(EncodeSliding(d), whole))
		}
		if span < 100*time.Millisecond && restored > 2*h.Levels() || span > 2*time.Second && skipped != 0 {
			t.Fatalf("step %d: %v of traffic restored %d slots and left %d", step, span, restored, skipped)
		}
		atSeq, atSum = seq, sum
	}

	// The reader runs ahead of the sender (an Aggregator advancing a lagging
	// node): the slots it expired are gone here and stand at the sender, so
	// the sender's next delta, which leaves them out, no longer fits.
	d.Advance(now + int64(600*time.Millisecond))
	before := EncodeSliding(d)
	frame, _ := seal(5*time.Millisecond, false)
	if _, _, err := mustVerify(t, frame).ApplySlidingDelta(d, atSeq, atSum); !errors.Is(err, ErrBase) || !bytes.Equal(EncodeSliding(d), before) {
		t.Fatalf("after the reader's advance: %v; detector untouched: %v", err, bytes.Equal(EncodeSliding(d), before))
	}
	// What cures it is a full frame, and the chain goes on from there.
	frame, _ = seal(5*time.Millisecond, true)
	if d, _, _, err = mustVerify(t, frame).RestoreSliding(d); err != nil {
		t.Fatal(err)
	}
	atSeq, atSum = seq, sum
	frame, whole := seal(20*time.Millisecond, false)
	if _, _, err := mustVerify(t, frame).ApplySlidingDelta(d, atSeq, atSum); err != nil || !bytes.Equal(EncodeSliding(d), whole) {
		t.Fatalf("the delta after the cure: %v", err)
	}
}

// FuzzSlidingDelta is the two-frame target: arbitrary payload bytes, framed
// as a delta, applied over a fixture summary as the frame it claims to
// follow. The apply never panics and fails only with a typed error; refused
// for want of its base (ErrBase) it leaves the summary bit for bit what it
// was; and whatever it answers, the summary still encodes to a frame that
// decodes and re-encodes to itself.
func FuzzSlidingDelta(f *testing.F) {
	base, delta, _ := deltaChain()
	payload := delta[headerSize : len(delta)-crcSize]
	f.Add(payload)
	f.Add(payload[:len(payload)/2])
	f.Add(append(slices.Clone(payload), 0))
	f.Add(payload[:deltaBaseSize+slidingGeometrySize+2])
	for _, off := range []int{0, 8, deltaBaseSize, deltaBaseSize + 8, deltaBaseSize + slidingGeometrySize, deltaBaseSize + slidingGeometrySize + 2, deltaBaseSize + slidingGeometrySize + 2 + 8} {
		p := slices.Clone(payload)
		p[off] ^= 0x21
		f.Add(p)
	}
	fam, step, depth := describe(testHierarchy())
	f.Fuzz(func(t *testing.T, payload []byte) {
		d, err := decodeAs[*swhh.SlidingHHH](base)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = mustVerify(t, frameFor(KindSlidingDelta, fam, step, depth, payload)).ApplySlidingDelta(d, 1, Checksum(base))
		switch {
		case errors.Is(err, ErrBase):
			if !bytes.Equal(EncodeSliding(d), base) {
				t.Fatal("a delta refused for want of its base altered the summary")
			}
		case err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrHierarchy):
			t.Fatalf("apply error %v does not wrap a typed wire error", err)
		}
		re := EncodeSliding(d)
		again, err := decodeAs[*swhh.SlidingHHH](re)
		if err != nil || !bytes.Equal(EncodeSliding(again), re) {
			t.Fatalf("after the apply the summary no longer round-trips: %v", err)
		}
	})
}
