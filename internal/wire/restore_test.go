package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/continuous"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/swhh"
)

// TestRestoreSlidingInPlace drives one sender's successive frames into
// one retained detector: every full frame restores every slot in place,
// and after every frame the detector re-encodes to the frame — also after
// the reader has advanced it, and for the same frame twice; a frame of
// another geometry gets a new detector; a frame that fails validation is
// an error.
func TestRestoreSlidingInPlace(t *testing.T) {
	h := testHierarchy()
	live, err := swhh.NewSlidingHHH(h, slidingTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := splitmix(11)
	now := int64(0)
	feed := func(d *swhh.SlidingHHH, span time.Duration) []byte {
		for end := now + int64(span); now < end; now += int64(r.next() % uint64(2*time.Millisecond)) {
			d.UpdateKeys(packet(h, addrFor(h, &r), int64(1+r.next()%9), now))
		}
		d.Advance(now)
		return EncodeSliding(d)
	}
	slots := h.Levels() * (slidingTestConfig().Frames + 1)
	verified := func(frame []byte) Frame {
		f, err := Verify(frame)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	f1 := feed(live, 900*time.Millisecond)
	d, restored, skipped, err := verified(f1).RestoreSliding(nil)
	if err != nil || restored != slots || skipped != 0 || !bytes.Equal(EncodeSliding(d), f1) {
		t.Fatalf("cold restore: %d restored, %d skipped, %v", restored, skipped, err)
	}
	// inPlace restores frame over d and holds it to the frame.
	inPlace := func(what string, frame []byte) {
		t.Helper()
		d2, restored, skipped, err := verified(frame).RestoreSliding(d)
		if err != nil || d2 != d {
			t.Fatalf("%s: in-place restore returned another detector (%v)", what, err)
		}
		if restored != slots || skipped != 0 || !bytes.Equal(EncodeSliding(d), frame) {
			t.Fatalf("%s: %d restored, %d skipped of %d; re-encodes equal: %v",
				what, restored, skipped, slots, bytes.Equal(EncodeSliding(d), frame))
		}
	}
	// 60 ms on: the filling slot changed, perhaps the next.
	inPlace("second frame", feed(live, 60*time.Millisecond))
	// The reader expires part of the ring (an Aggregator advancing a
	// lagging node); the next frame brings those slots back.
	d.Advance(now + int64(600*time.Millisecond))
	f3 := feed(live, 30*time.Millisecond)
	inPlace("after the reader's advance", f3)
	inPlace("the same frame again", f3)

	// Another geometry: a new detector, fully restored, the old one untouched.
	other, err := swhh.NewSlidingHHH(h, swhh.Config{Window: time.Second, Frames: 2, Counters: 64})
	if err != nil {
		t.Fatal(err)
	}
	fo := feed(other, 100*time.Millisecond)
	d4, restored, skipped, err := verified(fo).RestoreSliding(d)
	if err != nil || d4 == d || skipped != 0 || restored != h.Levels()*3 || !bytes.Equal(EncodeSliding(d4), fo) {
		t.Fatalf("geometry change: same detector %v, %d restored, %d skipped, %v", d4 == d, restored, skipped, err)
	}
	if !bytes.Equal(EncodeSliding(d), f3) {
		t.Fatal("a frame of another geometry modified the retained detector")
	}

	// A payload that parses but breaks a summary invariant (error bound
	// above the count), checksum made good again.
	bad := mangle(f3, func(b []byte) {
		// geometry 14 + levels 2 + clock 8 + frame total 8 + k 4 + total 8 + n 4 + key 8 + count 8 = err field
		off := headerSize + 14 + 2 + 8 + 8 + 4 + 8 + 4 + 8 + 8
		for i := 0; i < 8; i++ {
			b[off+i] = 0x7f
		}
	})
	if _, _, _, err := verified(bad).RestoreSliding(d); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("invalid slot: %v, want ErrCorrupt", err)
	}
}

// TestRestoreContinuousInPlace drives one sender's successive frames into
// one retained detector, as the Aggregator does: after every frame — of
// any version, across roll-overs of the sender's landmark — the detector
// is the one it was, re-encodes to what a cold decode of the frame
// re-encodes to, and the restore allocated nothing that grows with the
// filters; a frame of another configuration gets a new detector; a frame
// of another kind or one that fails validation is an error.
func TestRestoreContinuousInPlace(t *testing.T) {
	h := testHierarchy()
	cfg := continuousTestConfig(h, 5)
	cfg.Filter.Cells = 1 << 14
	live, err := continuous.NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := splitmix(13)
	now := int64(0)
	feed := func(d *continuous.Detector, span time.Duration) Frame {
		for end := now + int64(span); now < end; now += int64(r.next() % uint64(2*time.Millisecond)) {
			d.ObserveKeys(packet(h, addrFor(h, &r), int64(1+r.next()%9), now))
		}
		frame, _ := EncodeContinuous(d)
		f, err := Verify(frame)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	encoded := func(d *continuous.Detector) []byte {
		frame, _ := EncodeContinuous(d)
		return frame
	}
	d, err := feed(live, time.Second).RestoreContinuous(nil)
	if err != nil {
		t.Fatal(err)
	}
	landmarks := map[int64]bool{}
	for round := 0; round < 6; round++ {
		f := feed(live, 12*time.Second) // tau is 500 ms: a roll-over every 32 s
		cold, err := f.RestoreContinuous(nil)
		if err != nil {
			t.Fatal(err)
		}
		var got *continuous.Detector
		allocs := testing.AllocsPerRun(1, func() { got, err = f.RestoreContinuous(d) })
		if err != nil || got != d {
			t.Fatalf("round %d: in-place restore returned another detector (%v)", round, err)
		}
		if !bytes.Equal(encoded(d), encoded(cold)) || !bytes.Equal(encoded(d), encoded(live)) {
			t.Fatalf("round %d: the retained detector differs from a cold decode of the frame", round)
		}
		if allocs > 16 {
			t.Fatalf("round %d: in-place restore made %v allocations", round, allocs)
		}
		landmarks[d.State().Total.Touch] = true
	}
	if len(landmarks) < 2 {
		t.Fatal("the sender's landmark never rolled over")
	}

	// A frame of another configuration — the version-1 vector, a tenth of
	// the cells — gets a detector of its own, into which it then restores
	// in place like any other.
	v1 := func() Frame {
		frame, err := os.ReadFile(filepath.Join("testdata", "continuous-v4.wire"))
		if err != nil {
			t.Fatal(err)
		}
		f, err := Verify(frame)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}()
	old, err := v1.RestoreContinuous(nil)
	if err != nil {
		t.Fatal(err)
	}
	mark := encoded(d)
	if got, err := v1.RestoreContinuous(d); err != nil || got == d {
		t.Fatalf("a frame of another configuration was restored over the retained detector (%v)", err)
	} else if !bytes.Equal(encoded(got), encoded(old)) || !bytes.Equal(encoded(d), mark) {
		t.Fatal("a frame of another configuration modified the retained detector, or restored differently")
	}
	if got, err := v1.RestoreContinuous(old); err != nil || got != old || !bytes.Equal(encoded(old), encoded(testContinuousDecoded(t, v1))) {
		t.Fatalf("version-1 frame over its own detector: same %v, %v", got == old, err)
	}

	pl, err := Verify(EncodePerLevel(testPerLevel(3)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.RestoreContinuous(d); !errors.Is(err, ErrKind) {
		t.Fatalf("RestoreContinuous(per-level frame) = %v, want ErrKind", err)
	}
	// Two occupied cells declared in the last level, the root's one-cell
	// column, checksum made good again: the levels before it are already
	// written when it is found.
	f := feed(live, time.Second)
	frame := encoded(live)
	bad, err := Verify(mangle(frame, func(b []byte) {
		// The root's section ends in its occupied count and its one mass.
		binary.LittleEndian.PutUint32(b[len(b)-crcSize-denseCellSize-4:], 2)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.RestoreContinuous(d); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("invalid row: %v, want ErrCorrupt", err)
	}
	if bytes.Equal(encoded(d), mark) {
		t.Fatal("the failed restore left the retained detector as it was: the frame was not bad where the test means it to be")
	}
	if got, err := f.RestoreContinuous(d); err != nil || got != d || !bytes.Equal(encoded(d), frame) {
		t.Fatalf("a good frame over a half-written detector: %v", err)
	}
}

// testContinuousDecoded is the cold decode of a verified continuous frame.
func testContinuousDecoded(t *testing.T, f Frame) *continuous.Detector {
	t.Helper()
	d, err := f.RestoreContinuous(nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDecodeSSInto: a Space-Saving sub-payload restores into a summary of
// its capacity without allocating, and into a new one otherwise; either
// re-encodes to the frame it came from.
func TestDecodeSSInto(t *testing.T) {
	frame := EncodeSpaceSaving(testSpaceSaving(3, 500))
	f, err := Verify(frame)
	if err != nil {
		t.Fatal(err)
	}
	decode := func(into *sketch.SpaceSaving) *sketch.SpaceSaving {
		t.Helper()
		c := cursor{b: f.payload, ok: true}
		s, err := decodeSS(&c, into)
		if err != nil || c.finish() != nil {
			t.Fatalf("decodeSS: %v", err)
		}
		return s
	}
	same := sketch.NewSpaceSaving(32)
	if allocs := testing.AllocsPerRun(20, func() { decode(same) }); allocs != 0 {
		t.Fatalf("restoring into a summary of the frame's capacity allocates %.0f times", allocs)
	}
	if got := decode(same); got != same || !bytes.Equal(EncodeSpaceSaving(got), frame) {
		t.Fatalf("same capacity: restored into the summary %v, re-encodes equal %v", got == same, bytes.Equal(EncodeSpaceSaving(got), frame))
	}
	other := sketch.NewSpaceSaving(16)
	if allocs := testing.AllocsPerRun(20, func() { decode(other) }); allocs == 0 {
		t.Fatal("a summary of another capacity took the frame without a new one")
	}
	if got := decode(other); got == other || got.Capacity() != 32 || other.Len() != 0 || !bytes.Equal(EncodeSpaceSaving(got), frame) {
		t.Fatalf("other capacity: reused %v, capacity %d, re-encodes equal %v", got == other, got.Capacity(), bytes.Equal(EncodeSpaceSaving(got), frame))
	}
}

// TestDecodeInto drives successive frames of each kind into the summary
// the first decoded to: the summary is the one returned, its tables the
// ones it had, and it re-encodes to each frame in turn; a full sliding
// frame reports every ring slot restored. Memento frames decode anew. A
// summary of another hierarchy is left alone for a new one.
func TestDecodeInto(t *testing.T) {
	h := testHierarchy()
	engine := func(v any) []any { return []any{v} }
	continuousFrames := func() (first, next []byte) {
		d := testContinuous(t, 1)
		first, _ = EncodeContinuous(d)
		r := splitmix(9)
		for now := int64(3 * time.Second); now < int64(4*time.Second); now += int64(r.next() % uint64(2*time.Millisecond)) {
			d.ObserveKeys(packet(h, addrFor(h, &r), int64(1+r.next()%9), now))
		}
		next, _ = EncodeContinuous(d)
		return first, next
	}
	cont0, cont1 := continuousFrames()
	contV6, _ := EncodeContinuous(testContinuousH(t, testHierarchyV6(), 3))
	for _, tc := range []struct {
		name   string
		frames [3][]byte         // two of h, one of another hierarchy
		tables func(v any) []any // what a restore keeps; nil: decoded anew
		slots  int               // ring slots a frame of h restores
	}{
		{"exact",
			[3][]byte{EncodeExact(h, testExact(1, 300)), EncodeExact(h, testExact(2, 400)), EncodeExact(testHierarchyV6(), testExact(3, 100))},
			func(v any) []any { return []any{v.(ExactSummary).Leaves} }, 0},
		{"perlevel",
			[3][]byte{EncodePerLevel(testPerLevel(1)), EncodePerLevel(testPerLevel(2)), EncodePerLevel(testPerLevelH(testHierarchyV6(), 3))},
			func(v any) []any { p := v.(*hhh.PerLevel); return levelsOf(p.Hierarchy(), p.LevelSummary) }, 0},
		{"rhhh",
			[3][]byte{EncodeRHHH(testRHHH(1)), EncodeRHHH(testRHHH(2)), EncodeRHHH(testRHHHH(testHierarchyV6(), 3))},
			func(v any) []any { r := v.(*hhh.RHHH); return levelsOf(r.Hierarchy(), r.LevelSummary) }, 0},
		{"wcss",
			[3][]byte{EncodeSliding(testSliding(1)), EncodeSliding(testSliding(2)), EncodeSliding(testSlidingH(testHierarchyV6(), 3))},
			engine, h.Levels() * (slidingTestConfig().Frames + 1)},
		{"memento",
			[3][]byte{EncodeMemento(testMemento(1)), EncodeMemento(testMemento(2)), EncodeMemento(testMementoH(testHierarchyV6(), 3))},
			nil, 0},
		{"tdbf", [3][]byte{cont0, cont1, contV6}, engine, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reencode := func(v any) []byte {
				b, err := Encode(v)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			into := func(prev any, frame []byte) (any, int) {
				t.Helper()
				f, err := Verify(frame)
				if err != nil {
					t.Fatal(err)
				}
				v, restored, err := f.DecodeInto(prev)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(reencode(v), frame) {
					t.Fatal("the restored summary re-encodes to another frame")
				}
				return v, restored
			}
			var prev any
			for i, frame := range [][]byte{tc.frames[0], tc.frames[1], tc.frames[0], tc.frames[1]} {
				var kept []any
				if i > 0 && tc.tables != nil {
					kept = tc.tables(prev)
				}
				v, restored := into(prev, frame)
				if restored != tc.slots {
					t.Fatalf("%d ring slots restored, want %d", restored, tc.slots)
				}
				switch {
				case i == 0:
				case tc.tables == nil && v == prev:
					t.Fatal("a frame restored over a summary its kind decodes anew")
				case tc.tables != nil && (v != prev || !slices.Equal(tc.tables(v), kept)):
					t.Fatal("a frame of the summary's hierarchy did not restore into its tables")
				}
				prev = v
			}
			if v, _ := into(prev, tc.frames[2]); v == prev && tc.name != "exact" {
				t.Fatal("a frame of another hierarchy restored over the summary")
			}
			if tc.name != "exact" && !bytes.Equal(reencode(prev), tc.frames[1]) {
				t.Fatal("a frame of another hierarchy modified the summary")
			}
		})
	}
}

// levelsOf lists an engine's level summaries.
func levelsOf(h addr.Hierarchy, level func(int) *sketch.SpaceSaving) []any {
	out := make([]any, h.Levels())
	for l := range out {
		out[l] = level(l)
	}
	return out
}
