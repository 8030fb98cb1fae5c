package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/continuous"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/swhh"
	"hiddenhhh/internal/tdbf"
)

// TestDecodeSSHostileCapacity: a frame's capacity costs nothing until
// entries fill it. The empty Space-Saving frame of capacity 2^20, the
// largest the budget admits, is 40 bytes; decoding it allocates a summary
// with a 4-slot index, not a million entries' storage.
func TestDecodeSSHostileCapacity(t *testing.T) {
	frame := EncodeSpaceSaving(sketch.NewSpaceSaving(maxCounters))
	decode := func() {
		if v, err := Decode(frame); err != nil || v.(*sketch.SpaceSaving).Capacity() != maxCounters {
			t.Fatalf("Decode: %v, %v", v, err)
		}
	}
	decode()
	const runs = 100
	per := leastAlloc(func() {
		for i := 0; i < runs; i++ {
			decode()
		}
	}) / runs
	if per >= 4096 {
		t.Fatalf("decoding a %d-byte empty frame of capacity %d allocates %d B", len(frame), maxCounters, per)
	}
	t.Logf("a %d-byte empty frame of capacity %d decodes in %d B", len(frame), maxCounters, per)
}

// hostileColumns are the version-2 Space-Saving frames a decoder refuses
// for their columns alone — each beside a well-formed table of the same
// entries (nil want): keys 0x1200 and 0x3400, counts 50 and 30, error
// bounds 3 and 0, whose own columns are (shift 9, 1, 1, 1).
func hostileColumns() []struct {
	name  string
	frame []byte
	want  error
} {
	entries := [][3]uint64{{0x1200, 50, 3}, {0x3400, 30, 0}}
	ss := func(w ssCols, entries ...[3]uint64) []byte {
		return frameFor(KindSpaceSaving, 0, 0, 0, ssColumns(1<<20, 100, w, entries...))
	}
	// Shifted 4, the key's top four bits go past 64 and what is left still
	// fills 8 bytes: only the loss gives it away.
	lossy := ssColumns(8, 100, ssCols{0, 8, 1, 1}, [3]uint64{0xf1<<56 | 1, 50, 3})
	lossy[16] = 4
	unbacked := func(w ssCols) []byte {
		p := appendU32(nil, 1<<20)
		p = appendI64(p, 100)
		return frameFor(KindSpaceSaving, 0, 0, 0, append(appendU32(p, 1<<20), w.shift, w.kw, w.cw, w.ew))
	}
	return []struct {
		name  string
		frame []byte
		want  error
	}{
		{"well-formed", ss(ssCols{9, 1, 1, 1}, entries...), nil},
		{"empty", ss(ssCols{}), nil},
		{"key-width-not-minimal", ss(ssCols{9, 2, 1, 1}, entries...), ErrCorrupt},
		{"count-width-not-minimal", ss(ssCols{9, 1, 2, 1}, entries...), ErrCorrupt},
		{"error-width-not-minimal", ss(ssCols{9, 1, 1, 2}, entries...), ErrCorrupt},
		{"shift-not-minimal", ss(ssCols{8, 1, 1, 1}, entries...), ErrCorrupt},
		{"shift-of-zero-keys", ss(ssCols{3, 0, 1, 0}, [3]uint64{0, 5, 0}), ErrCorrupt},
		{"shift-past-64", ss(ssCols{200, 0, 1, 0}, [3]uint64{0, 5, 0}), ErrCorrupt},
		{"columns-of-no-entries", ss(ssCols{0, 0, 1, 0}), ErrCorrupt},
		{"key-width-above-8", ss(ssCols{0, 9, 1, 1}, entries...), ErrCorrupt},
		{"count-width-above-8", ss(ssCols{9, 1, 9, 1}, entries...), ErrCorrupt},
		{"error-width-far-above-8", ss(ssCols{9, 1, 1, 200}, entries...), ErrCorrupt},
		{"count-width-far-above-8", ss(ssCols{9, 1, 200, 1}, entries...), ErrCorrupt},
		{"key-loses-bits", frameFor(KindSpaceSaving, 0, 0, 0, lossy), ErrCorrupt},
		{"count-column-empty", ss(ssCols{9, 1, 0, 1}, entries...), ErrCorrupt},
		{"2^20-entries-in-no-bytes", unbacked(ssCols{}), ErrCorrupt},
		{"2^20-entries-short", unbacked(ssCols{0, 1, 1, 0}), ErrCorrupt},
	}
}

// TestDecodeSSHostileColumns: a version-2 table's columns are held to its
// entries — the fewest bytes of each column, the keys' common trailing
// zeros, a count column whenever there are entries, no key shifted out of
// 64 bits — and a count the payload does not back is refused before
// anything is sized from it: each hostile frame is ErrCorrupt, and costs
// what a well-formed empty one of the same capacity does, not 2^20 entries'
// storage.
func TestDecodeSSHostileColumns(t *testing.T) {
	for _, tc := range hostileColumns() {
		t.Run(tc.name, func(t *testing.T) {
			v, err := Decode(tc.frame)
			if !errors.Is(err, tc.want) || (err != nil) != (v == nil) {
				t.Fatalf("Decode = %T, %v; want %v", v, err, tc.want)
			}
			if tc.want == nil {
				if re, _ := Encode(v); !bytes.Equal(re, tc.frame) {
					t.Fatal("a well-formed frame does not re-encode to itself")
				}
				return
			}
			const runs = 20
			per := leastAlloc(func() {
				for i := 0; i < runs; i++ {
					Decode(tc.frame)
				}
			}) / runs
			if per >= 4096 {
				t.Fatalf("refusing a %d-byte frame allocates %d B", len(tc.frame), per)
			}
		})
	}
}

// leastAlloc is the fewest bytes one of five calls of f allocates, read off
// the process-wide count: another goroutine's allocations can only add to a
// call's.
func leastAlloc(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestSlidingHostileColumns: the sliding kinds read their slots through the
// same table reader. A full frame with a slot whose count column is wider
// than its counts is ErrCorrupt; so is a delta carrying that slot where it
// is applied — a delta's entries are checked where they are restored, so
// decoded alone it passes — and a well-formed delta applies over the
// frame's summary.
func TestSlidingHostileColumns(t *testing.T) {
	h := testHierarchy()
	cfg := swhh.Config{Window: time.Second, Frames: 1, Counters: 4}
	fam, step, depth := describe(h)
	// payload is the ring of one clock-0 frame per level, every slot empty
	// but level 0's first, which holds one entry of count 5 in a count
	// column cw bytes wide: with a delta's base and bitmaps, that slot the
	// only one carried.
	payload := func(delta bool, cw uint8, sum uint32) []byte {
		var p []byte
		if delta {
			p = appendU32(appendI64(p, 1), sum)
		}
		p = appendI64(p, int64(cfg.Window))
		p = appendU16(p, uint16(cfg.Frames))
		p = appendU32(p, uint32(cfg.Counters))
		p = appendU16(p, uint16(h.Levels()))
		for l := 0; l < h.Levels(); l++ {
			p = appendI64(p, 0)
			if delta && l == 0 {
				p = append(p, 1)
			} else if delta {
				p = append(p, 0)
				continue
			}
			for i := 0; i <= cfg.Frames; i++ {
				if l == 0 && i == 0 {
					p = appendI64(p, 5)
					p = append(p, ssColumns(uint32(cfg.Counters), 5, ssCols{24, 1, cw, 0}, [3]uint64{0x0b000000, 5, 0})...)
				} else if !delta {
					p = appendI64(p, 0)
					p = append(p, ssPayload(uint32(cfg.Counters), 0)...)
				}
			}
		}
		kind := KindSliding
		if delta {
			kind = KindSlidingDelta
		}
		return frameFor(kind, fam, step, depth, p)
	}
	base := payload(false, 1, 0)
	d, err := decodeAs[*swhh.SlidingHHH](base)
	if err != nil || !bytes.Equal(EncodeSliding(d), base) {
		t.Fatalf("well-formed full frame: %v", err)
	}
	if _, err := Decode(payload(false, 2, 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("full frame, count column too wide: %v", err)
	}
	bad := mustVerify(t, payload(true, 2, Checksum(base)))
	if _, err := bad.Decode(); err != nil {
		t.Fatalf("delta, count column too wide, decoded alone: %v", err)
	}
	if _, _, err := bad.ApplySlidingDelta(d, 1, Checksum(base)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("delta, count column too wide: %v", err)
	}
	if d, err = decodeAs[*swhh.SlidingHHH](base); err != nil {
		t.Fatal(err)
	}
	if restored, _, err := mustVerify(t, payload(true, 1, Checksum(base))).ApplySlidingDelta(d, 1, Checksum(base)); err != nil || restored != 1 {
		t.Fatalf("well-formed delta: %d restored, %v", restored, err)
	}
}

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

	// A payload that parses but breaks a summary invariant (a key twice in
	// a table), checksum made good again.
	bad := mangle(f3, func(b []byte) {
		// geometry 14 + levels 2 + clock 8 + frame total 8 + k 4 + total 8 + n 4 = columns
		cols := headerSize + 14 + 2 + 8 + 8 + 4 + 8
		if binary.LittleEndian.Uint32(b[cols:]) < 2 {
			t.Fatal("level 0 slot 0 holds fewer than two entries")
		}
		cols += 4
		kw, stride := int(b[cols+1]), int(b[cols+1])+int(b[cols+2])+int(b[cols+3])
		copy(b[cols+4+stride:cols+4+stride+kw], b[cols+4:])
	})
	if _, _, _, err := verified(bad).RestoreSliding(d); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("invalid slot: %v, want ErrCorrupt", err)
	}
}

// restoreAllocs is what a continuous frame's in-place restore may allocate
// once the pooled scratch is warm: nothing. The cells are written straight
// into the filters and the active set is read into the scratch.
const restoreAllocs = 0

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
		frame := EncodeContinuous(d)
		f, err := Verify(frame)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	encoded := func(d *continuous.Detector) []byte {
		frame := EncodeContinuous(d)
		return frame
	}
	d, err := feed(live, time.Second).RestoreContinuous(nil)
	if err != nil {
		t.Fatal(err)
	}
	landmarks, most := map[int64]bool{}, 0.0
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
		if allocs > restoreAllocs && !raceEnabled { // the race build's sync.Pool drops the scratch at random
			t.Fatalf("round %d: in-place restore made %v allocations", round, allocs)
		}
		landmarks[d.State().Total.Touch] = true
		most = max(most, allocs)
	}
	t.Logf("a warm in-place restore: at most %v allocations a frame", most)
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
	// Two frames that are bad only in a level after the leaf's: the restore
	// writes the levels before it, so the retained detector is left partly
	// written, and the next good frame restores over it in place. Before
	// each, d stands as an earlier frame left it. The sender is a new one,
	// whose few keys leave the levels dictionaries.
	sender, err := continuous.NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	earlier := feed(sender, 50*time.Millisecond)
	f := feed(sender, 50*time.Millisecond)
	frame := encoded(sender)
	cold := testContinuousDecoded(t, f)
	// level returns the offset of level l's section in a frame of cfg's
	// shape, and the section's code.
	level := func(b []byte, l int) (at int, k levelCode) {
		at = headerSize + continuousHeaderSize + int(binary.LittleEndian.Uint32(b[headerSize+continuousHeaderSize-6:]))*activeRowSize
		for i := 0; ; i++ {
			p := b[at+levelHeaderSize-4:]
			k = levelCode{n: int(binary.LittleEndian.Uint32(p)), m: int(binary.LittleEndian.Uint32(p[4:])), gw: p[8], iw: p[9]}
			if i == l {
				return at, k
			}
			at += k.size(cold.Filters()[i].Cells())
		}
	}
	sameCells := func(a, b *tdbf.Filter) bool {
		for j := 0; j*tdbf.LineCells < a.Cells(); j++ {
			if *a.Line(j) != *b.Line(j) {
				return false
			}
		}
		return a.Cells() == b.Cells()
	}
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		// The root's one-cell column declares two occupied cells.
		{"root-count", mangle(frame, func(b []byte) {
			at, _ := level(b, h.Levels()-1)
			binary.LittleEndian.PutUint32(b[at+levelHeaderSize-4:], 2)
		})},
		// The /24 level's last dictionary row has a gap of 0.
		{"slash24-row", mangle(frame, func(b []byte) {
			at, k := level(b, 1)
			if cells := cold.Filters()[1].Cells(); k.n < 2 || k.dense(cells) {
				t.Fatalf("/24's section is not a dictionary of rows: %+v in %d cells", k, cells)
			}
			clear(b[at+k.size(cold.Filters()[1].Cells())-int(k.gw+k.iw):][:k.gw])
		})},
	} {
		bad, err := Verify(tc.frame)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := earlier.RestoreContinuous(d); err != nil {
			t.Fatal(err)
		}
		mark := encoded(d)
		if sameCells(d.Filters()[0], cold.Filters()[0]) {
			t.Fatalf("%s: the earlier frame's leaf level is the good frame's", tc.name)
		}
		if _, err := bad.RestoreContinuous(d); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: %v, want ErrCorrupt", tc.name, err)
		}
		if bytes.Equal(encoded(d), mark) || !sameCells(d.Filters()[0], cold.Filters()[0]) {
			t.Fatalf("%s: the failed restore did not write the leaf level: the frame was not bad where the test means it to be", tc.name)
		}
		if got, err := f.RestoreContinuous(d); err != nil || got != d || !bytes.Equal(encoded(d), frame) {
			t.Fatalf("%s: a good frame over a half-written detector: %v", tc.name, err)
		}
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
// its capacity without allocating once that summary's storage holds the
// entries, and into a new one otherwise; either re-encodes to the frame it
// came from.
func TestDecodeSSInto(t *testing.T) {
	frame := EncodeSpaceSaving(testSpaceSaving(3, 500))
	f, err := Verify(frame)
	if err != nil {
		t.Fatal(err)
	}
	decode := func(into *sketch.SpaceSaving) *sketch.SpaceSaving {
		t.Helper()
		c := cursor{b: f.payload, ok: true, version: f.Header.Version}
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
		first = EncodeContinuous(d)
		r := splitmix(9)
		for now := int64(3 * time.Second); now < int64(4*time.Second); now += int64(r.next() % uint64(2*time.Millisecond)) {
			d.ObserveKeys(packet(h, addrFor(h, &r), int64(1+r.next()%9), now))
		}
		next = EncodeContinuous(d)
		return first, next
	}
	cont0, cont1 := continuousFrames()
	contV6 := EncodeContinuous(testContinuousH(t, testHierarchyV6(), 3))
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
			[3][]byte{EncodePerLevel(testRHHH(1)), EncodePerLevel(testRHHH(2)), EncodePerLevel(testRHHHH(testHierarchyV6(), 3))},
			func(v any) []any { r := v.(*hhh.PerLevel); return levelsOf(r.Hierarchy(), r.LevelSummary) }, 0},
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

// TestWindowedRestoreInPlaceAcrossSettings: RHHH is PerLevel's
// level-sampled setting, so a frame of either kind restores in place into
// an engine in the other setting and takes the frame's: a KindRHHH frame
// into an unsampled engine with a packet pending in its block, a
// KindPerLevel frame into a sampled engine. Each restores into the engine's
// own level tables and re-encodes to its frame; the sampled result holds no
// block and, fed on, matches a cold decode of the same frame.
func TestWindowedRestoreInPlaceAcrossSettings(t *testing.T) {
	h := testHierarchy()
	for _, tc := range []struct {
		name    string
		into    *hhh.PerLevel
		frame   []byte
		sampled bool
	}{
		{"rhhh-into-perlevel", testPerLevel(3), EncodePerLevel(testRHHH(1)), true},
		{"perlevel-into-rhhh", testRHHH(4), EncodePerLevel(testPerLevel(2)), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := splitmix(5)
			tables := levelsOf(h, tc.into.LevelSummary)
			tc.into.UpdateKeys(packet(h, addrFor(h, &r), 7, 0)) // pending in an unsampled engine's block
			f, err := Verify(tc.frame)
			if err != nil {
				t.Fatal(err)
			}
			v, _, err := f.DecodeInto(tc.into)
			if err != nil {
				t.Fatal(err)
			}
			got, cold := v.(*hhh.PerLevel), mustDecode[*hhh.PerLevel](t)(tc.frame)
			if got != tc.into || !slices.Equal(levelsOf(h, got.LevelSummary), tables) {
				t.Fatal("the frame did not restore into the engine's own tables")
			}
			if sampled, _, _ := got.Sampled(); sampled != tc.sampled {
				t.Fatalf("restored sampled=%v, want %v", sampled, tc.sampled)
			}
			if !bytes.Equal(EncodePerLevel(got), tc.frame) {
				t.Fatal("the restored engine re-encodes to another frame")
			}
			levels := 0
			for l := range h.Levels() {
				levels += got.LevelSummary(l).SizeBytes()
			}
			if tc.sampled && got.SizeBytes() != levels {
				t.Fatalf("sampled engine holds %d bytes, %d in its levels: a block is counted", got.SizeBytes(), levels)
			}
			for i := 0; i < 200; i++ {
				b := packet(h, addrFor(h, &r), 1+int64(r.next()%9), 0)
				got.UpdateKeys(b)
				cold.UpdateKeys(b)
			}
			if !bytes.Equal(EncodePerLevel(got), EncodePerLevel(cold)) {
				t.Fatal("fed on, the restored engine drifts from a cold decode of its frame")
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
