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

	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/tdbf"
)

// fuzzSeeds returns one valid frame per summary kind plus the classic
// envelope corruptions, the corpus every wire fuzz target starts from. The
// decayed kinds are there at the versions written now in both cell layouts
// — the continuous fixture's leaf level is full, a dense column; the thin
// filter and testFilter's cells, and the fixture's /8 level, held exactly
// with 3 of its 256 cells occupied, are dictionaries — at the versions
// before and now, as the committed vectors, and as the frames of
// hostileContinuous and hostileDicts; the sliding delta as the golden
// fixture's and four mutations of it; the Space-Saving kinds at both
// versions, and the hostile columns.
func fuzzSeeds(f *testing.F) [][]byte {
	filterFrame := EncodeFilter(testFilter(7))
	cont := testContinuous(f, 8)
	contFrame := EncodeContinuous(cont)
	thin := tdbf.New(tdbf.Config{Cells: 64, Hashes: 3, Seed: 1, Decay: tdbf.Exponential{Tau: time.Second}})
	for key := uint64(0); key < 3; key++ {
		thin.Add(key, 9, int64(key))
	}
	layouts := map[bool]int{}
	for _, fs := range [][]*tdbf.Filter{{testFilter(7)}, {thin}, cont.Filters()} {
		for l, c := range levelCodes(fs) {
			layouts[c.dense(fs[l].Cells())]++
		}
	}
	if layouts[true] == 0 || layouts[false] == 0 {
		f.Fatal("the seed frames no longer cover both cell layouts")
	}
	var old [][]byte
	for _, v := range oldDecayed {
		frame, err := os.ReadFile(filepath.Join("testdata", v.name+".wire"))
		if err != nil {
			f.Fatal(err)
		}
		old = append(old, frame)
	}
	for _, h := range hostileContinuous(f) {
		old = append(old, h.frame)
	}
	for _, h := range hostileDicts(f) {
		old = append(old, h.frame)
	}
	// A delta, whole and with a slot bit beyond the ring, one the payload has
	// no slot for, another base and a byte missing.
	_, delta, _ := deltaChain()
	old = append(old, delta)
	bitmap := headerSize + deltaBaseSize + slidingGeometrySize + 2 + slidingLevelHeader
	for _, flip := range []struct{ off, bit int }{{bitmap, 7}, {bitmap, 0}, {headerSize, 1}} {
		old = append(old, mangle(delta, func(b []byte) { b[flip.off] ^= 1 << flip.bit }))
	}
	old = append(old, frameFor(KindSlidingDelta, 4, 8, 32, delta[headerSize:len(delta)-crcSize-1]))
	seeds := [][]byte{
		EncodeSpaceSaving(testSpaceSaving(1, 100)),
		EncodeExact(testHierarchy(), testExact(2, 100)),
		EncodeExact(testHierarchyV6(), testExact(2, 100)),
		EncodePerLevel(testPerLevel(3)),
		EncodePerLevel(testRHHH(4)),
		EncodeSliding(testSliding(5)),
		EncodeMemento(testMemento(6)),
		filterFrame,
		contFrame,
	}
	valid := seeds[3]
	short := slices.Clone(valid[:12])
	badMagic := slices.Clone(valid)
	copy(badMagic, "NOPE")
	badVer := slices.Clone(valid)
	binary.LittleEndian.PutUint16(badVer[4:6], 99)
	hugeLen := slices.Clone(valid)
	binary.LittleEndian.PutUint32(hugeLen[12:16], 1<<30)
	crcFlip := slices.Clone(valid)
	crcFlip[len(crcFlip)-1] ^= 0xff
	// A declared Space-Saving capacity far beyond the payload exercises
	// the allocation budget path.
	hugeCap := frameFor(KindSpaceSaving, 0, 0, 0, ssPayload(1<<31-1, 0))
	// One entry of more than half of MaxInt64, within its total: a valid
	// frame whose merge with another like it has to saturate. And the same
	// entry above its total, which the decoder must refuse.
	heavyEntry := func(total int64) []byte {
		return frameFor(KindSpaceSaving, 0, 0, 0, ssPayload(4, total, [3]uint64{42, 1<<62 + 1, 0}))
	}
	seeds = append(seeds, short, badMagic, badVer, hugeLen, crcFlip, hugeCap, heavyEntry(1<<62+1), heavyEntry(1<<62))
	seeds = append(append(seeds, EncodeFilter(thin)), old...)
	// The Space-Saving kinds' committed vectors at both versions, and the
	// refusals of TestHostileColumns.
	for _, name := range oldColumns {
		for _, file := range []string{name, name + "-v2"} {
			frame, err := os.ReadFile(filepath.Join("testdata", file+".wire"))
			if err != nil {
				f.Fatal(err)
			}
			seeds = append(seeds, frame)
		}
	}
	for _, h := range hostileColumns() {
		seeds = append(seeds, h.frame)
	}
	// And the decayed kinds' committed vectors at the versions written now.
	for _, name := range []string{"tdbf-v3", "continuous-v4-dict", "continuous-v6-dict"} {
		frame, err := os.ReadFile(filepath.Join("testdata", name+".wire"))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, frame)
	}
	return seeds
}

// FuzzWireDecode feeds arbitrary bytes to the generic frame decoder: it
// must either return a typed error or a decoded summary, never panic,
// and never allocate from attacker-declared capacities beyond the
// documented budgets (the -fuzzminimize memory limit catches blowups).
func FuzzWireDecode(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Decode(data)
		if err != nil {
			if v != nil {
				t.Fatalf("Decode returned both a value (%T) and an error (%v)", v, err)
			}
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) &&
				!errors.Is(err, ErrKind) && !errors.Is(err, ErrTruncated) &&
				!errors.Is(err, ErrCRC) && !errors.Is(err, ErrHierarchy) &&
				!errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode error %v does not wrap a typed wire error", err)
			}
			return
		}
		if v == nil {
			t.Fatal("Decode returned nil value with nil error")
		}
		// Whatever summary the decoder lets through merges with its like
		// without wrapping: counts stay within [error bound, total].
		if s, ok := v.(*sketch.SpaceSaving); ok {
			twin, _ := Decode(data)
			s.Merge(twin.(*sketch.SpaceSaving))
			s.ForEachTracked(func(key uint64, count, errUB int64) {
				if errUB < 0 || errUB > count || count > s.Total() {
					t.Fatalf("merged with itself: key %#x has bounds [%d, %d] under total %d", key, errUB, count, s.Total())
				}
			})
		}
	})
}

// FuzzWireRoundTrip checks the codec's fixpoint property on every input
// the fuzzer finds decodable: re-encoding a decoded frame must
// reproduce the original bytes exactly, and decode again cleanly. A
// version-1 frame of a decayed kind is decode-only — it re-encodes at
// version 2 — so there the fixpoint is asked of the re-encoding.
func FuzzWireRoundTrip(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Decode(data)
		if err != nil {
			return
		}
		re, err := Encode(v)
		if err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		if hdr, _ := Verify(data); hdr.Header.Version != hdr.Header.Kind.version() {
			data = re
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode is not byte-identical (%d vs %d bytes)", len(re), len(data))
		}
		v, err = Decode(re)
		if err != nil {
			t.Fatalf("second decode failed: %v", err)
		}
		if twice, err := Encode(v); err != nil || !bytes.Equal(twice, re) {
			t.Fatalf("the re-encoding does not re-encode to itself (%v)", err)
		}
	})
}
