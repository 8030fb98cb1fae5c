package wire

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/swhh"
)

// updateGolden regenerates the committed wire vectors instead of
// comparing against them. Run `go test ./internal/wire -update` ONLY
// when a deliberate format change ships with a version bump — these
// fixtures are the back-compat tripwire for wire version 1.
var updateGolden = flag.Bool("update", false, "rewrite golden wire vectors")

// goldenFixtures enumerates one fixed-seed summary per kind and
// hierarchy family. Seeds are disjoint from the round-trip tests so a
// fixture never aliases another test's state.
func goldenFixtures(t *testing.T) []struct {
	name  string
	frame []byte
} {
	v4, v6 := testHierarchy(), testHierarchyV6()
	filterFrame, err := EncodeFilter(testFilter(0x70))
	if err != nil {
		t.Fatalf("encode filter: %v", err)
	}
	contV4, err := EncodeContinuous(testContinuousH(t, v4, 0x80))
	if err != nil {
		t.Fatalf("encode continuous v4: %v", err)
	}
	contV6, err := EncodeContinuous(testContinuousH(t, v6, 0x81))
	if err != nil {
		t.Fatalf("encode continuous v6: %v", err)
	}
	return []struct {
		name  string
		frame []byte
	}{
		{"space-saving", EncodeSpaceSaving(testSpaceSaving(0x10, 300))},
		{"exact-v4", EncodeExact(v4, testExact(0x20, 300))},
		{"exact-v6", EncodeExact(v6, testExact(0x21, 300))},
		{"per-level-v4", EncodePerLevel(testPerLevelH(v4, 0x30))},
		{"per-level-v6", EncodePerLevel(testPerLevelH(v6, 0x31))},
		{"rhhh-v4", EncodeRHHH(testRHHHH(v4, 0x40))},
		{"rhhh-v6", EncodeRHHH(testRHHHH(v6, 0x41))},
		{"sliding-v4", EncodeSliding(testSlidingH(v4, 0x50))},
		{"sliding-v6", EncodeSliding(testSlidingH(v6, 0x51))},
		{"memento-v4", EncodeMemento(testMementoH(v4, 0x60))},
		{"memento-v6", EncodeMemento(testMementoH(v6, 0x61))},
		{"tdbf", filterFrame},
		{"continuous-v4", contV4},
		{"continuous-v6", contV6},
	}
}

// TestGoldenVectors is the wire-format back-compat tripwire: encoding
// the fixed-seed fixtures must reproduce the committed v1 bytes
// exactly, and the committed bytes must still decode. If this fails you
// changed the wire format — that requires a version bump and new
// vectors, not a quiet regeneration.
func TestGoldenVectors(t *testing.T) {
	for _, fx := range goldenFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			path := filepath.Join("testdata", fx.name+".wire")
			if *updateGolden {
				if err := os.WriteFile(path, fx.frame, 0o644); err != nil {
					t.Fatalf("write golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update after a deliberate format change): %v", err)
			}
			if !bytes.Equal(fx.frame, want) {
				t.Fatalf("encoding of %s no longer matches the committed v1 vector (%d vs %d bytes).\n"+
					"The wire format changed: bump wire.Version and regenerate vectors with -update.",
					fx.name, len(fx.frame), len(want))
			}
			if _, err := Decode(want); err != nil {
				t.Fatalf("committed vector no longer decodes: %v", err)
			}
		})
	}
}

// TestGoldenMementoUnevenClocks keeps the format pin on the bytes
// memento-v6.wire held while its fixture was fed by a per-packet method
// that aged only the table of the level each packet sampled: a frame whose
// tables stand at different frame clocks. No engine entry produces that
// state any more (UpdateKeys ages every table at a frame change), but it
// is a valid v1 frame: it decodes, re-encodes to the same bytes, and
// answers a query inside its window exactly as the evenly aged fixture of
// the same stream does.
func TestGoldenMementoUnevenClocks(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "memento-v6-uneven.wire"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	uneven, err := decodeAs[*swhh.MementoHHH](want)
	if err != nil {
		t.Fatalf("committed vector no longer decodes: %v", err)
	}
	if !bytes.Equal(EncodeMemento(uneven), want) {
		t.Fatal("committed vector does not re-encode to itself")
	}
	st := uneven.State()
	clocks := map[int64]bool{}
	for _, lv := range st.Levels {
		clocks[lv.State().CurFrame] = true
	}
	if len(clocks) < 2 {
		t.Fatalf("every table stands at the same clock %v: the vector pins nothing uneven", clocks)
	}
	even := testMementoH(testHierarchyV6(), 0x61)
	frameNs := int64(slidingTestConfig().Window) / int64(slidingTestConfig().Frames)
	at := (st.CurFrame+1)*frameNs - 1 // the last instant of the frame the stream ends in
	got, ref := uneven.Query(0.05, at), even.Query(0.05, at)
	if got.Len() == 0 || !reflect.DeepEqual(got, ref) {
		t.Fatalf("query at %d diverged:\nuneven: %v\neven:   %v", at, got, ref)
	}
}

// TestGoldenHierarchies pins the descriptor bytes for both families.
func TestGoldenHierarchies(t *testing.T) {
	cases := []struct {
		h                addr.Hierarchy
		fam, step, depth byte
	}{
		{testHierarchy(), 4, 8, 32},
		{testHierarchyV6(), 6, 16, 64},
	}
	for _, tc := range cases {
		fam, step, depth := describe(tc.h)
		if fam != tc.fam || step != tc.step || depth != tc.depth {
			t.Fatalf("describe(%v) = (%d,%d,%d), want (%d,%d,%d)",
				tc.h, fam, step, depth, tc.fam, tc.step, tc.depth)
		}
		rt, err := Header{Version: Version, Family: fam, Step: step, Depth: depth}.Hierarchy()
		if err != nil {
			t.Fatalf("Hierarchy(): %v", err)
		}
		if rt != tc.h {
			t.Fatalf("descriptor round-trip %v != %v", rt, tc.h)
		}
	}
}
