package wire

import (
	"bytes"
	"cmp"
	"flag"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/continuous"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/swhh"
	"hiddenhhh/internal/tdbf"
)

// updateGolden regenerates the committed wire vectors instead of
// comparing against them. Run `go test ./internal/wire -update` ONLY
// when a deliberate format change ships with a version bump — these
// fixtures are the back-compat tripwire for the wire format. It rewrites
// the vectors the encoders still produce, never the decode-only ones
// (oldDecayed, oldColumns, memento-v6-uneven, sliding-v4, continuous-v4-v3,
// continuous-v6-v3), and CI fails a change that touches a committed vector
// at all.
var updateGolden = flag.Bool("update", false, "rewrite golden wire vectors")

// goldenFixtures enumerates one fixed-seed summary per kind and
// hierarchy family. Seeds are disjoint from the round-trip tests so a
// fixture never aliases another test's state.
func goldenFixtures(t *testing.T) []struct {
	name  string
	frame []byte
} {
	v4, v6 := testHierarchy(), testHierarchyV6()
	filterFrame := EncodeFilter(testFilter(0x70))
	contV4 := EncodeContinuous(testContinuousH(t, v4, 0x80))
	contV6 := EncodeContinuous(testContinuousH(t, v6, 0x81))
	_, delta, deltaWhole := deltaChain() // over sliding-v4-block: see TestGoldenDelta
	return []struct {
		name  string
		frame []byte
	}{
		{"space-saving-v2", EncodeSpaceSaving(testSpaceSaving(0x10, 300))},
		{"exact-v4", EncodeExact(v4, testExact(0x20, 300))},
		{"exact-v6", EncodeExact(v6, testExact(0x21, 300))},
		{"per-level-v4-v2", EncodePerLevel(testPerLevelH(v4, 0x30))},
		{"per-level-v6-v2", EncodePerLevel(testPerLevelH(v6, 0x31))},
		{"rhhh-v4-v2", EncodePerLevel(testRHHHH(v4, 0x40))},
		{"rhhh-v6-v2", EncodePerLevel(testRHHHH(v6, 0x41))},
		{"sliding-v4-block-v2", EncodeSliding(testSlidingH(v4, 0x50))},
		{"sliding-v6-v2", EncodeSliding(testSlidingH(v6, 0x51))},
		{"sliding-v4-delta-v2", delta},
		{"sliding-v4-delta-whole-v2", deltaWhole},
		{"memento-v4", EncodeMemento(testMementoH(v4, 0x60))},
		{"memento-v6", EncodeMemento(testMementoH(v6, 0x61))},
		{"tdbf-v3", filterFrame},
		{"continuous-v4-dict", contV4},
		{"continuous-v6-dict", contV6},
	}
}

// oldDecayed names the vectors of the decayed kinds at the versions nothing
// writes any more, with the version each verifies as: what the fixtures
// behind tdbf-v3, continuous-v4-dict and continuous-v6-dict encoded to
// while a cell carried its own timestamp (version 1), what the continuous
// ones did while every level was a hashed filter (version 2), and what all
// three did while a non-zero cell was a 12-byte row (tdbf-v2 and the
// continuous-*-block pair, versions 2 and 3). The bytes stay, decode-only.
var oldDecayed = []struct {
	name    string
	version uint16
}{
	{"tdbf", Version}, {"continuous-v4", Version}, {"continuous-v6", Version},
	{"continuous-v4-v2", VersionSparse}, {"continuous-v6-v2", VersionSparse},
	{"tdbf-v2", VersionSparse}, {"continuous-v4-block", VersionLevels}, {"continuous-v6-block", VersionLevels},
}

// oldColumns names the Space-Saving kinds' vectors at version 1, every field
// of an entry in 8 bytes: what the fixtures behind the version-2 vector of
// the same name and suffix -v2 encoded to before. The bytes stay,
// decode-only.
var oldColumns = []string{
	"space-saving", "per-level-v4", "per-level-v6", "rhhh-v4", "rhhh-v6",
	"sliding-v4-block", "sliding-v6", "sliding-v4-delta", "sliding-v4-delta-whole",
}

// TestGoldenVectors is the wire-format back-compat tripwire: encoding
// the fixed-seed fixtures must reproduce the committed bytes exactly, and
// the committed bytes must still decode. If this fails you changed the
// wire format — that requires a version bump and new vectors, not a quiet
// regeneration. The old-version vectors of the decayed kinds are held to
// what a decode-only vector can be held to: see goldenOldDecayed; those of
// the Space-Saving kinds to their version-2 siblings: see goldenOldColumns;
// and
// sliding-v4 to what a vector no fixture builds any more can be: see
// goldenSlidingPerPacket, and the continuous-*-v3 pair to the same: see
// goldenContinuousPerPacket.
func TestGoldenVectors(t *testing.T) {
	for _, v := range oldDecayed {
		t.Run(v.name, func(t *testing.T) { goldenOldDecayed(t, v.name, v.version) })
	}
	for _, name := range oldColumns {
		t.Run(name, func(t *testing.T) { goldenOldColumns(t, name) })
	}
	t.Run("sliding-v4", goldenSlidingPerPacket)
	for _, name := range []string{"continuous-v4-v3", "continuous-v6-v3"} {
		t.Run(name, func(t *testing.T) { goldenContinuousPerPacket(t, name) })
	}
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
				t.Fatalf("encoding of %s no longer matches the committed vector (%d vs %d bytes).\n"+
					"The wire format changed: bump wire.Version and regenerate vectors with -update.",
					fx.name, len(fx.frame), len(want))
			}
			if _, err := Decode(want); err != nil {
				t.Fatalf("committed vector no longer decodes: %v", err)
			}
		})
	}
}

// goldenSlidingPerPacket keeps the format pin on the bytes sliding-v4.wire
// has held since the engine applied every packet to every level's frame
// as it came. The fixture's 400 packets now reach the frames summed per
// key through the coalescing block — the same streams, other Space-Saving
// states, the same format: sliding-v4-block is the vector the fixture is
// compared to — so the old bytes are what no engine entry builds, and a
// valid frame all the same: they decode, re-encode to themselves, and
// hold the fixture's frame clocks and exact frame totals, which no
// coalescing moves. They are version 1: they re-encode, at version 2, to a
// frame that is a fixpoint of the codec and answers as they do.
func goldenSlidingPerPacket(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "sliding-v4.wire"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	old, err := decodeAs[*swhh.SlidingHHH](want)
	if err != nil {
		t.Fatalf("committed vector no longer decodes: %v", err)
	}
	re := EncodeSliding(old)
	if f, err := Verify(re); err != nil || f.Header.Version != VersionColumns {
		t.Fatalf("re-encoding verifies as version %d, %v", f.Header.Version, err)
	}
	again, err := decodeAs[*swhh.SlidingHHH](re)
	if err != nil || !bytes.Equal(EncodeSliding(again), re) {
		t.Fatalf("the re-encoding is not a fixpoint of the codec (%v)", err)
	}
	sameAnswers(t, old, again)
	fresh := testSlidingH(testHierarchy(), 0x50)
	entries := 0
	for l := 0; l < testHierarchy().Levels(); l++ {
		o, f := old.LevelSummary(l).State(), fresh.LevelSummary(l).State()
		if o.CurFrame != f.CurFrame || !slices.Equal(o.Totals, f.Totals) {
			t.Fatalf("level %d: clock %d totals %v, the fixture's %d %v", l, o.CurFrame, o.Totals, f.CurFrame, f.Totals)
		}
		for _, fr := range o.Frames {
			entries += fr.Len()
		}
	}
	if entries == 0 {
		t.Fatal("the vector holds no entries: it pins nothing")
	}
}

// goldenContinuousPerPacket keeps the format pin on the bytes
// continuous-v4-v3.wire and continuous-v6-v3.wire have held since the
// detector wrote every packet into every level's filter and checked its
// chain for entry as it came. The fixture's packets now reach the filters
// summed per leaf through the coalescing block and are checked at its
// settle points — the same stream, cells that differ in float association
// and activation instants up to a block later, the same format:
// continuous-*-block is the vector the fixture is compared to — so the old
// bytes are what no entry builds any more, and a valid frame all the same:
// they decode, re-encode — at version 4 since their version 3 is written no
// more — to a fixpoint of the codec that holds the same state, and hold the
// fixture's exact frame totals — packets, warm-up end and the decayed
// total, which is added per packet and no block moves — and its active
// prefixes.
func goldenContinuousPerPacket(t *testing.T, name string) {
	want, err := os.ReadFile(filepath.Join("testdata", name+".wire"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if f, err := Verify(want); err != nil || f.Header.Version != VersionLevels {
		t.Fatalf("committed vector verifies as version %d, %v; want version %d", f.Header.Version, err, VersionLevels)
	}
	old, err := decodeAs[*continuous.Detector](want)
	if err != nil {
		t.Fatalf("committed vector no longer decodes: %v", err)
	}
	re := EncodeContinuous(old)
	again, err := decodeAs[*continuous.Detector](re)
	if f, _ := Verify(re); err != nil || f.Header.Version != VersionLevelsDict || !bytes.Equal(EncodeContinuous(again), re) {
		t.Fatalf("the re-encoding is not a version-%d fixpoint of the codec (%v)", VersionLevelsDict, err)
	}
	if !reflect.DeepEqual(again.State(), old.State()) {
		t.Fatal("the re-encoding holds another state")
	}
	h, seed := testHierarchy(), uint64(0x80)
	if strings.HasPrefix(name, "continuous-v6") {
		h, seed = testHierarchyV6(), 0x81
	}
	o, f := old.State(), testContinuousH(t, h, seed).State()
	if o.Total != f.Total || o.Packets != f.Packets || o.WarmEnd != f.WarmEnd || o.Started != f.Started {
		t.Fatalf("totals %+v, %d packets, warm-up end %d; the fixture's %+v, %d, %d", o.Total, o.Packets, o.WarmEnd, f.Total, f.Packets, f.WarmEnd)
	}
	if !samePrefixes(o.Active, f.Active) || len(o.Active) == 0 {
		t.Fatalf("active set %+v, the fixture's %+v", o.Active, f.Active)
	}
}

// goldenOldColumns checks one committed version-1 vector of a Space-Saving
// kind: it still verifies as version 1 and decodes, and what it decodes to
// re-encodes to its version-2 sibling byte for byte, which answers every
// query as it does. A delta decodes without its base; TestGoldenDelta
// applies each version's over its own.
func goldenOldColumns(t *testing.T, name string) {
	read := func(name string, version uint16) []byte {
		frame, err := os.ReadFile(filepath.Join("testdata", name+".wire"))
		if err != nil {
			t.Fatalf("read golden: %v", err)
		}
		if f, err := Verify(frame); err != nil || f.Header.Version != version {
			t.Fatalf("%s verifies as version %d, %v; want version %d", name, f.Header.Version, err, version)
		}
		return frame
	}
	old, cur := read(name, Version), read(name+"-v2", VersionColumns)
	v, err := Decode(old)
	if err != nil {
		t.Fatalf("committed vector no longer decodes: %v", err)
	}
	if _, delta := v.(SlidingDelta); delta {
		return
	}
	if re, err := Encode(v); err != nil || !bytes.Equal(re, cur) {
		t.Fatalf("%s does not re-encode to %s-v2 (%v)", name, name, err)
	}
	w, err := Decode(cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(cur) >= len(old) {
		t.Fatalf("version 2 takes %d bytes, version 1 %d", len(cur), len(old))
	}
	sameAnswers(t, v, w)
}

// sameAnswers holds two decoded summaries of one kind to the same answers:
// a Space-Saving table's tracked entries, an engine's HHH set at φ = 0.05
// (a sliding one's at the last instant of its newest frame).
func sameAnswers(t *testing.T, a, b any) {
	t.Helper()
	answer := func(v any) any {
		switch s := v.(type) {
		case *sketch.SpaceSaving:
			kvs := s.Tracked()
			slices.SortFunc(kvs, func(x, y sketch.KV) int { return cmp.Compare(x.Key, y.Key) })
			return kvs
		case *hhh.PerLevel:
			return s.QueryFraction(0.05)
		case *swhh.SlidingHHH:
			frameNs := int64(s.Config().Window) / int64(s.Config().Frames)
			return s.Query(0.05, (s.LevelSummary(0).State().CurFrame+1)*frameNs-1)
		}
		t.Fatalf("no answers for %T", v)
		return nil
	}
	x, y := answer(a), answer(b)
	if !reflect.DeepEqual(x, y) || reflect.ValueOf(x).Len() == 0 {
		t.Fatalf("decoded summaries answer apart:\n%v\n%v", x, y)
	}
}

// samePrefixes reports whether two active sets, sorted by (level, key),
// hold the same prefixes, whenever each was admitted.
func samePrefixes(a, b []continuous.ActiveEntry) bool {
	return slices.EqualFunc(a, b, func(x, y continuous.ActiveEntry) bool { return x.Level == y.Level && x.Key == y.Key })
}

// goldenOldDecayed checks one committed vector of a decayed kind at a
// version no longer written: it still verifies as that version and decodes,
// to a state that answers as the fixture it was encoded from answers when
// built afresh — every filter's estimate of every key the fixture was fed
// and, at a level held exactly, of every key the level has, to 1e-9
// relative (the v1 cells were decayed lazily, one exp per touch; the fresh
// ones are scaled to a landmark) — and its re-encoding, at the version
// written now, is a fixpoint of the codec. At a level the receiver holds
// exactly the old frame's estimate is the minimum of the key's k hashed
// cells, which is the fresh level's exact mass unless all k collide: the
// fixtures are chosen so that none does. The old frames were built with an
// entry check on every packet, the fresh fixture's at the coalescing
// block's settle points: the active prefixes are the same, admitted at
// other instants.
func goldenOldDecayed(t *testing.T, name string, version uint16) {
	frame, err := os.ReadFile(filepath.Join("testdata", name+".wire"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if f, err := Verify(frame); err != nil || f.Header.Version != version {
		t.Fatalf("committed vector verifies as version %d, %v; want version %d", f.Header.Version, err, version)
	}
	v, err := Decode(frame)
	if err != nil {
		t.Fatalf("committed vector no longer decodes: %v", err)
	}
	same := func(what string, got, fresh *tdbf.Filter, keys []uint64) {
		t.Helper()
		if got.Adds() != fresh.Adds() || got.Seed() != fresh.Seed() || got.Cells() != fresh.Cells() || got.Hashes() != fresh.Hashes() {
			t.Fatalf("%s: decoded shape/adds differ from the fixture's", what)
		}
		live := 0
		for _, key := range keys {
			for _, at := range []int64{queryNow / 100, queryNow / 10, queryNow} {
				g, w := got.Estimate(key, at), fresh.Estimate(key, at)
				if math.Abs(g-w) > 1e-9*w {
					t.Fatalf("%s: Estimate(%#x, %d) = %v, fixture built afresh %v", what, key, at, g, w)
				}
				if w > 0 {
					live++
				}
			}
		}
		if live == 0 {
			t.Fatalf("%s: every estimate is zero: the comparison proves nothing", what)
		}
	}
	var re []byte
	switch got := v.(type) {
	case *tdbf.Filter:
		keys := make([]uint64, 100)
		for i := range keys {
			keys[i] = uint64(i)
		}
		same(name, got, testFilter(0x70), keys)
		re = EncodeFilter(got)
	case *continuous.Detector:
		h, seed := testHierarchy(), uint64(0x80)
		if strings.HasPrefix(name, "continuous-v6") {
			h, seed = testHierarchyV6(), 0x81
		}
		fresh := testContinuousH(t, h, seed)
		r := splitmix(seed)
		leaves := make([]uint64, 2000)
		for i := range leaves {
			r.next() // the fixture's timestamp draw
			leaves[i] = h.Key(addrFor(h, &r), 0)
			r.next() // and its size draw
		}
		gs, fs := got.State(), fresh.State()
		direct := 0
		for l := range fs.Filters {
			keys := make([]uint64, len(leaves))
			for i, leaf := range leaves {
				keys[i] = leaf & h.KeyMask(l)
			}
			if fs.Filters[l].Direct() {
				direct++
				keys = append(keys, levelKeys(h, l)...)
			}
			same(fmt.Sprintf("%s level %d", name, l), gs.Filters[l], fs.Filters[l], keys)
		}
		if direct == 0 {
			t.Fatal("the fixture holds no level exactly: the conversion goes unpinned")
		}
		if g, w := got.TotalMass(queryNow/100), fresh.TotalMass(queryNow/100); math.Abs(g-w) > 1e-9*w || w == 0 {
			t.Fatalf("total mass %v, fixture built afresh %v", g, w)
		}
		if !samePrefixes(gs.Active, fs.Active) || gs.Packets != fs.Packets || gs.WarmEnd != fs.WarmEnd || len(fs.Active) == 0 {
			t.Fatalf("active set or counters differ from the fixture's:\n got  %+v\n want %+v", gs.Active, fs.Active)
		}

		re = EncodeContinuous(got)
	default:
		t.Fatalf("decoded to %T", v)
	}
	// Version 1 spent 16 bytes on a cell; a dictionary section is at most a
	// code's bytes longer than a 12-byte row a cell, and only where the
	// filter's masses are nearly all distinct.
	limit := len(frame) + len(filters(v))*dictHeaderSize
	if version == Version {
		limit = len(frame)/2 + 64
	}
	if f, err := Verify(re); err != nil || f.Header.Version != f.Header.Kind.version() || len(re) > limit {
		t.Fatalf("re-encoding: version %d, %d bytes against %d, %v", f.Header.Version, len(re), len(frame), err)
	}
	again, err := Decode(re)
	if err != nil {
		t.Fatalf("re-encoding does not decode: %v", err)
	}
	if twice, err := Encode(again); err != nil || !bytes.Equal(twice, re) {
		t.Fatalf("re-encoding is not a fixpoint of the codec (%v)", err)
	}
}

// levelKeys returns every key of level l of h, a level small enough to be
// held exactly: the bits all of h's keys share, with the level's own bits
// counted through.
func levelKeys(h addr.Hierarchy, l int) []uint64 {
	var fixed uint64
	if h.Family() == addr.V4 {
		fixed = h.KeyOfPrefix(addr.V4Root)
	}
	shift := bits.TrailingZeros64(h.KeyMask(l)) & 63
	keys := make([]uint64, 1<<(h.Bits(l)-h.Bits(h.Levels()-1)))
	for i := range keys {
		keys[i] = fixed | uint64(i)<<shift
	}
	return keys
}

// TestGoldenDenseLevel: the vectors written now between them pin both cell
// layouts, the dense column and the dictionary, at hashed levels and at
// levels held exactly, and dictionaries with a mass that several cells
// share.
func TestGoldenDenseLevel(t *testing.T) {
	var dense, dict [2]int // by whether the level is held exactly
	shared := 0
	for _, seed := range []uint64{0x80, 0x81} {
		h := testHierarchy()
		if seed == 0x81 {
			h = testHierarchyV6()
		}
		fs := testContinuousH(t, h, seed).Filters()
		for l, c := range levelCodes(fs) {
			exact := 0
			if fs[l].Direct() {
				exact = 1
			}
			if c.dense(fs[l].Cells()) {
				dense[exact]++
			} else if dict[exact]++; c.m < c.n {
				shared++
			}
		}
	}
	if dense[0] == 0 || dict[0] == 0 || dense[1] == 0 || dict[1] == 0 || shared == 0 {
		t.Fatalf("golden fixtures hold %v dense and %v dictionary levels (hashed, exact), %d sharing a mass: one layout goes unpinned", dense, dict, shared)
	}
}

// levelCodes is how the encoder codes the sections of fs.
func levelCodes(fs []*tdbf.Filter) []levelCode {
	s := scratch()
	defer cellScratches.Put(s)
	s.codeLevels(fs)
	return slices.Clone(s.codes)
}

// filters returns a decoded summary's filters: a bare filter's one, a
// continuous detector's levels.
func filters(v any) []*tdbf.Filter {
	switch s := v.(type) {
	case *tdbf.Filter:
		return []*tdbf.Filter{s}
	case *continuous.Detector:
		return s.Filters()
	}
	return nil
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
