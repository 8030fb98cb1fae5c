package wire

import (
	"bytes"
	"encoding/binary"
	"math"
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
	"hiddenhhh/internal/tdbf"
	"hiddenhhh/internal/trace"
)

// The aggregator's core claim: merging summaries that took a round trip
// through the wire gives exactly the state an in-process K-shard merge
// would have produced. Fixture builders are deterministic, so building
// the same fleet twice yields independent but identical engines — one
// fleet merges in-process, the other goes through Encode/Decode first —
// and the canonical encodings of the two merge results must match byte
// for byte. That is stronger than query equality and holds for every
// engine, approximate ones included, because decode restores the exact
// internal state Merge operates on.

const mergeShards = 3

func shardSeeds(base uint64) []uint64 {
	seeds := make([]uint64, mergeShards)
	for i := range seeds {
		seeds[i] = base + uint64(i)*101
	}
	return seeds
}

// mergeEquivalence drives one engine family through both merge paths.
// build must be deterministic in its seed; enc canonically encodes;
// merge folds the second engine into the first; dec decodes a frame.
func mergeEquivalence[T any](
	t *testing.T,
	build func(seed uint64) T,
	enc func(T) []byte,
	merge func(dst, src T),
	dec func(frame []byte) T,
) {
	t.Helper()
	seeds := shardSeeds(0xbeef)

	inProc := build(seeds[0])
	for _, s := range seeds[1:] {
		merge(inProc, build(s))
	}

	viaWire := dec(enc(build(seeds[0])))
	for _, s := range seeds[1:] {
		viaWire = func() T {
			merge(viaWire, dec(enc(build(s))))
			return viaWire
		}()
	}

	if !slices.Equal(enc(inProc), enc(viaWire)) {
		t.Fatal("wire-round-tripped merge differs from in-process merge")
	}
}

func mustDecode[T any](t *testing.T) func([]byte) T {
	return func(frame []byte) T {
		v, err := decodeAs[T](frame)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		return v
	}
}

func TestMergeEquivalence(t *testing.T) {
	t.Run("space-saving", func(t *testing.T) {
		mergeEquivalence(t,
			func(seed uint64) *sketch.SpaceSaving { return testSpaceSaving(seed, 300) },
			EncodeSpaceSaving,
			func(dst, src *sketch.SpaceSaving) { dst.Merge(src) },
			mustDecode[*sketch.SpaceSaving](t),
		)
	})
	t.Run("exact", func(t *testing.T) {
		h := testHierarchy()
		mergeEquivalence(t,
			func(seed uint64) *sketch.Exact { return testExact(seed, 300) },
			func(e *sketch.Exact) []byte { return EncodeExact(h, e) },
			func(dst, src *sketch.Exact) { dst.AddAll(src) },
			func(frame []byte) *sketch.Exact {
				e, gh, err := decodeExact(frame)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if gh != h {
					t.Fatalf("hierarchy %v != %v", gh, h)
				}
				return e
			},
		)
	})
	for _, h := range []addr.Hierarchy{testHierarchy(), testHierarchyV6()} {
		h := h
		name := "v4"
		if h.Family() == addr.V6 {
			name = "v6"
		}
		t.Run("per-level-"+name, func(t *testing.T) {
			mergeEquivalence(t,
				func(seed uint64) *hhh.PerLevel { return testPerLevelH(h, seed) },
				EncodePerLevel,
				func(dst, src *hhh.PerLevel) { dst.Merge(src) },
				mustDecode[*hhh.PerLevel](t),
			)
		})
		t.Run("rhhh-"+name, func(t *testing.T) {
			mergeEquivalence(t,
				func(seed uint64) *hhh.PerLevel { return testRHHHH(h, seed) },
				EncodePerLevel,
				func(dst, src *hhh.PerLevel) { dst.Merge(src) },
				mustDecode[*hhh.PerLevel](t),
			)
		})
		t.Run("sliding-"+name, func(t *testing.T) {
			mergeEquivalence(t,
				func(seed uint64) *swhh.SlidingHHH { return testSlidingH(h, seed) },
				EncodeSliding,
				func(dst, src *swhh.SlidingHHH) { dst.Merge(src) },
				mustDecode[*swhh.SlidingHHH](t),
			)
		})
		t.Run("memento-"+name, func(t *testing.T) {
			mergeEquivalence(t,
				func(seed uint64) *swhh.MementoHHH { return testMementoH(h, seed) },
				EncodeMemento,
				func(dst, src *swhh.MementoHHH) { dst.Merge(src) },
				mustDecode[*swhh.MementoHHH](t),
			)
		})
		t.Run("continuous-"+name, func(t *testing.T) {
			// Cluster nodes share one config (so per-level filter seeds
			// match, a Merge precondition); only the traffic differs.
			mergeEquivalence(t,
				func(seed uint64) *continuous.Detector {
					d, err := continuous.NewDetector(continuousTestConfig(h, 0x99))
					if err != nil {
						t.Fatalf("NewDetector: %v", err)
					}
					r := splitmix(seed)
					now := int64(0)
					for i := 0; i < 2000; i++ {
						now += int64(r.next() % uint64(2*time.Millisecond))
						d.ObserveKeys(packet(h, addrFor(h, &r), int64(1+r.next()%9), now))
					}
					return d
				},
				func(d *continuous.Detector) []byte {
					frame := EncodeContinuous(d)
					return frame
				},
				func(dst, src *continuous.Detector) { dst.Merge(src) },
				mustDecode[*continuous.Detector](t),
			)
		})
	}
	t.Run("tdbf", func(t *testing.T) {
		mergeEquivalence(t,
			func(seed uint64) *tdbf.Filter {
				f := tdbf.New(tdbf.Config{Cells: 256, Hashes: 3, Seed: 0x99, Decay: tdbf.Exponential{Tau: time.Second}})
				r := splitmix(seed)
				now := int64(0)
				for i := 0; i < 200; i++ {
					now += int64(r.next() % uint64(3*time.Millisecond))
					f.Add(r.next()%100, float64(1+r.next()%9), now)
				}
				return f
			},
			EncodeFilter,
			func(dst, src *tdbf.Filter) { dst.Merge(src) },
			mustDecode[*tdbf.Filter](t),
		)
	})
}

// TestMergedQueryMatchesUnsharded pins the telescoping Space-Saving
// merge bound end to end: hash-partitioning a stream across shards,
// shipping each shard summary over the wire, and merging at the
// aggregator must report every prefix an unsharded run reports.
func TestMergedQueryMatchesUnsharded(t *testing.T) {
	h := testHierarchy()
	whole := hhh.NewPerLevel(h, 256)
	shards := make([]*hhh.PerLevel, mergeShards)
	for i := range shards {
		shards[i] = hhh.NewPerLevel(h, 256)
	}
	r := splitmix(0xfeed)
	for i := 0; i < 3000; i++ {
		a := addrFor(h, &r)
		w := int64(1 + r.next()%9)
		whole.UpdateKeys(packet(h, a, w, 0))
		shards[(a.Lo()^a.Hi())%mergeShards].UpdateKeys(packet(h, a, w, 0))
	}
	merged := mustDecode[*hhh.PerLevel](t)(EncodePerLevel(shards[0]))
	for _, s := range shards[1:] {
		merged.Merge(mustDecode[*hhh.PerLevel](t)(EncodePerLevel(s)))
	}
	want := whole.QueryFraction(0.05)
	got := merged.QueryFraction(0.05)
	for _, p := range want.Prefixes() {
		if _, ok := got[p]; !ok {
			t.Fatalf("prefix %v reported unsharded but missing after wire-merged shards", p)
		}
	}
	if merged.Total() != whole.Total() {
		t.Fatalf("merged total %d != unsharded total %d", merged.Total(), whole.Total())
	}
}

// TestMergeAcrossVersions: frames of the same state at versions 1, 2 and 3
// are interchangeable at an aggregator. Each committed vector of the
// continuous detector at each version, merged into a third detector's
// state, leaves it answering the same Query — the same prefixes, with
// volumes that differ by at most the unit the integer report rounds to (a
// v1 cell was decayed lazily, one exp per touch; the version-3 vector is
// the fixture through the coalescing block, the older ones per packet) —
// and a version-2 frame merged with a version-3 one gives what the
// version-3 frame of the same per-packet state merged with it gives, byte
// for byte: where the fixture's hashed cells held one key each, the
// conversion to a level held exactly loses and invents nothing.
func TestMergeAcrossVersions(t *testing.T) {
	for _, name := range []string{"continuous-v4", "continuous-v6"} {
		h, seed := testHierarchy(), uint64(0x80)
		if name == "continuous-v6" {
			h, seed = testHierarchyV6(), 0x81
		}
		var got [3]hhh.Set
		var frames [3][]byte
		for i, file := range []string{name + ".wire", name + "-v2.wire", name + "-block.wire"} {
			frame, err := os.ReadFile(filepath.Join("testdata", file))
			if err != nil {
				t.Fatal(err)
			}
			if f, err := Verify(frame); err != nil || int(f.Header.Version) != i+1 {
				t.Fatalf("%s: version %d, %v", file, f.Header.Version, err)
			}
			// The third party: the same configuration (so the filters line
			// up), another stream, a landmark of its own.
			acc, err := continuous.NewDetector(continuousTestConfig(h, seed))
			if err != nil {
				t.Fatal(err)
			}
			r := splitmix(77)
			for now := int64(300 * time.Millisecond); now < int64(2*time.Second); now += int64(r.next() % uint64(4*time.Millisecond)) {
				acc.ObserveKeys(packet(h, addrFor(h, &r), int64(1+r.next()%9), now))
			}
			acc.Merge(mustDecode[*continuous.Detector](t)(frame))
			got[i], frames[i] = acc.Query(queryNow/4), frame
		}
		for i := 1; i < len(got); i++ {
			if got[0].Len() == 0 || !got[0].Equal(got[i]) {
				t.Fatalf("%s: merged v1 answers %v, merged v%d %v", name, got[0], i+1, got[i])
			}
			for p, a := range got[0] {
				if b := got[i][p]; a.Count-b.Count > 1 || b.Count-a.Count > 1 || a.Conditioned-b.Conditioned > 1 || b.Conditioned-a.Conditioned > 1 {
					t.Fatalf("%s: %v: merged v1 %+v, merged v%d %+v", name, p, a, i+1, b)
				}
			}
		}
		v3, err := os.ReadFile(filepath.Join("testdata", name+"-v3.wire")) // the v2 vector's state, at version 3
		if err != nil {
			t.Fatal(err)
		}
		mixed := mustDecode[*continuous.Detector](t)(frames[1])
		mixed.Merge(mustDecode[*continuous.Detector](t)(frames[2]))
		same := mustDecode[*continuous.Detector](t)(v3)
		same.Merge(mustDecode[*continuous.Detector](t)(frames[2]))
		a := EncodeContinuous(mixed)
		if want := EncodeContinuous(same); !bytes.Equal(a, want) {
			t.Fatalf("%s: a v2-restored detector merged with a v3-restored one differs from the same state restored from version 3", name)
		}
	}
}

// mergeDecoded merges b into a when the two are decoded summaries of one
// kind that fit each other — bare filters of one shape, seed and law,
// continuous detectors of one configuration, exact counts over one
// hierarchy — and reports whether it did.
func mergeDecoded(a, b any) bool {
	switch a := a.(type) {
	case *tdbf.Filter:
		b, ok := b.(*tdbf.Filter)
		if !ok || a.Cells() != b.Cells() || a.Hashes() != b.Hashes() || a.Seed() != b.Seed() || a.Decay() != b.Decay() {
			return false
		}
		a.Merge(b)
	case *continuous.Detector:
		b, ok := b.(*continuous.Detector)
		if !ok || !a.Fits(b.Config()) {
			return false
		}
		a.Merge(b)
	case ExactSummary:
		b, ok := b.(ExactSummary)
		if !ok || a.Hierarchy != b.Hierarchy {
			return false
		}
		a.Leaves.AddAll(b.Leaves)
	default:
		return false
	}
	return true
}

// brimFrames are valid frames whose merge with themselves once wrapped a
// count past MaxInt64 or a mass past the largest float64, each with what
// the merge must hold instead.
func brimFrames(t testing.TB) []struct {
	name  string
	frame []byte
	check func(merged any) bool
} {
	filter := func(adds int64, mass float64) []byte {
		f := tdbf.New(tdbf.Config{Cells: 64, Hashes: 3, Seed: 1, Decay: tdbf.Exponential{Tau: time.Second}})
		w, err := f.Restore(tdbf.FilterState{Seed: 1, Adds: adds, Landmark: 5})
		if err == nil {
			err = w.Set(3, mass)
		}
		if err != nil {
			t.Fatal(err)
		}
		return EncodeFilter(f)
	}
	// The packet count and the total mass of a crafted continuous frame sit
	// at these payload offsets (see continuousHeaderSize).
	const packetsAt, totalAt = 8 + 8 + 1 + 8 + 8 + 8 + decaySize + 4 + 2 + 8, 8 + 8 + 1 + 8 + 8 + 8 + decaySize + 4 + 2 + 8 + 8
	var wellFormed []byte
	for _, h := range hostileContinuous(t) {
		if h.name == "v3-well-formed" {
			wellFormed = h.frame
		}
	}
	cont := func(packets int64, total float64) []byte {
		return mangle(wellFormed, func(b []byte) {
			binary.LittleEndian.PutUint64(b[headerSize+packetsAt:], uint64(packets))
			binary.LittleEndian.PutUint64(b[headerSize+totalAt:], math.Float64bits(total))
		})
	}
	exact := sketch.NewExact(1)
	exact.Update(42, 1<<62+1)
	huge := math.MaxFloat64 / 1.5
	return []struct {
		name  string
		frame []byte
		check func(merged any) bool
	}{
		{"filter-adds", filter(math.MaxInt64-1, 1), func(v any) bool { return v.(*tdbf.Filter).Adds() == math.MaxInt64 }},
		{"filter-mass", filter(1, huge), func(v any) bool { return v.(*tdbf.Filter).Estimate(0, 5) <= math.MaxFloat64 }},
		{"continuous-packets", cont(math.MaxInt64-1, 100), func(v any) bool { return v.(*continuous.Detector).Packets() == math.MaxInt64 }},
		{"continuous-total", cont(9, huge), func(v any) bool { return v.(*continuous.Detector).State().Total.V == math.MaxFloat64 }},
		{"exact-count", EncodeExact(testHierarchy(), exact), func(v any) bool {
			ex := v.(ExactSummary).Leaves
			return ex.Estimate(42) == math.MaxInt64 && ex.Total() == math.MaxInt64
		}},
	}
}

// TestMergeOfValidFramesIsValid: two frames that each decode merge into a
// summary whose frame decodes. A merged count saturates at MaxInt64 and a
// merged mass at the largest float64, where they once wrapped to a
// negative count or an infinite mass the decoder refuses.
func TestMergeOfValidFramesIsValid(t *testing.T) {
	for _, tc := range brimFrames(t) {
		t.Run(tc.name, func(t *testing.T) {
			a, err := Decode(tc.frame)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := Decode(tc.frame)
			if !mergeDecoded(a, b) {
				t.Fatal("the frame does not merge with itself")
			}
			re, err := Encode(a)
			if err == nil {
				_, err = Decode(re)
			}
			if err != nil {
				t.Fatalf("the merge of two valid frames re-encodes to one that does not decode: %v", err)
			}
			if !tc.check(a) {
				t.Fatal("the merge does not saturate")
			}
		})
	}
}

// TestIngestPastMaxInt64: a summary decoded from a valid frame that
// declares MaxInt64-1 packets (or filter adds) keeps ingesting. The counts
// saturate where they once wrapped negative, which the next frame's decode
// refused, and the continuous detector's 64-packet settle cadence runs on
// past the saturation point: more than 64 distinct leaves go through its
// block, and the /24 they share is admitted at a settle.
func TestIngestPastMaxInt64(t *testing.T) {
	frames := map[string][]byte{}
	for _, b := range brimFrames(t) {
		frames[b.name] = b.frame
	}
	v, err := Decode(frames["continuous-packets"])
	if err != nil {
		t.Fatal(err)
	}
	d := v.(*continuous.Detector)
	const leaves = 3 * 64
	now := int64(2 * time.Second) // past the frame's warm-up end
	var pkts []trace.Packet
	for i := 0; i < leaves; i++ {
		pkts = append(pkts, trace.Packet{Ts: now + int64(i), Src: addr.From4(10, 1, 2, byte(i)), Size: 1000})
	}
	kb := trace.NewKeyBatch(0)
	kb.AppendPackets(testHierarchy(), pkts)
	d.ObserveKeys(kb)
	if got := d.Packets(); got != math.MaxInt64 {
		t.Fatalf("Packets() = %d after %d packets past MaxInt64-1, want MaxInt64", got, leaves)
	}
	if d.ActiveLen() == 0 {
		t.Fatal("no settle admitted the leaves' /24: the block stopped settling")
	}
	v, err = Decode(frames["filter-adds"])
	if err != nil {
		t.Fatal(err)
	}
	f := v.(*tdbf.Filter)
	f.Add(7, 1, 5)
	f.Add(8, 1, 5)
	if got := f.Adds(); got != math.MaxInt64 {
		t.Fatalf("Adds() = %d after two adds past MaxInt64-1, want MaxInt64", got)
	}
	for _, v := range []any{d, f} {
		re, err := Encode(v)
		if err == nil {
			_, err = Decode(re)
		}
		if err != nil {
			t.Fatalf("%T: the frame after ingest does not decode: %v", v, err)
		}
	}
}

// FuzzMergeReencodes: whatever two frames decode to, when they are
// summaries of one kind that fit each other (mergeDecoded), their merge
// re-encodes to a frame that decodes. The corpus is every committed vector
// of those kinds and brimFrames, paired every way; each input's trailing
// CRC is recomputed, so that a mutation reaches the payload's checks.
func FuzzMergeReencodes(f *testing.F) {
	var frames [][]byte
	for _, name := range []string{"tdbf", "tdbf-v2", "exact-v4", "exact-v6",
		"continuous-v4", "continuous-v4-v2", "continuous-v4-v3", "continuous-v4-block",
		"continuous-v6", "continuous-v6-v2", "continuous-v6-v3", "continuous-v6-block",
		"tdbf-v3", "continuous-v4-dict", "continuous-v6-dict"} {
		frame, err := os.ReadFile(filepath.Join("testdata", name+".wire"))
		if err != nil {
			f.Fatal(err)
		}
		frames = append(frames, frame)
	}
	for _, b := range brimFrames(f) {
		frames = append(frames, b.frame)
	}
	for _, a := range frames {
		for _, b := range frames {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if len(a) < headerSize+crcSize || len(b) < headerSize+crcSize {
			return
		}
		va, err := Decode(mangle(a, func([]byte) {}))
		if err != nil {
			return
		}
		vb, err := Decode(mangle(b, func([]byte) {}))
		if err != nil || !mergeDecoded(va, vb) {
			return
		}
		re, err := Encode(va)
		if err == nil {
			_, err = Decode(re)
		}
		if err != nil {
			t.Fatalf("the merge of two frames that decode re-encodes to one that does not: %v", err)
		}
	})
}
