package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strings"
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

// decodeAs decodes frame through Decode, the codec's one entry, and
// asserts the summary type the test expects back.
func decodeAs[T any](frame []byte) (T, error) {
	v, err := Decode(frame)
	if err != nil {
		var zero T
		return zero, err
	}
	got, ok := v.(T)
	if !ok {
		return got, fmt.Errorf("Decode returned %T", v)
	}
	return got, nil
}

// decodeExact unpacks a KindExact frame's ExactSummary.
func decodeExact(frame []byte) (*sketch.Exact, addr.Hierarchy, error) {
	ex, err := decodeAs[ExactSummary](frame)
	return ex.Leaves, ex.Hierarchy, err
}

// splitmix is a tiny deterministic stream for building test fixtures.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func testHierarchy() addr.Hierarchy { return addr.NewIPv4Hierarchy(8) }

func testHierarchyV6() addr.Hierarchy { return addr.NewIPv6HierarchyDepth(16, 64) }

// addrFor draws addresses from a handful of top-level groups in h's
// family so hierarchies have real structure at every level.
func addrFor(h addr.Hierarchy, r *splitmix) addr.Addr {
	v := r.next()
	if h.Family() == addr.V6 {
		return addr.FromParts(0x2001_0db8_0000_0000|(v%3)<<32|(v>>8)&0xffff_ffff, 0)
	}
	return addr.From4(byte(10+v%3), byte(v>>8), byte(v>>16), byte(v>>24&3))
}

// packet is one packet as every engine takes it: a one-key batch through
// the producer-side packing (family filter, leaf key). The fixtures feed
// packet by packet so that their states, and the golden vectors encoded
// from them, do not depend on any batch geometry.
func packet(h addr.Hierarchy, src addr.Addr, bytes, now int64) *trace.KeyBatch {
	b := trace.NewKeyBatch(1)
	b.AppendPackets(h, []trace.Packet{{Ts: now, Src: src, Size: uint32(bytes)}})
	return b
}

// testAddr is the IPv4 shorthand used by the round-trip fixtures.
func testAddr(r *splitmix) addr.Addr { return addrFor(testHierarchy(), r) }

func testSpaceSaving(seed uint64, n int) *sketch.SpaceSaving {
	s := sketch.NewSpaceSaving(32)
	r := splitmix(seed)
	for i := 0; i < n; i++ {
		s.Update(r.next()%100, int64(1+r.next()%9))
	}
	return s
}

func testExact(seed uint64, n int) *sketch.Exact {
	e := sketch.NewExact(0)
	r := splitmix(seed)
	for i := 0; i < n; i++ {
		e.Update(r.next()%500, int64(1+r.next()%9))
	}
	return e
}

func testPerLevelH(h addr.Hierarchy, seed uint64) *hhh.PerLevel {
	p := hhh.NewPerLevel(h, 64)
	r := splitmix(seed)
	for i := 0; i < 400; i++ {
		p.UpdateKeys(packet(h, addrFor(h, &r), int64(1+r.next()%9), 0))
		p.Settle() // order-exact: one weighted update per packet and level
	}
	return p
}

func testPerLevel(seed uint64) *hhh.PerLevel { return testPerLevelH(testHierarchy(), seed) }

func testRHHHH(h addr.Hierarchy, seed uint64) *hhh.PerLevel {
	d := hhh.NewRHHH(h, 64, seed)
	r := splitmix(seed)
	for i := 0; i < 400; i++ {
		d.UpdateKeys(packet(h, addrFor(h, &r), int64(1+r.next()%9), 0))
	}
	return d
}

func testRHHH(seed uint64) *hhh.PerLevel { return testRHHHH(testHierarchy(), seed) }

func slidingTestConfig() swhh.Config {
	return swhh.Config{Window: time.Second, Frames: 4, Counters: 64}
}

func testSlidingH(h addr.Hierarchy, seed uint64) *swhh.SlidingHHH {
	d, err := swhh.NewSlidingHHH(h, slidingTestConfig())
	if err != nil {
		panic(err)
	}
	r := splitmix(seed)
	now := int64(0)
	for i := 0; i < 400; i++ {
		now += int64(r.next() % uint64(5*time.Millisecond))
		d.UpdateKeys(packet(h, addrFor(h, &r), int64(1+r.next()%9), now))
	}
	return d
}

func testSliding(seed uint64) *swhh.SlidingHHH { return testSlidingH(testHierarchy(), seed) }

func testMementoH(h addr.Hierarchy, seed uint64) *swhh.MementoHHH {
	d, err := swhh.NewMementoHHH(h, slidingTestConfig(), seed)
	if err != nil {
		panic(err)
	}
	r := splitmix(seed)
	now := int64(0)
	for i := 0; i < 400; i++ {
		now += int64(r.next() % uint64(5*time.Millisecond))
		d.UpdateKeys(packet(h, addrFor(h, &r), int64(1+r.next()%9), now))
	}
	return d
}

func testMemento(seed uint64) *swhh.MementoHHH { return testMementoH(testHierarchy(), seed) }

func testFilter(seed uint64) *tdbf.Filter {
	f := tdbf.New(tdbf.Config{Cells: 256, Hashes: 3, Seed: seed, Decay: tdbf.Exponential{Tau: time.Second}})
	r := splitmix(seed)
	now := int64(0)
	for i := 0; i < 200; i++ {
		now += int64(r.next() % uint64(3*time.Millisecond))
		f.Add(r.next()%100, float64(1+r.next()%9), now)
	}
	return f
}

func continuousTestConfig(h addr.Hierarchy, seed uint64) continuous.Config {
	return continuous.Config{
		Hierarchy: h,
		Phi:       0.05,
		Filter:    tdbf.Config{Cells: 1 << 10, Hashes: 3, Decay: tdbf.Exponential{Tau: 500 * time.Millisecond}},
		Seed:      seed,
	}
}

func testContinuousH(t testing.TB, h addr.Hierarchy, seed uint64) *continuous.Detector {
	d, err := continuous.NewDetector(continuousTestConfig(h, seed))
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
}

func testContinuous(t testing.TB, seed uint64) *continuous.Detector {
	return testContinuousH(t, testHierarchy(), seed)
}

// queryNow is a fixed instant safely past the fixtures' last update.
const queryNow = int64(10 * time.Second)

// TestRoundTrip encodes every kind, decodes it back, and demands both
// byte-identical re-encoding and identical query results.
// sizedUpFront fails unless frame fills its buffer exactly: the encoder
// computed the payload size and built the frame in place, with no growth
// and no copy.
func sizedUpFront(t *testing.T, frame []byte) {
	t.Helper()
	if cap(frame) != len(frame) {
		t.Fatalf("frame of %d bytes sits in a %d-byte buffer: not sized up front", len(frame), cap(frame))
	}
}

func TestRoundTrip(t *testing.T) {
	t.Run("space-saving", func(t *testing.T) {
		s := testSpaceSaving(1, 300)
		frame := EncodeSpaceSaving(s)
		sizedUpFront(t, frame)
		got, err := decodeAs[*sketch.SpaceSaving](frame)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Total() != s.Total() || got.Len() != s.Len() || got.Capacity() != s.Capacity() {
			t.Fatalf("restored shape (%d,%d,%d) != original (%d,%d,%d)",
				got.Total(), got.Len(), got.Capacity(), s.Total(), s.Len(), s.Capacity())
		}
		if re := EncodeSpaceSaving(got); !slices.Equal(re, frame) {
			t.Fatal("re-encode is not byte-identical")
		}
	})
	t.Run("exact", func(t *testing.T) {
		h := testHierarchy()
		e := testExact(2, 300)
		frame := EncodeExact(h, e)
		sizedUpFront(t, frame)
		got, gh, err := decodeExact(frame)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if gh != h {
			t.Fatalf("hierarchy %v != %v", gh, h)
		}
		if got.Total() != e.Total() || got.Len() != e.Len() {
			t.Fatalf("restored (%d keys, total %d) != original (%d, %d)",
				got.Len(), got.Total(), e.Len(), e.Total())
		}
		if re := EncodeExact(h, got); !slices.Equal(re, frame) {
			t.Fatal("re-encode is not byte-identical")
		}
	})
	t.Run("per-level", func(t *testing.T) {
		p := testPerLevel(3)
		frame := EncodePerLevel(p)
		sizedUpFront(t, frame)
		got, err := decodeAs[*hhh.PerLevel](frame)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !got.QueryFraction(0.05).Equal(p.QueryFraction(0.05)) {
			t.Fatal("restored query differs from original")
		}
		if re := EncodePerLevel(got); !slices.Equal(re, frame) {
			t.Fatal("re-encode is not byte-identical")
		}
	})
	t.Run("rhhh", func(t *testing.T) {
		d := testRHHH(4)
		frame := EncodePerLevel(d)
		sizedUpFront(t, frame)
		got, err := decodeAs[*hhh.PerLevel](frame)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !got.QueryFraction(0.05).Equal(d.QueryFraction(0.05)) {
			t.Fatal("restored query differs from original")
		}
		if re := EncodePerLevel(got); !slices.Equal(re, frame) {
			t.Fatal("re-encode is not byte-identical")
		}
	})
	t.Run("sliding", func(t *testing.T) {
		d := testSliding(5)
		frame := EncodeSliding(d)
		sizedUpFront(t, frame)
		got, err := decodeAs[*swhh.SlidingHHH](frame)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		// Byte-identity first: Query advances the frame clock, mutating
		// both engines past the encoded instant.
		if re := EncodeSliding(got); !slices.Equal(re, frame) {
			t.Fatal("re-encode is not byte-identical")
		}
		if !got.Query(0.05, queryNow).Equal(d.Query(0.05, queryNow)) {
			t.Fatal("restored query differs from original")
		}
	})
	t.Run("memento", func(t *testing.T) {
		d := testMemento(6)
		frame := EncodeMemento(d)
		sizedUpFront(t, frame)
		got, err := decodeAs[*swhh.MementoHHH](frame)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if re := EncodeMemento(got); !slices.Equal(re, frame) {
			t.Fatal("re-encode is not byte-identical")
		}
		if !got.Query(0.05, queryNow).Equal(d.Query(0.05, queryNow)) {
			t.Fatal("restored query differs from original")
		}
	})
	t.Run("tdbf", func(t *testing.T) {
		f := testFilter(7)
		frame := EncodeFilter(f)
		sizedUpFront(t, frame)
		got, err := decodeAs[*tdbf.Filter](frame)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		r := splitmix(99)
		for i := 0; i < 50; i++ {
			k := r.next() % 100
			if a, b := got.Estimate(k, queryNow), f.Estimate(k, queryNow); a != b {
				t.Fatalf("estimate(%d) %v != %v", k, a, b)
			}
		}
		if re := EncodeFilter(got); !slices.Equal(re, frame) {
			t.Fatal("re-encode is not byte-identical")
		}
	})
	t.Run("continuous", func(t *testing.T) {
		d := testContinuous(t, 8)
		if d.ActiveLen() == 0 {
			t.Fatal("fixture has an empty active set")
		}
		frame := EncodeContinuous(d)
		sizedUpFront(t, frame)
		got, err := decodeAs[*continuous.Detector](frame)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !got.Query(queryNow).Equal(d.Query(queryNow)) {
			t.Fatal("restored query differs from original")
		}
		if re := EncodeContinuous(got); !slices.Equal(re, frame) {
			t.Fatal("re-encode is not byte-identical")
		}
	})
}

// TestDecodeDispatch checks the generic Decode returns the right
// dynamic type for every kind.
func TestDecodeDispatch(t *testing.T) {
	filterFrame := EncodeFilter(testFilter(7))
	contFrame := EncodeContinuous(testContinuous(t, 8))
	_, delta, _ := deltaChain()
	cases := []struct {
		frame []byte
		want  Kind
	}{
		{delta, KindSlidingDelta},
		{EncodeSpaceSaving(testSpaceSaving(1, 100)), KindSpaceSaving},
		{EncodeExact(testHierarchy(), testExact(2, 100)), KindExact},
		{EncodePerLevel(testPerLevel(3)), KindPerLevel},
		{EncodePerLevel(testRHHH(4)), KindRHHH},
		{EncodeSliding(testSliding(5)), KindSliding},
		{EncodeMemento(testMemento(6)), KindMemento},
		{filterFrame, KindFilter},
		{contFrame, KindContinuous},
	}
	for _, tc := range cases {
		f, err := Verify(tc.frame)
		if err != nil {
			t.Fatalf("%v: verify: %v", tc.want, err)
		}
		if hdr, size := f.Header, headerSize+len(f.payload)+crcSize; hdr.Kind != tc.want || hdr.Version != tc.want.version() || size != len(tc.frame) {
			t.Fatalf("verified %v v%d, %d bytes; want %v v%d, %d bytes", hdr.Kind, hdr.Version, size, tc.want, tc.want.version(), len(tc.frame))
		}
		v, err := f.Decode()
		if err != nil {
			t.Fatalf("%v: decode: %v", tc.want, err)
		}
		ok := false
		switch tc.want {
		case KindSpaceSaving:
			_, ok = v.(*sketch.SpaceSaving)
		case KindExact:
			_, ok = v.(ExactSummary)
		case KindPerLevel, KindRHHH:
			var p *hhh.PerLevel
			if p, ok = v.(*hhh.PerLevel); ok {
				sampled, _, _ := p.Sampled()
				ok = sampled == (tc.want == KindRHHH)
			}
		case KindSliding:
			_, ok = v.(*swhh.SlidingHHH)
		case KindMemento:
			_, ok = v.(*swhh.MementoHHH)
		case KindFilter:
			_, ok = v.(*tdbf.Filter)
		case KindContinuous:
			_, ok = v.(*continuous.Detector)
		case KindSlidingDelta:
			_, ok = v.(SlidingDelta)
		}
		if !ok {
			t.Fatalf("%v: decode returned %T", tc.want, v)
		}
	}
}

// mangle clones the frame, applies f, and refreshes the trailing CRC so
// the mutation under test is what the decoder sees (not a CRC failure).
func mangle(frame []byte, f func([]byte)) []byte {
	out := slices.Clone(frame)
	f(out)
	n := len(out) - crcSize
	binary.LittleEndian.PutUint32(out[n:], crc32.ChecksumIEEE(out[:n]))
	return out
}

// TestTypedErrors is the envelope rejection matrix: every malformed
// frame maps to exactly the documented typed error, and none panic.
func TestTypedErrors(t *testing.T) {
	good := EncodePerLevel(testPerLevel(3))
	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"nil", nil, ErrTruncated},
		{"short", good[:10], ErrTruncated},
		{"bad-magic", mangle(good, func(b []byte) { b[0] = 'X' }), ErrBadMagic},
		{"future-version", mangle(good, func(b []byte) { b[4] = 9 }), ErrVersion},
		{"unknown-flags", mangle(good, func(b []byte) { b[7] = 1 }), ErrVersion},
		{"zero-kind", mangle(good, func(b []byte) { b[6] = 0 }), ErrKind},
		{"wild-kind", mangle(good, func(b []byte) { b[6] = 200 }), ErrKind},
		{"reserved-byte", mangle(good, func(b []byte) { b[11] = 1 }), ErrCorrupt},
		{"declared-too-long", mangle(good, func(b []byte) {
			binary.LittleEndian.PutUint32(b[12:16], uint32(len(b)))
		}), ErrTruncated},
		{"trailing-bytes", append(slices.Clone(good), 0), ErrCorrupt},
		{"crc-flip", func() []byte {
			b := slices.Clone(good)
			b[headerSize] ^= 0xff
			return b
		}(), ErrCRC},
		{"bad-family", mangle(good, func(b []byte) { b[8] = 5 }), ErrHierarchy},
		{"bad-step", mangle(good, func(b []byte) { b[9] = 7 }), ErrHierarchy},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decode(tc.frame); !errors.Is(err, tc.want) {
				t.Fatalf("Decode = %v, want %v", err, tc.want)
			}
		})
	}

	// The one typed entry left beside Decode takes a frame of one kind only.
	t.Run("kind-mismatch", func(t *testing.T) {
		f, err := Verify(good)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := f.RestoreSliding(nil); !errors.Is(err, ErrKind) {
			t.Fatalf("RestoreSliding(per-level frame) = %v, want ErrKind", err)
		}
	})
}

// TestCorruptPayloads drives structurally invalid payloads through the
// decoder; every one must come back ErrCorrupt without panicking.
// frameFor assembles a complete frame around a handcrafted payload.
func frameFor(kind Kind, fam, step, depth byte, payload []byte) []byte {
	return endFrame(append(beginFrame(kind, fam, step, depth, len(payload)), payload...))
}

// ssColumns is a handcrafted version-2 Space-Saving sub-payload: capacity
// k, stream total, the entries (key, count, error bound) written in the
// columns w declares whatever they hold.
func ssColumns(k uint32, total int64, w ssCols, entries ...[3]uint64) []byte {
	p := appendU32(nil, k)
	p = appendI64(p, total)
	p = appendU32(p, uint32(len(entries)))
	p = append(p, w.shift, w.kw, w.cw, w.ew)
	put := func(v uint64, w uint8) {
		for i := uint8(0); i < w; i++ {
			p = append(p, byte(v>>(8*i)))
		}
	}
	for _, e := range entries {
		put(e[0]>>w.shift, w.kw)
		put(e[1], w.cw)
		put(e[2], w.ew)
	}
	return p
}

// ssPayload is ssColumns in the entries' own columns.
func ssPayload(k uint32, total int64, entries ...[3]uint64) []byte {
	var keys, counts, errs uint64
	for _, e := range entries {
		keys, counts, errs = keys|e[0], counts|e[1], errs|e[2]
	}
	return ssColumns(k, total, columns(len(entries), keys, counts, errs), entries...)
}

func TestCorruptPayloads(t *testing.T) {
	// Handcrafted payloads use the same frameFor the encoders use, so the
	// envelope is valid and only the payload is wrong.
	cases := []struct {
		name  string
		frame []byte
	}{
		{"ss-zero-capacity", frameFor(KindSpaceSaving, 0, 0, 0, ssPayload(0, 0))},
		{"ss-capacity-over-budget", frameFor(KindSpaceSaving, 0, 0, 0, ssPayload(maxCounters+1, 0))},
		{"ss-entries-exceed-capacity", frameFor(KindSpaceSaving, 0, 0, 0,
			ssPayload(1, 2, [3]uint64{1, 1, 0}, [3]uint64{2, 1, 0}))},
		{"ss-unbacked-count", frameFor(KindSpaceSaving, 0, 0, 0, func() []byte {
			p := appendU32(nil, 8)
			p = appendI64(p, 0)
			return append(appendU32(p, 1<<30), 0, 1, 1, 0)
		}())},
		{"ss-negative-total", frameFor(KindSpaceSaving, 0, 0, 0, ssPayload(8, -1))},
		{"ss-err-above-count", frameFor(KindSpaceSaving, 0, 0, 0, ssPayload(8, 5, [3]uint64{1, 2, 3}))},
		{"ss-duplicate-key", frameFor(KindSpaceSaving, 0, 0, 0,
			ssPayload(8, 4, [3]uint64{1, 2, 0}, [3]uint64{1, 2, 0}))},
		{"ss-trailing-payload", frameFor(KindSpaceSaving, 0, 0, 0, append(ssPayload(8, 0), 0))},
		{"exact-unsorted", frameFor(KindExact, 4, 8, 32, func() []byte {
			p := appendU32(nil, 2)
			p = appendU64(p, 9)
			p = appendI64(p, 1)
			p = appendU64(p, 3)
			return appendI64(p, 1)
		}())},
		{"exact-zero-count", frameFor(KindExact, 4, 8, 32, func() []byte {
			p := appendU32(nil, 1)
			p = appendU64(p, 9)
			return appendI64(p, 0)
		}())},
		{"sliding-empty-payload", frameFor(KindSliding, 4, 8, 32, nil)},
		{"sliding-zero-window", frameFor(KindSliding, 4, 8, 32, func() []byte {
			p := appendI64(nil, 0)
			p = appendU16(p, 4)
			p = appendU32(p, 64)
			return appendU16(p, 4)
		}())},
		{"sliding-frame-clock-overflow", frameFor(KindSliding, 4, 8, 32, func() []byte {
			// Geometry of a 1-frame, 1-counter ring over the hierarchy's
			// levels whose first level declares a frame clock past
			// maxAbsFrame: the DoS guard that keeps advance loops bounded.
			p := appendI64(nil, int64(time.Second))
			p = appendU16(p, 1)
			p = appendU32(p, 1)
			p = appendU16(p, uint16(testHierarchy().Levels()))
			p = appendI64(p, maxAbsFrame+1)
			for i := 0; i < 2; i++ {
				p = appendI64(p, 0)
				p = append(p, ssPayload(1, 0)...)
			}
			return p
		}())},
		{"filter-bad-decay-tag", frameFor(KindFilter, 0, 0, 0, []byte{3})},
		{"filter-zero-tau", frameFor(KindFilter, 0, 0, 0, func() []byte {
			p := []byte{decayExponential}
			return appendI64(p, 0)
		}())},
		{"filter-nan-rate", frameFor(KindFilter, 0, 0, 0, func() []byte {
			p := []byte{decayLeaky}
			return appendF64(p, math.NaN())
		}())},
		{"continuous-nan-phi", frameFor(KindContinuous, 4, 8, 32, func() []byte {
			p := appendF64(nil, math.NaN())
			p = appendF64(p, 0.9)
			p = append(p, 0)
			p = appendU64(p, 0)
			p = appendI64(p, int64(time.Second))
			p = appendU64(p, 0)
			return p
		}())},
		// The exit ratio and the warm-up are fixed rules the header only
		// restates: the exit ratio at payload offset 8, the warm-up at 25.
		{"continuous-exit-ratio-not-the-rule", mangle(EncodeContinuous(testContinuous(t, 3)), func(b []byte) {
			binary.LittleEndian.PutUint64(b[headerSize+8:], math.Float64bits(1))
		})},
		{"continuous-warm-up-not-tau", mangle(EncodeContinuous(testContinuous(t, 3)), func(b []byte) {
			binary.LittleEndian.PutUint64(b[headerSize+25:], uint64(time.Second))
		})},
	}
	for _, tc := range append(cases, hostileDicts(t)...) {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decode(tc.frame); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode = %v, want ErrCorrupt", err)
			}
			if !strings.HasPrefix(tc.name, "dict-") || !strings.HasSuffix(tc.name, "-unbacked") {
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

// hostileDicts are version-4 continuous frames a decoder refuses for their
// leaf level's dictionary section alone — 256 hashed cells, every other
// level well formed — and bare filters of the largest shape the budget
// admits whose dictionary the payload does not back, which are refused
// before anything is sized from it. The well-formed section they vary holds
// cells 0, 2 and 7 in 2 masses, 1.5 2.5 1.5: gaps 1, 2 and 5, ids 0 1 0.
func hostileDicts(t testing.TB) []struct {
	name  string
	frame []byte
} {
	col := func(n int, vs ...float64) []float64 { return append(vs, make([]float64, n-len(vs))...) }
	at := func(leaf section) []byte {
		return craftSections(t, VersionLevelsDict, 256, []section{leaf,
			column(VersionLevelsDict, col(256, 1)), column(VersionLevelsDict, col(256, 1)),
			column(VersionLevelsDict, col(256, 0, 3)), column(VersionLevelsDict, col(1, 4))})
	}
	masses, gaps, ids := []float64{1.5, 2.5}, []uint64{1, 2, 5}, []uint64{0, 1, 0}
	if _, err := Decode(at(dict(3, 1, 1, masses, gaps, ids))); err != nil {
		t.Fatalf("the well-formed section: %v", err)
	}
	// A dense column of 250 cells all of one mass, declared as 250 masses:
	// its own dictionary would take 258 bytes against the column's 2 048.
	flat := make([]float64, 256)
	for i := range flat[:250] {
		flat[i] = 1.5
	}
	// And 250 cells in a row of 250 masses, written as a dictionary: 2 500
	// bytes.
	var distinct []float64
	var ones, counted []uint64
	for i := range 250 {
		distinct, ones, counted = append(distinct, float64(i+1)), append(ones, 1), append(counted, uint64(i))
	}
	// A bare filter of maxFilterCells cells, every one occupied, in m
	// masses of which the payload holds the first `held`, and no rows: a
	// dictionary, 8·m + (1 + iw)·2²⁴ bytes against the dense column's 8·2²⁴.
	unbacked := func(m, held int) []byte {
		p := appendI64([]byte{decayExponential}, int64(time.Second))
		p = appendU32(p, maxFilterCells)
		p = appendU16(p, 3)
		p = appendU64(p, 7)
		p = appendI64(p, 1)
		p = appendI64(p, 5)
		p = appendU32(appendU32(p, maxFilterCells), uint32(m))
		p = append(p, 1, width(uint64(m-1)))
		for i := range held {
			p = appendF64(p, float64(i+1))
		}
		return frameFor(KindFilter, 0, 0, 0, p)
	}
	return []struct {
		name  string
		frame []byte
	}{
		{"dict-duplicate-mass", at(dict(3, 1, 1, []float64{1.5, 1.5}, gaps, ids))},
		{"dict-mass-unused", at(dict(3, 1, 1, []float64{1.5, 2.5, 3.5}, gaps, ids))},
		{"dict-ids-out-of-order", at(dict(3, 1, 1, masses, gaps, []uint64{1, 0, 0}))},
		{"dict-id-past-masses", at(dict(3, 1, 1, masses, gaps, []uint64{0, 1, 2}))},
		{"dict-gap-width-not-minimal", at(dict(3, 2, 1, masses, gaps, ids))},
		{"dict-id-width-not-minimal", at(dict(3, 1, 2, masses, gaps, ids))},
		{"dict-zero-gap", at(dict(3, 1, 1, masses, []uint64{1, 0, 5}, ids))},
		{"dict-gap-past-cells", at(dict(3, 2, 1, masses, []uint64{1, 2, 300}, ids))},
		{"dict-more-masses-than-cells", at(dict(1, 1, 1, masses, gaps[:1], ids[:1]))},
		{"dict-dense-not-smaller", at(dense(250, 250, 1, 1, flat))},
		{"dict-where-dense-is-smaller", at(dict(250, 1, 1, distinct, ones, counted))},
		{"dict-masses-unbacked", unbacked(1<<20, 0)},
		{"dict-rows-unbacked", unbacked(1, 1)},
	}
}

// TestSparseTrustBoundary: a version-2 filter's cells are not backed by
// payload bytes, so everything a frame declares about them is checked for
// itself — the cell budget before anything is sized, then counts, indices,
// masses and landmarks — and refused with a typed error.
func TestSparseTrustBoundary(t *testing.T) {
	// filter assembles a version-2 KindFilter frame around a handcrafted
	// column.
	filter := func(cells uint32, landmark int64, occupied uint32, body ...any) []byte {
		p := appendI64([]byte{decayExponential}, int64(time.Second))
		p = appendU32(p, cells)
		p = appendU16(p, 3)
		p = appendU64(p, 7)
		p = appendI64(p, 1)
		p = appendI64(p, landmark)
		p = appendU32(p, occupied)
		for _, v := range body {
			switch v := v.(type) {
			case int:
				p = appendU32(p, uint32(v))
			case float64:
				p = appendF64(p, v)
			}
		}
		return mangle(frameFor(KindFilter, 0, 0, 0, p), func(b []byte) { b[4] = VersionSparse })
	}
	negZero := math.Copysign(0, -1)
	if _, err := Decode(filter(8, 5, 2, 1, 1.5, 6, 2.5)); err != nil {
		t.Fatalf("well-formed sparse column: %v", err)
	}
	if _, err := Decode(filter(2, 5, 2, 1.5, 2.5)); err != nil {
		t.Fatalf("well-formed dense column: %v", err)
	}
	if _, err := Decode(filter(8, tdbf.NoLandmark, 0)); err != nil {
		t.Fatalf("empty filter without a landmark: %v", err)
	}
	good := EncodeContinuous(testContinuous(t, 8))
	exact := EncodeExact(testHierarchy(), testExact(2, 100))
	for _, tc := range []struct {
		name  string
		frame []byte
		want  error
	}{
		{"cells-over-budget", filter(maxFilterCells+1, 5, 0), ErrCorrupt},
		{"zero-cells", filter(0, 5, 0), ErrCorrupt},
		{"occupied-exceeds-cells", filter(8, 5, 9), ErrCorrupt},
		{"rows-unbacked", filter(8, 5, 2, 1, 1.5), ErrCorrupt},
		{"index-out-of-range", filter(8, 5, 1, 8, 1.5), ErrCorrupt},
		{"index-repeated", filter(8, 5, 2, 3, 1.5, 3, 2.5), ErrCorrupt},
		{"index-decreasing", filter(8, 5, 2, 3, 1.5, 2, 2.5), ErrCorrupt},
		{"sparse-nan", filter(8, 5, 1, 3, math.NaN()), ErrCorrupt},
		{"sparse-inf", filter(8, 5, 1, 3, math.Inf(1)), ErrCorrupt},
		{"sparse-zero", filter(8, 5, 1, 3, 0.0), ErrCorrupt},
		{"sparse-negative", filter(8, 5, 1, 3, -1.5), ErrCorrupt},
		{"dense-negative", filter(2, 5, 2, 1.5, -2.5), ErrCorrupt},
		{"dense-negative-zero", filter(2, 5, 2, 1.5, negZero), ErrCorrupt},
		{"dense-nan", filter(2, 5, 2, 1.5, math.NaN()), ErrCorrupt},
		{"dense-count-mismatch", filter(2, 5, 2, 1.5, 0.0), ErrCorrupt},
		{"dense-short", filter(2, 5, 2, 1.5), ErrCorrupt},
		{"dense-in-sparse-clothing", filter(2, 5, 2, 0, 1.5, 1, 2.5), ErrCorrupt},
		{"landmark-out-of-range", filter(8, maxAbsTime+1, 1, 3, 1.5), ErrCorrupt},
		{"landmark-below-range", filter(8, -maxAbsTime-1, 1, 3, 1.5), ErrCorrupt},
		{"mass-without-landmark", filter(8, tdbf.NoLandmark, 1, 3, 1.5), ErrCorrupt},
		{"trailing-bytes", filter(8, 5, 1, 3, 1.5, 0), ErrCorrupt},
		{"level-landmark-drift", mangle(good, func(b []byte) {
			// The tracker's landmark is the last header field before the
			// active-set count.
			off := headerSize + continuousHeaderSize - 4 - 2 - 8
			binary.LittleEndian.PutUint64(b[off:], binary.LittleEndian.Uint64(b[off:])+1)
		}), ErrCorrupt},
		{"v2-on-another-kind", mangle(exact, func(b []byte) { b[4] = VersionSparse }), ErrVersion},
		// Version 3 reads the occupied count's row as the dictionary's code:
		// 3 masses for one cell.
		{"version-3", mangle(filter(8, 5, 1, 3, 1.5), func(b []byte) { b[4] = VersionDict }), ErrCorrupt},
		{"version-4", mangle(filter(8, 5, 1, 3, 1.5), func(b []byte) { b[4] = VersionDict + 1 }), ErrVersion},
		{"version-0", mangle(good, func(b []byte) { b[4] = 0 }), ErrVersion},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if v, err := Decode(tc.frame); !errors.Is(err, tc.want) || v != nil {
				t.Fatalf("Decode = %T, %v; want %v", v, err, tc.want)
			}
		})
	}
}
