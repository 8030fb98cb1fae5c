package window

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/trace"
)

// testHierarchy is the leaf-key hierarchy the recount helpers use: the
// IPv4 byte ladder, matching the window engines' default KeyFunc.
func testHierarchy() addr.Hierarchy { return addr.NewIPv4Hierarchy(addr.Byte) }

// mkTrace builds a random time-sorted trace of n packets across dur.
func mkTrace(n int, dur time.Duration, seed int64) []trace.Packet {
	rng := rand.New(rand.NewSource(seed))
	pkts := make([]trace.Packet, n)
	for i := range pkts {
		pkts[i] = trace.Packet{
			Ts:   rng.Int63n(int64(dur)),
			Src:  addr.From4Uint32(rng.Uint32() & 0xff), // small key space: collisions
			Size: uint32(40 + rng.Intn(1460)),
		}
	}
	trace.SortByTime(pkts)
	return pkts
}

// recount brute-forces the aggregate of [start, end) over pkts.
func recount(pkts []trace.Packet, start, end int64) (*sketch.Exact, int, int64) {
	e := sketch.NewExact(0)
	packets := 0
	var bytes int64
	for i := range pkts {
		p := &pkts[i]
		if p.Ts >= start && p.Ts < end {
			e.Update(testHierarchy().Key(p.Src, 0), int64(p.Size))
			packets++
			bytes += int64(p.Size)
		}
	}
	return e, packets, bytes
}

func sameLeaves(a, b *sketch.Exact) bool {
	if a.Len() != b.Len() || a.Total() != b.Total() {
		return false
	}
	ok := true
	a.ForEach(func(k uint64, c int64) {
		if b.Estimate(k) != c {
			ok = false
		}
	})
	return ok
}

func TestConfigValidation(t *testing.T) {
	base := Config{Width: time.Second, Step: time.Second, End: int64(10 * time.Second)}
	bad := []Config{
		{Width: 0, End: 1e9},
		{Width: time.Second, Step: -1, End: 1e9},
		{Width: time.Second, Step: 2 * time.Second, End: 1e9},                       // step > width
		{Width: time.Second, Step: 300 * time.Millisecond, End: int64(time.Minute)}, // non-divisible
		{Width: time.Second, Step: time.Second, End: 0},                             // empty span
		{Width: 10 * time.Second, Step: time.Second, End: int64(time.Second)},       // span < width
	}
	for i, cfg := range bad {
		err := Slide(trace.NewSliceSource(nil), cfg, func(*Result) error { return nil })
		if !errors.Is(err, ErrConfig) {
			t.Errorf("case %d: err = %v, want ErrConfig", i, err)
		}
	}
	if err := Slide(trace.NewSliceSource(nil), base, func(*Result) error { return nil }); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestConfigCountAndSpan(t *testing.T) {
	cfg := Config{Width: 10 * time.Second, Step: time.Second, End: int64(60 * time.Second)}
	if got := cfg.Count(); got != 51 {
		t.Errorf("Count = %d, want 51", got) // positions 0..50s starts
	}
	s, e := cfg.SpanFor(3)
	if s != int64(3*time.Second) || e != int64(13*time.Second) {
		t.Errorf("SpanFor(3) = [%d,%d)", s, e)
	}
	tum := Config{Width: 10 * time.Second, End: int64(60 * time.Second)}
	if got := tum.Count(); got != 6 {
		t.Errorf("tumbling Count = %d, want 6", got)
	}
}

func TestTumbleMatchesBruteForce(t *testing.T) {
	pkts := mkTrace(5000, 10*time.Second, 1)
	cfg := Config{Width: time.Second, End: int64(10 * time.Second)}
	n := 0
	err := Tumble(trace.NewSliceSource(pkts), cfg, func(r *Result) error {
		wantLeaves, wantPk, wantBytes := recount(pkts, r.Start, r.End)
		if r.Packets != wantPk || r.Bytes != wantBytes {
			t.Fatalf("window %d: packets=%d/%d bytes=%d/%d",
				r.Index, r.Packets, wantPk, r.Bytes, wantBytes)
		}
		if !sameLeaves(r.Leaves, wantLeaves) {
			t.Fatalf("window %d: leaves mismatch", r.Index)
		}
		if r.Index != n {
			t.Fatalf("window order: got %d want %d", r.Index, n)
		}
		if r.Duration() != time.Second {
			t.Fatalf("window duration %v", r.Duration())
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("emitted %d windows, want 10", n)
	}
}

func TestSlideMatchesBruteForce(t *testing.T) {
	pkts := mkTrace(8000, 12*time.Second, 2)
	cfg := Config{Width: 3 * time.Second, Step: 500 * time.Millisecond, End: int64(12 * time.Second)}
	n := 0
	err := Slide(trace.NewSliceSource(pkts), cfg, func(r *Result) error {
		wantLeaves, wantPk, wantBytes := recount(pkts, r.Start, r.End)
		if r.Packets != wantPk || r.Bytes != wantBytes {
			t.Fatalf("position %d [%d,%d): packets=%d/%d bytes=%d/%d",
				r.Index, r.Start, r.End, r.Packets, wantPk, r.Bytes, wantBytes)
		}
		if !sameLeaves(r.Leaves, wantLeaves) {
			t.Fatalf("position %d: leaves mismatch", r.Index)
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.Count(); n != want {
		t.Fatalf("emitted %d positions, want %d", n, want)
	}
}

func TestSlideEmitsEmptyWindows(t *testing.T) {
	// One packet at the very start, silence afterwards: every position
	// must still be delivered.
	pkts := []trace.Packet{{Ts: 0, Src: addr.From4Uint32(1), Size: 100}}
	cfg := Config{Width: time.Second, Step: time.Second, End: int64(5 * time.Second)}
	var got []int
	err := Tumble(trace.NewSliceSource(pkts), cfg, func(r *Result) error {
		got = append(got, r.Packets)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[0] != 1 || got[1] != 0 || got[4] != 0 {
		t.Fatalf("per-window packets = %v", got)
	}
}

func TestSlideSupersetOfTumble(t *testing.T) {
	// Every disjoint window must appear among sliding positions with an
	// identical aggregate — the structural property behind "hidden" HHHs.
	pkts := mkTrace(6000, 30*time.Second, 3)
	w := 5 * time.Second
	end := int64(30 * time.Second)

	type agg struct {
		bytes   int64
		packets int
	}
	sliding := map[int64]agg{}
	err := Slide(trace.NewSliceSource(pkts),
		Config{Width: w, Step: time.Second, End: end},
		func(r *Result) error {
			sliding[r.Start] = agg{r.Bytes, r.Packets}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	err = Tumble(trace.NewSliceSource(pkts),
		Config{Width: w, End: end},
		func(r *Result) error {
			s, ok := sliding[r.Start]
			if !ok {
				t.Fatalf("disjoint window start %d missing from sliding positions", r.Start)
			}
			if s.bytes != r.Bytes || s.packets != r.Packets {
				t.Fatalf("window at %d: disjoint %d/%d vs sliding %d/%d",
					r.Start, r.Packets, r.Bytes, s.packets, s.bytes)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSlideCallbackError(t *testing.T) {
	pkts := mkTrace(1000, 5*time.Second, 4)
	boom := errors.New("boom")
	calls := 0
	err := Slide(trace.NewSliceSource(pkts),
		Config{Width: time.Second, Step: time.Second, End: int64(5 * time.Second)},
		func(r *Result) error {
			calls++
			if calls == 2 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) || calls != 2 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestSlideIgnoresOutOfSpanPackets(t *testing.T) {
	pkts := []trace.Packet{
		{Ts: -5, Src: addr.From4Uint32(1), Size: 100}, // before origin
		{Ts: 0, Src: addr.From4Uint32(2), Size: 10},   // in span
		{Ts: int64(time.Second) + 1, Src: addr.From4Uint32(3), Size: 7} /* past end */}
	cfg := Config{Width: time.Second, Step: time.Second, End: int64(time.Second)}
	var total int64
	err := Tumble(trace.NewSliceSource(pkts), cfg, func(r *Result) error {
		total += r.Bytes
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 10 {
		t.Fatalf("total = %d, want only the in-span packet", total)
	}
}

func TestKeyAndWeightFuncs(t *testing.T) {
	h := testHierarchy()
	p := trace.Packet{Src: addr.From4Uint32(1), Dst: addr.From4Uint32(2), Size: 99}
	if k, ok := BySource(h)(&p); !ok || k != h.Key(p.Src, 0) {
		t.Error("BySource key")
	}
	// The other family is filtered, not keyed.
	v6 := trace.Packet{Src: addr.MustParseAddr("2001:db8::1"), Dst: addr.MustParseAddr("2001:db8::2")}
	if _, ok := BySource(h)(&v6); ok {
		t.Error("BySource must skip the other family")
	}
}

func TestTrimmedTumbleMatchesBruteForce(t *testing.T) {
	pkts := mkTrace(20000, 10*time.Second, 6)
	trims := []time.Duration{100 * time.Millisecond, 40 * time.Millisecond, 10 * time.Millisecond}
	cfg := TrimConfig{
		Width: 2 * time.Second,
		End:   int64(10 * time.Second),
		Trims: trims,
	}
	n := 0
	err := TrimmedTumble(trace.NewSliceSource(pkts), cfg, func(r *TrimResult) error {
		n++
		// Trims must be delivered sorted ascending.
		for j := 1; j < len(r.Trims); j++ {
			if r.Trims[j-1] >= r.Trims[j] {
				t.Fatal("trims not sorted")
			}
		}
		wantFull, wantPk, wantBytes := recount(pkts, r.Start, r.End)
		if !sameLeaves(r.Leaves, wantFull) || r.Packets != wantPk || r.Bytes != wantBytes {
			t.Fatalf("window %d full aggregate mismatch", r.Index)
		}
		for j, d := range r.Trims {
			wantVar, _, wantVarBytes := recount(pkts, r.Start, r.End-int64(d))
			got := r.VariantLeaves(j)
			if !sameLeaves(got, wantVar) {
				t.Fatalf("window %d trim %v: variant leaves mismatch", r.Index, d)
			}
			if r.VariantBytes(j) != wantVarBytes {
				t.Fatalf("window %d trim %v: bytes %d want %d",
					r.Index, d, r.VariantBytes(j), wantVarBytes)
			}
			wantTail, _, wantTailBytes := recount(pkts, r.End-int64(d), r.End)
			if !sameLeaves(r.TailLeaves[j], wantTail) || r.TailBytes[j] != wantTailBytes {
				t.Fatalf("window %d trim %v: tail mismatch", r.Index, d)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("emitted %d windows, want 5", n)
	}
}

func TestTrimmedTumbleValidation(t *testing.T) {
	src := func() trace.Source { return trace.NewSliceSource(nil) }
	fn := func(*TrimResult) error { return nil }
	cases := []TrimConfig{
		{Width: 0, End: 1e9, Trims: []time.Duration{time.Millisecond}},
		{Width: time.Second, End: 1e8, Trims: []time.Duration{time.Millisecond}},     // span < width
		{Width: time.Second, End: 1e9, Trims: nil},                                   // no trims
		{Width: time.Second, End: 1e9, Trims: []time.Duration{0}},                    // zero trim
		{Width: time.Second, End: 1e9, Trims: []time.Duration{time.Second}},          // trim == width
		{Width: time.Second, End: 1e9, Trims: []time.Duration{1e6, 1e6}},             // duplicate
		{Width: time.Second, End: 1e9, Trims: []time.Duration{-1 * time.Nanosecond}}, // negative
	}
	for i, cfg := range cases {
		if err := TrimmedTumble(src(), cfg, fn); !errors.Is(err, ErrConfig) {
			t.Errorf("case %d: err = %v, want ErrConfig", i, err)
		}
	}
}

func TestTrimmedTumbleCallbackError(t *testing.T) {
	pkts := mkTrace(100, 2*time.Second, 8)
	boom := errors.New("boom")
	err := TrimmedTumble(trace.NewSliceSource(pkts), TrimConfig{
		Width: time.Second,
		End:   int64(2 * time.Second),
		Trims: []time.Duration{time.Millisecond},
	}, func(*TrimResult) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func BenchmarkSlide(b *testing.B) {
	pkts := mkTrace(200000, 60*time.Second, 10)
	cfg := Config{Width: 10 * time.Second, Step: time.Second, End: int64(60 * time.Second)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := trace.NewSliceSource(pkts)
		if err := Slide(src, cfg, func(r *Result) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrimmedTumble(b *testing.B) {
	pkts := mkTrace(200000, 60*time.Second, 11)
	cfg := TrimConfig{
		Width: 10 * time.Second,
		End:   int64(60 * time.Second),
		Trims: []time.Duration{10 * time.Millisecond, 40 * time.Millisecond, 100 * time.Millisecond},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := trace.NewSliceSource(pkts)
		if err := TrimmedTumble(src, cfg, func(r *TrimResult) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}
