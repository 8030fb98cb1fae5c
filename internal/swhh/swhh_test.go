package swhh

import (
	"math/rand"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/trace"
)

const sec = int64(time.Second)

func TestConfigValidation(t *testing.T) {
	if _, err := NewSliding(Config{Window: 0}); err == nil {
		t.Error("zero window should fail")
	}
	s, err := NewSliding(Config{Window: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.Frames != 8 || s.cfg.Counters != 512 {
		t.Errorf("defaults not applied: %+v", s.cfg)
	}
}

// TestEpochTimestampFirstPacket is the frame-advance spin regression: the
// first packet of a real trace carries an epoch-nanosecond timestamp
// (~1.7e18), and advance used to loop once per elapsed frame from
// curFrame 0 — ~10^10 iterations before the packet landed. The clamp must
// jump in one step; the deadline is generous only to keep slow CI from
// flaking, the jump itself is microseconds.
func TestEpochTimestampFirstPacket(t *testing.T) {
	s, err := NewSliding(Config{Window: time.Second, Frames: 8, Counters: 64})
	if err != nil {
		t.Fatal(err)
	}
	epoch := int64(1_700_000_000_000_000_000) // 2023-11-14 in ns
	start := time.Now()
	s.Update(7, 100, epoch)
	if el := time.Since(start); el > time.Second {
		t.Fatalf("first epoch-timestamp update took %v", el)
	}
	if got := s.Estimate(7, epoch); got != 100 {
		t.Errorf("estimate = %d, want 100", got)
	}
	if got := s.WindowTotal(epoch); got != 100 {
		t.Errorf("total = %d, want 100", got)
	}
	// And the hierarchical wrapper must survive the same first packet
	// through both ingest paths.
	h := addr.NewIPv4Hierarchy(addr.Byte)
	d, err := NewSlidingHHH(h, Config{Window: time.Second, Frames: 8, Counters: 64})
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	ingest(d, addr.MustParseAddr("10.1.2.3"), 100, epoch)
	d.UpdateKeys(pack(h, []trace.Packet{{Ts: epoch + 1, Src: addr.MustParseAddr("10.1.2.4"), Size: 50}}))
	if el := time.Since(start); el > time.Second {
		t.Fatalf("SlidingHHH epoch ingest took %v", el)
	}
	if got := d.WindowTotal(epoch + 1); got != 150 {
		t.Errorf("SlidingHHH total = %d, want 150", got)
	}
}

// TestIdleGapAdvances pins the other face of the same bug: an idle gap of
// one hour over 1 ms frames is 3.6e6 elapsed frames, which must collapse
// into one wholesale reset, not a per-frame loop.
func TestIdleGapAdvances(t *testing.T) {
	s, err := NewSliding(Config{Window: 8 * time.Millisecond, Frames: 8, Counters: 64})
	if err != nil {
		t.Fatal(err)
	}
	if s.frameNs != int64(time.Millisecond) {
		t.Fatalf("frameNs = %d, want 1ms", s.frameNs)
	}
	s.Update(7, 100, 0)
	start := time.Now()
	s.Update(9, 50, int64(time.Hour)) // 3.6e6 frames later
	if el := time.Since(start); el > time.Second {
		t.Fatalf("1h-gap update took %v", el)
	}
	if got := s.Estimate(7, int64(time.Hour)); got != 0 {
		t.Errorf("pre-gap key not expired: %d", got)
	}
	if got := s.WindowTotal(int64(time.Hour)); got != 50 {
		t.Errorf("post-gap total = %d, want 50", got)
	}
}

// TestSubFrameWindow pins the frameNs divide-by-zero fix: a window
// shorter than Frames nanoseconds used to yield frameNs == 0 and panic in
// advance; it must instead floor the frame length at 1 ns and work.
func TestSubFrameWindow(t *testing.T) {
	s, err := NewSliding(Config{Window: 3, Frames: 8, Counters: 16}) // 3 ns window
	if err != nil {
		t.Fatal(err)
	}
	if s.frameNs != 1 {
		t.Fatalf("frameNs = %d, want 1", s.frameNs)
	}
	s.Update(7, 10, 5)
	if got := s.Estimate(7, 5); got != 10 {
		t.Errorf("estimate = %d, want 10", got)
	}
	// 9 ns later every 1-ns frame has expired.
	if got := s.Estimate(7, 14); got != 0 {
		t.Errorf("estimate after expiry = %d, want 0", got)
	}
}

func TestRecentKeyIsCounted(t *testing.T) {
	s, err := NewSliding(Config{Window: time.Second, Frames: 4, Counters: 64})
	if err != nil {
		t.Fatal(err)
	}
	s.Update(7, 100, 0)
	s.Update(7, 50, sec/2)
	if got := s.Estimate(7, sec/2); got != 150 {
		t.Errorf("estimate = %d, want 150", got)
	}
	if got := s.WindowTotal(sec / 2); got != 150 {
		t.Errorf("total = %d", got)
	}
}

func TestOldTrafficExpires(t *testing.T) {
	s, err := NewSliding(Config{Window: time.Second, Frames: 4, Counters: 64})
	if err != nil {
		t.Fatal(err)
	}
	s.Update(7, 1000, 0)
	// After W(1+1/k) = 1.25 s the entry must be fully expired.
	if got := s.Estimate(7, sec+sec/4+1); got != 0 {
		t.Errorf("stale estimate = %d, want 0", got)
	}
	if got := s.WindowTotal(2 * sec); got != 0 {
		t.Errorf("stale total = %d", got)
	}
}

func TestCoverageBounds(t *testing.T) {
	// A steady 1-unit-per-ms flow: the windowed total must land between
	// W and W(1+1/k) worth of traffic.
	s, err := NewSliding(Config{Window: time.Second, Frames: 8, Counters: 64})
	if err != nil {
		t.Fatal(err)
	}
	now := int64(0)
	for i := 0; i < 5000; i++ {
		now += int64(time.Millisecond)
		s.Update(1, 1, now)
	}
	got := s.WindowTotal(now)
	if got < 1000 || got > 1125+1 {
		t.Errorf("window total %d outside [1000, 1126]", got)
	}
}

func TestHeavyKeysFindsHeavy(t *testing.T) {
	s, err := NewSliding(Config{Window: time.Second, Frames: 8, Counters: 128})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	now := int64(0)
	for i := 0; i < 20000; i++ {
		now += int64(50 * time.Microsecond)
		if i%4 == 0 {
			s.Update(42, 1000, now) // 25% of packets, heavier bytes
		} else {
			s.Update(uint64(rng.Intn(5000))+100, 100, now)
		}
	}
	hk := s.HeavyKeys(0.2, now)
	found := false
	for _, kv := range hk {
		if kv.Key == 42 {
			found = true
		}
	}
	if !found {
		t.Fatalf("heavy key missing from %v", hk)
	}
	// And a burst that ended long ago must not be reported.
	if hk2 := s.HeavyKeys(0.2, now+10*sec); len(hk2) != 0 {
		t.Errorf("stale heavy keys: %v", hk2)
	}
}

func TestHeavyKeysEmptyWindow(t *testing.T) {
	s, err := NewSliding(Config{Window: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if hk := s.HeavyKeys(0.01, 0); hk != nil {
		t.Errorf("empty window returned %v", hk)
	}
}

func TestResetAndSize(t *testing.T) {
	s, err := NewSliding(Config{Window: time.Second, Frames: 4, Counters: 32})
	if err != nil {
		t.Fatal(err)
	}
	s.Update(1, 10, 0)
	s.Reset()
	if s.Estimate(1, 0) != 0 || s.WindowTotal(0) != 0 {
		t.Error("Reset incomplete")
	}
	// Exact accounting: frames+1 summaries, as each reports the storage it
	// holds, and per slot an 8-byte total and three 8-byte stamps (version,
	// floor, floor version). The one summary the update grew keeps its
	// storage through Reset.
	used := sketch.NewSpaceSaving(32)
	used.Update(1, 10)
	used.Reset()
	if want := 4*sketch.NewSpaceSaving(32).SizeBytes() + used.SizeBytes() + 5*32; s.SizeBytes() != want {
		t.Errorf("SizeBytes = %d, want %d", s.SizeBytes(), want)
	}
}

func TestSlidingHHHDetectsBoundaryBurst(t *testing.T) {
	// The motivating scenario: a burst across what would be a disjoint
	// window boundary is visible to the sliding detector at all times.
	h := addr.NewIPv4Hierarchy(addr.Byte)
	d, err := NewSlidingHHH(h, Config{Window: 2 * time.Second, Frames: 8, Counters: 128})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	attacker := addr.MustParseAddr("203.0.113.7")
	now := int64(0)
	var atBoundary hhh.Set
	for i := 0; i < 40000; i++ { // 20 s at 2000 pps
		now += sec / 2000
		ingest(d, addr.From4Uint32(rng.Uint32()), 500, now)
		if now > 9500*int64(time.Millisecond) && now < 10500*int64(time.Millisecond) {
			ingest(d, attacker, 1000, now)
		}
		// Query exactly when crossing the would-be window boundary at
		// 10 s: the burst is mid-flight, split across disjoint windows.
		if atBoundary == nil && now >= 10*sec {
			atBoundary = d.Query(0.05, now)
		}
	}
	if !atBoundary.Contains(addr.Host(attacker)) {
		t.Fatalf("sliding HHH missed mid-burst attacker: %v", atBoundary)
	}
	// Long after the burst, the attacker must have expired.
	if final := d.Query(0.05, now); final.Contains(addr.Host(attacker)) {
		t.Fatalf("attacker still reported 10 s after burst: %v", final)
	}
	if d.SizeBytes() <= 0 {
		t.Error("SizeBytes")
	}
}

func TestSlidingHHHConditioning(t *testing.T) {
	// One host dominating its /24: the host should be reported, the /24
	// conditioned away.
	h := addr.NewIPv4Hierarchy(addr.Byte)
	d, err := NewSlidingHHH(h, Config{Window: time.Second, Frames: 4, Counters: 128})
	if err != nil {
		t.Fatal(err)
	}
	heavy := addr.MustParseAddr("10.1.2.3")
	rng := rand.New(rand.NewSource(3))
	now := int64(0)
	for i := 0; i < 10000; i++ {
		now += int64(100 * time.Microsecond)
		if i%3 == 0 {
			ingest(d, heavy, 1000, now)
		} else {
			ingest(d, addr.From4Uint32(rng.Uint32()), 500, now)
		}
	}
	set := d.Query(0.1, now)
	if !set.Contains(addr.Host(heavy)) {
		t.Fatalf("heavy host missing: %v", set)
	}
	if set.Contains(addr.MustParsePrefix("10.1.2.0/24")) {
		t.Fatalf("/24 not conditioned away: %v", set)
	}
}

// TestSlidingMergeDisjointExact: merging summaries of disjoint key
// streams with ample capacity reproduces the union stream's estimates and
// totals exactly, frame for frame.
func TestSlidingMergeDisjointExact(t *testing.T) {
	cfg := Config{Window: time.Second, Frames: 4, Counters: 64}
	mk := func() *Sliding {
		s, err := NewSliding(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b, whole := mk(), mk(), mk()
	now := int64(0)
	for i := 0; i < 2000; i++ {
		now += int64(time.Millisecond)
		keyA, keyB := uint64(i%7), uint64(100+i%5)
		a.Update(keyA, 10, now)
		whole.Update(keyA, 10, now)
		b.Update(keyB, 3, now)
		whole.Update(keyB, 3, now)
	}
	a.Advance(now)
	b.Advance(now)
	merged := mk()
	merged.Merge(a)
	merged.Merge(b)
	if got, want := merged.WindowTotal(now), whole.WindowTotal(now); got != want {
		t.Errorf("merged total %d != whole %d", got, want)
	}
	for _, key := range []uint64{0, 3, 6, 100, 104} {
		if got, want := merged.Estimate(key, now), whole.Estimate(key, now); got != want {
			t.Errorf("key %d: merged %d != whole %d", key, got, want)
		}
	}
}

// TestSlidingMergeAlignsFrames: merging a summary that is several frames
// ahead first expires the receiver's stale frames, so mass the live
// stream would have dropped does not resurface.
func TestSlidingMergeAlignsFrames(t *testing.T) {
	cfg := Config{Window: time.Second, Frames: 4, Counters: 64}
	old, err := NewSliding(cfg)
	if err != nil {
		t.Fatal(err)
	}
	old.Update(7, 100, 0) // frame 0 only
	fresh, err := NewSliding(cfg)
	if err != nil {
		t.Fatal(err)
	}
	later := 3 * int64(time.Second) // frame 12: all of old's frames expired
	fresh.Update(9, 50, later)
	fresh.Merge(old)
	if got := fresh.Estimate(7, later); got != 0 {
		t.Errorf("expired key resurfaced with %d", got)
	}
	if got := fresh.WindowTotal(later); got != 50 {
		t.Errorf("total = %d, want 50", got)
	}
	// Reverse direction: merging a fresher summary advances the stale
	// receiver past its own frames.
	old2, err := NewSliding(cfg)
	if err != nil {
		t.Fatal(err)
	}
	old2.Update(7, 100, 0)
	old2.Merge(fresh)
	if got := old2.Estimate(7, later); got != 0 {
		t.Errorf("receiver kept expired mass: %d", got)
	}
	if got := old2.Estimate(9, later); got != 50 {
		t.Errorf("merged-in key = %d, want 50", got)
	}
}

// TestSlidingMergeConfigMismatch pins the panic on incompatible shapes.
func TestSlidingMergeConfigMismatch(t *testing.T) {
	a, _ := NewSliding(Config{Window: time.Second, Frames: 4})
	b, _ := NewSliding(Config{Window: time.Second, Frames: 8})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on frame-count mismatch")
		}
	}()
	a.Merge(b)
}

// TestSlidingHHHMergeIdentity: merging one detector into an empty one and
// querying reproduces the original's HHH set exactly (the K=1 sharded
// case).
func TestSlidingHHHMergeIdentity(t *testing.T) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	cfg := Config{Window: time.Second, Frames: 4, Counters: 128}
	src, err := NewSlidingHHH(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	now := int64(0)
	for i := 0; i < 20000; i++ {
		now += int64(50 * time.Microsecond)
		if i%3 == 0 {
			ingest(src, addr.MustParseAddr("10.1.2.3"), 900, now)
		} else {
			ingest(src, addr.From4Uint32(rng.Uint32()), 400, now)
		}
	}
	src.Advance(now)
	dst, err := NewSlidingHHH(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dst.Merge(src)
	want, got := src.Query(0.05, now), dst.Query(0.05, now)
	if !got.Equal(want) {
		t.Fatalf("merged copy differs:\n got %v\nwant %v", got, want)
	}
	for p, it := range want {
		if got[p].Count != it.Count || got[p].Conditioned != it.Conditioned {
			t.Errorf("%v: merged %+v != original %+v", p, got[p], it)
		}
	}
}

func BenchmarkSlidingUpdate(b *testing.B) {
	s, err := NewSliding(Config{Window: time.Second, Frames: 8, Counters: 512})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Update(uint64(i)&1023, 1000, int64(i)*1000)
	}
}

func BenchmarkSlidingHHHUpdate(b *testing.B) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	d, err := NewSlidingHHH(h, Config{Window: time.Second, Frames: 8, Counters: 512})
	if err != nil {
		b.Fatal(err)
	}
	benchUpdateKeys(b, h, d.UpdateKeys)
}
