package oracle

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/trace"
)

func testTrace(seed int64, n, spanSec int) []trace.Packet {
	rng := rand.New(rand.NewSource(seed))
	pkts := make([]trace.Packet, n)
	span := int64(spanSec) * int64(time.Second)
	step := span / int64(n)
	for i := range pkts {
		pkts[i] = trace.Packet{
			Ts:   int64(i) * step,
			Src:  addr.From4(10, byte(rng.Intn(4)), byte(rng.Intn(8)), byte(rng.Intn(32))),
			Size: uint32(40 + rng.Intn(1460)),
		}
	}
	return pkts
}

// TestWindowSetMatchesExact cross-checks the oracle's conditioned pass
// against the independently implemented hhh.Exact over the same window.
func TestWindowSetMatchesExact(t *testing.T) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	pkts := testTrace(1, 20000, 10)
	o := FromTrace(h, pkts)
	for _, win := range [][2]int64{
		{0, int64(2 * time.Second)},
		{int64(3 * time.Second), int64(7 * time.Second)},
		{0, math.MaxInt64},
	} {
		counts := map[addr.Addr]int64{}
		var total int64
		for i := range pkts {
			if pkts[i].Ts >= win[0] && pkts[i].Ts < win[1] {
				counts[pkts[i].Src] += int64(pkts[i].Size)
				total += int64(pkts[i].Size)
			}
		}
		for _, phi := range []float64{0.01, 0.05, 0.2} {
			want := hhh.ExactFromCounts(counts, h, hhh.Threshold(total, phi))
			got, gotTotal := o.WindowSet(win[0], win[1], phi)
			if gotTotal != total {
				t.Fatalf("window %v phi %v: total %d, want %d", win, phi, gotTotal, total)
			}
			if !got.Equal(want) {
				t.Fatalf("window %v phi %v: set %v, want %v", win, phi, got, want)
			}
			for p, it := range want {
				g := got[p]
				if g.Count != it.Count || g.Conditioned != it.Conditioned {
					t.Fatalf("window %v phi %v %v: item %+v, want %+v", win, phi, p, g, it)
				}
			}
		}
	}
}

// TestCursorMatchesRecount walks the cursor forward through random spans
// and holds every aggregate it returns — Len, Total and each leaf — to a
// brute-force recount. The traces carry stamps before 0 and past the last
// span, IPv6 sources the IPv4 oracle must skip and zero-length packets; the
// walks slide by random steps, narrow from the left, visit empty spans and
// jump past the last span, which takes the reset branch.
func TestCursorMatchesRecount(t *testing.T) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	var overlaps, resets int
	const grid = int64(50 * time.Millisecond)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		step := int64(1+rng.Intn(5)) * int64(100*time.Millisecond)
		width := step * int64(1+rng.Intn(6))
		span := width + step*int64(rng.Intn(8))
		pkts := make([]trace.Packet, rng.Intn(2000))
		for i := range pkts {
			src := addr.From4Uint32(rng.Uint32() & 0x3f)
			if rng.Intn(8) == 0 {
				src = addr.FromParts(0x20010db8<<32, rng.Uint64()&0x3f)
			}
			// On a 50 ms grid, so that stamps fall on span bounds.
			ts := rng.Int63n((span+2*width)/grid)*grid - width
			pkts[i] = trace.Packet{Ts: ts, Src: src, Size: uint32(rng.Intn(1500))}
		}
		trace.SortByTime(pkts)

		cur := FromTrace(h, pkts).Cursor()
		lo, hi := int64(0), int64(math.MinInt64)
		for lo < span {
			switch rng.Intn(6) {
			case 0: // narrow from the left, or an empty span past the last one
				hi = max(hi, lo)
			default:
				hi = max(hi, lo+width)
			}
			if diff := diffRecount(h, pkts, lo, hi, cur.Move(lo, hi)); diff != "" {
				t.Logf("seed %d: %s", seed, diff)
				return false
			}
			next := lo + step*int64(rng.Intn(3))
			if rng.Intn(6) == 0 {
				next = hi + step*int64(rng.Intn(3)) // past the span
			}
			if lo = max(next, lo+1); lo >= hi {
				resets++
			} else {
				overlaps++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if overlaps == 0 || resets == 0 {
		t.Fatalf("%d overlapping moves, %d resets: want both", overlaps, resets)
	}
}

// diffRecount holds got, the cursor's aggregate of [lo, hi), to a
// brute-force recount of pkts and describes the first difference, or
// returns "".
func diffRecount(h addr.Hierarchy, pkts []trace.Packet, lo, hi int64, got *sketch.Exact) string {
	want := map[uint64]int64{}
	var total int64
	for _, p := range pkts {
		if p.Ts >= lo && p.Ts < hi && p.Size > 0 && h.Match(p.Src) {
			want[h.Key(p.Src, 0)] += int64(p.Size)
			total += int64(p.Size)
		}
	}
	if got.Len() != len(want) || got.Total() != total {
		return fmt.Sprintf("[%d,%d): %d leaves, total %d; want %d, %d", lo, hi, got.Len(), got.Total(), len(want), total)
	}
	for k, c := range want {
		if got.Estimate(k) != c {
			return fmt.Sprintf("[%d,%d): leaf %x %d, want %d", lo, hi, k, got.Estimate(k), c)
		}
	}
	return ""
}

// sortedTrace is n random packets across dur, time-sorted, on 256 sources
// so that leaves collide.
func sortedTrace(seed int64, n int, dur time.Duration) []trace.Packet {
	rng := rand.New(rand.NewSource(seed))
	pkts := make([]trace.Packet, n)
	for i := range pkts {
		pkts[i] = trace.Packet{
			Ts:   rng.Int63n(int64(dur)),
			Src:  addr.From4Uint32(rng.Uint32() & 0xff),
			Size: uint32(40 + rng.Intn(1460)),
		}
	}
	trace.SortByTime(pkts)
	return pkts
}

// TestCursorTumbleMatchesRecount tiles a trace into disjoint windows, each
// Move taking the reset branch, and recounts every one.
func TestCursorTumbleMatchesRecount(t *testing.T) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	pkts := sortedTrace(1, 5000, 10*time.Second)
	cur := FromTrace(h, pkts).Cursor()
	sec := int64(time.Second)
	for lo := int64(0); lo < 10*sec; lo += sec {
		if diff := diffRecount(h, pkts, lo, lo+sec, cur.Move(lo, lo+sec)); diff != "" {
			t.Fatal(diff)
		}
	}
}

// TestCursorSlideMatchesRecount slides a 3 s window by 500 ms steps, each
// Move removing the packets lo passes and adding those hi passes.
func TestCursorSlideMatchesRecount(t *testing.T) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	pkts := sortedTrace(2, 8000, 12*time.Second)
	cur := FromTrace(h, pkts).Cursor()
	width, step := int64(3*time.Second), int64(500*time.Millisecond)
	n := 0
	for lo := int64(0); lo+width <= int64(12*time.Second); lo += step {
		if diff := diffRecount(h, pkts, lo, lo+width, cur.Move(lo, lo+width)); diff != "" {
			t.Fatalf("position %d: %s", n, diff)
		}
		n++
	}
	if n != 19 {
		t.Fatalf("%d positions, want 19", n)
	}
}

// TestCursorEmptySpans pins the windows after the trace's only packet:
// each comes back empty, and so does a span with lo == hi.
func TestCursorEmptySpans(t *testing.T) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	pkts := []trace.Packet{{Ts: 0, Src: addr.From4Uint32(1), Size: 100}}
	cur := FromTrace(h, pkts).Cursor()
	sec := int64(time.Second)
	var got []int64
	for lo := int64(0); lo < 5*sec; lo += sec {
		got = append(got, cur.Move(lo, lo+sec).Total())
	}
	if want := []int64{100, 0, 0, 0, 0}; !slices.Equal(got, want) {
		t.Fatalf("per-window bytes = %v, want %v", got, want)
	}
	if e := cur.Move(6*sec, 6*sec); e.Len() != 0 || e.Total() != 0 {
		t.Fatalf("empty span: %d leaves, total %d", e.Len(), e.Total())
	}
}

// TestCursorIgnoresOutOfSpanPackets pins that stamps before lo and at or
// past hi stay out of the aggregate.
func TestCursorIgnoresOutOfSpanPackets(t *testing.T) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	sec := int64(time.Second)
	pkts := []trace.Packet{
		{Ts: -5, Src: addr.From4Uint32(1), Size: 100},    // before the span
		{Ts: 0, Src: addr.From4Uint32(2), Size: 10},      // in it
		{Ts: sec, Src: addr.From4Uint32(3), Size: 20},    // at its end
		{Ts: sec + 1, Src: addr.From4Uint32(4), Size: 7}, // past it
	}
	e := FromTrace(h, pkts).Cursor().Move(0, sec)
	if e.Len() != 1 || e.Total() != 10 || e.Estimate(h.Key(addr.From4Uint32(2), 0)) != 10 {
		t.Fatalf("%d leaves, total %d: want only the in-span packet", e.Len(), e.Total())
	}
}

// TestCursorSkipsOtherFamily pins the family filter: an IPv4 oracle skips
// IPv6 sources and an IPv6 oracle skips IPv4 ones.
func TestCursorSkipsOtherFamily(t *testing.T) {
	v4, v6 := addr.From4Uint32(1), addr.MustParseAddr("2001:db8::1")
	pkts := []trace.Packet{{Ts: 0, Src: v4, Size: 99}, {Ts: 1, Src: v6, Size: 40}}
	for _, c := range []struct {
		h    addr.Hierarchy
		keep addr.Addr
		size int64
	}{
		{addr.NewIPv4Hierarchy(addr.Byte), v4, 99},
		{addr.NewIPv6Hierarchy(addr.Byte), v6, 40},
	} {
		e := FromTrace(c.h, pkts).Cursor().Move(0, 2)
		if e.Len() != 1 || e.Total() != c.size || e.Estimate(c.h.Key(c.keep, 0)) != c.size {
			t.Fatalf("keeping %v: %d leaves, total %d; want one leaf of %d", c.keep, e.Len(), e.Total(), c.size)
		}
	}
}

// TestDecayedCounts pins the decayed aggregate against a direct sum.
func TestDecayedCounts(t *testing.T) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	pkts := testTrace(2, 5000, 5)
	o := FromTrace(h, pkts)
	tau := 2 * time.Second
	now := pkts[len(pkts)-1].Ts
	var want float64
	for i := range pkts {
		want += float64(pkts[i].Size) * math.Exp(-float64(now-pkts[i].Ts)/float64(tau))
	}
	levels, total := o.DecayedLevelCounts(now, tau)
	if math.Abs(total-want) > 1e-6*want {
		t.Fatalf("decayed total %v, want %v", total, want)
	}
	// The root's subtree mass is the total.
	var root float64
	for _, v := range levels[len(levels)-1] {
		root += v
	}
	if math.Abs(root-total) > 1e-6*total {
		t.Fatalf("root mass %v, total %v", root, total)
	}
}

// TestSlidingSpan pins the frame-ring coverage arithmetic, including the
// 1 ns frame floor.
func TestSlidingSpan(t *testing.T) {
	sec := int64(time.Second)
	cases := []struct {
		window time.Duration
		frames int
		now    int64
		want   int64
	}{
		{8 * time.Second, 8, 10 * sec, 2 * sec},    // aligned
		{8 * time.Second, 8, 10*sec + 1, 2 * sec},  // inside frame 10
		{8 * time.Second, 8, 11*sec - 1, 2 * sec},  // frame floor(10.999)=10
		{8 * time.Second, 0, 10 * sec, 2 * sec},    // frames defaults to 8
		{4 * time.Nanosecond, 8, 100, 100 - 8},     // frameNs floors at 1
		{10 * time.Second, 5, 3 * sec, -(8 * sec)}, // frame-aligned, before trace start
	}
	for _, c := range cases {
		if got := SlidingSpan(c.window, c.frames, c.now); got != c.want {
			t.Errorf("SlidingSpan(%v, %d, %d) = %d, want %d", c.window, c.frames, c.now, got, c.want)
		}
	}
}

// TestUncovered pins the conditioned-given-output walk on a handcrafted
// lattice: claims propagate from maximal reported descendants only, and
// the widened threshold grows with the number of such claims.
func TestUncovered(t *testing.T) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	a1 := addr.MustParseAddr("10.1.1.1")
	a2 := addr.MustParseAddr("10.1.1.2")
	b1 := addr.MustParseAddr("10.2.0.1")
	leaves := map[uint64]int64{h.Key(a1, 0): 100, h.Key(a2, 0): 80, h.Key(b1, 0): 60}
	levels := rollUp(h, leaves)

	// Nothing reported, flat threshold 90: only a1 (/32, 100) and the
	// aggregates above it clear 90 — the /24, /16 (180, via a1+a2), /8
	// and root (240).
	misses := UncoveredCounts(h, levels, hhh.NewSet(), func(int) int64 { return 90 })
	wantMissing := map[string]bool{
		"10.1.1.1/32": true, "10.1.1.0/24": true, "10.1.0.0/16": true,
		"10.0.0.0/8": true, "0.0.0.0/0": true,
	}
	if len(misses) != len(wantMissing) {
		t.Fatalf("misses = %v, want %d prefixes", misses, len(wantMissing))
	}
	for _, m := range misses {
		if !wantMissing[m.Prefix.String()] {
			t.Fatalf("unexpected miss %v", m.Prefix)
		}
	}

	// Report the /24: it claims its whole subtree (180), so every
	// ancestor's conditioned volume drops to 60 — no ancestor misses.
	// The /32s under it are not conditioned by their parent's report
	// (conditioning discounts descendants, not ancestors), so a1 still
	// misses at the leaf level.
	got := hhh.NewSet(hhh.Item{Prefix: addr.MustParsePrefix("10.1.1.0/24"), Count: 180, Conditioned: 180})
	misses = UncoveredCounts(h, levels, got, func(int) int64 { return 90 })
	if len(misses) != 1 || misses[0].Prefix.String() != "10.1.1.1/32" {
		t.Fatalf("misses with /24 reported = %v, want only 10.1.1.1/32", misses)
	}

	// Widening by maximal-claim count: report both /32s. The /24's
	// conditioned volume is 0; the /16 sees two maximal claims (both
	// /32s pass through the unreported /24), so a threshold function of
	// maximal=2 that returns > 60 suppresses the /16's miss while
	// the root still misses if its (also maximal=2) need is <= 60.
	got = hhh.NewSet(
		hhh.Item{Prefix: addr.Host(a1), Count: 100, Conditioned: 100},
		hhh.Item{Prefix: addr.Host(a2), Count: 80, Conditioned: 80},
	)
	misses = UncoveredCounts(h, levels, got, func(maximal int) int64 {
		if maximal != 0 && maximal != 2 {
			t.Fatalf("unexpected maximal-claim count %d", maximal)
		}
		return 50 + int64(maximal)*10 // 50 flat, 70 above two claims
	})
	// Remaining conditioned volumes: /24 under a1+a2 claims = 0; the b1
	// leaf (60, no claims, need 50) misses; b1's ancestors conditioned 60
	// with 0 claims... b1 chain: /24 60, /16 60, /8 and root sit above
	// both branches: 240-180 = 60 with maximal=2 → need 70 → no miss.
	wantMissing = map[string]bool{
		"10.2.0.1/32": true, "10.2.0.0/24": true, "10.2.0.0/16": true,
	}
	if len(misses) != len(wantMissing) {
		t.Fatalf("misses = %+v, want %v", misses, wantMissing)
	}
	for _, m := range misses {
		if !wantMissing[m.Prefix.String()] {
			t.Fatalf("unexpected miss %v (have %+v)", m.Prefix, misses)
		}
	}
}
