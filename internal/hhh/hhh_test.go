package hhh

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/trace"
)

func pfx(s string) addr.Prefix { return addr.MustParsePrefix(s) }

func v4ByteHierarchy() addr.Hierarchy { return addr.NewIPv4Hierarchy(addr.Byte) }

func TestSetBasics(t *testing.T) {
	s := NewSet(
		Item{Prefix: pfx("10.0.0.0/8"), Count: 100, Conditioned: 60},
		Item{Prefix: pfx("10.1.0.0/16"), Count: 40, Conditioned: 40},
	)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.Contains(pfx("10.0.0.0/8")) || s.Contains(pfx("11.0.0.0/8")) {
		t.Error("Contains wrong")
	}
	ps := s.Prefixes()
	if len(ps) != 2 || ps[0] != pfx("10.0.0.0/8") || ps[1] != pfx("10.1.0.0/16") {
		t.Errorf("Prefixes order: %v", ps)
	}
	items := s.Items()
	if items[0].Prefix != pfx("10.0.0.0/8") {
		t.Error("Items order")
	}
	if s.String() != "{10.0.0.0/8 10.1.0.0/16}" {
		t.Errorf("String = %q", s.String())
	}
	if items[0].String() == "" {
		t.Error("Item.String empty")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := NewSet(
		Item{Prefix: pfx("1.0.0.0/8")},
		Item{Prefix: pfx("2.0.0.0/8")},
		Item{Prefix: pfx("3.0.0.0/8")},
	)
	b := NewSet(
		Item{Prefix: pfx("2.0.0.0/8")},
		Item{Prefix: pfx("3.0.0.0/8")},
		Item{Prefix: pfx("4.0.0.0/8")},
	)
	if d := a.Diff(b); d.Len() != 1 || !d.Contains(pfx("1.0.0.0/8")) {
		t.Errorf("Diff = %v", d)
	}
	if i := a.Intersect(b); i.Len() != 2 {
		t.Errorf("Intersect len = %d", i.Len())
	}
	if got := a.Jaccard(b); got != 0.5 {
		t.Errorf("Jaccard = %v, want 0.5", got)
	}
	if !a.Equal(a) || a.Equal(b) {
		t.Error("Equal wrong")
	}
	c := NewSet()
	c.UnionInPlace(a)
	if !c.Equal(a) {
		t.Error("UnionInPlace")
	}
	if c.UnionInPlace(b); c.Len() != 4 {
		t.Errorf("UnionInPlace len = %d", c.Len())
	}
}

func TestJaccardEdgeCases(t *testing.T) {
	empty := NewSet()
	if empty.Jaccard(NewSet()) != 1 {
		t.Error("two empty sets should have Jaccard 1")
	}
	a := NewSet(Item{Prefix: pfx("1.0.0.0/8")})
	if a.Jaccard(empty) != 0 || empty.Jaccard(a) != 0 {
		t.Error("empty vs non-empty should be 0")
	}
	if a.Jaccard(a) != 1 {
		t.Error("self Jaccard should be 1")
	}
}

func TestJaccardSymmetryProperty(t *testing.T) {
	mk := func(bits []uint8) Set {
		s := NewSet()
		for _, b := range bits {
			s.Add(Item{Prefix: addr.PrefixFrom(addr.From4Uint32(uint32(b)<<24), 96+8)})
		}
		return s
	}
	f := func(xs, ys []uint8) bool {
		a, b := mk(xs), mk(ys)
		j1, j2 := a.Jaccard(b), b.Jaccard(a)
		return j1 == j2 && j1 >= 0 && j1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestThreshold(t *testing.T) {
	if Threshold(1000, 0.05) != 50 {
		t.Error("5% of 1000 should be 50")
	}
	if Threshold(10, 0.001) != 1 {
		t.Error("tiny thresholds floor at 1")
	}
	defer func() {
		if recover() == nil {
			t.Error("Threshold(_, 0) should panic")
		}
	}()
	Threshold(1000, 0)
}

// bruteHHH is an independent literal implementation of the discounted HHH
// definition: processing levels bottom-up, a prefix's conditioned count is
// the sum of leaf volumes underneath it that are not covered by any
// already-marked (more specific) HHH.
func bruteHHH(counts map[addr.Addr]int64, h addr.Hierarchy, T int64) Set {
	type leaf struct {
		a addr.Addr
		c int64
	}
	var leaves []leaf
	for a, c := range counts {
		if c > 0 && h.Match(a) {
			leaves = append(leaves, leaf{a, c})
		}
	}
	out := Set{}
	var marked []addr.Prefix
	for l := 0; l < h.Levels(); l++ {
		prefixes := map[addr.Prefix]bool{}
		for _, lf := range leaves {
			prefixes[h.At(lf.a, l)] = true
		}
		var newly []addr.Prefix
		for p := range prefixes {
			var cond, total int64
			for _, lf := range leaves {
				if !p.Contains(lf.a) {
					continue
				}
				total += lf.c
				covered := false
				for _, m := range marked {
					if m.Contains(lf.a) {
						covered = true
						break
					}
				}
				if !covered {
					cond += lf.c
				}
			}
			if cond >= T {
				out.Add(Item{Prefix: p, Count: total, Conditioned: cond})
				newly = append(newly, p)
			}
		}
		marked = append(marked, newly...)
	}
	return out
}

// randomCounts draws IPv4 leaf volumes with octets confined to {0,1} so
// prefixes collide across all levels.
func randomCounts(rng *rand.Rand, n int) map[addr.Addr]int64 {
	counts := map[addr.Addr]int64{}
	for i := 0; i < n; i++ {
		a := addr.From4(byte(rng.Intn(2)), byte(rng.Intn(2)), byte(rng.Intn(2)), byte(rng.Intn(2)))
		counts[a] += int64(1 + rng.Intn(100))
	}
	return counts
}

// randomCounts6 draws IPv6 leaf volumes with each 16-bit group confined
// to {0,1}, the v6 analogue of randomCounts.
func randomCounts6(rng *rand.Rand, n int) map[addr.Addr]int64 {
	counts := map[addr.Addr]int64{}
	for i := 0; i < n; i++ {
		var hi uint64
		for g := 0; g < 4; g++ {
			hi = hi<<16 | uint64(rng.Intn(2))
		}
		// Keep clear of the mapped range: hi != 0 unless all groups are 0,
		// so force the top group to 1 occasionally stays fine — the all-zero
		// hi with lo=1 is still IPv6 ("::1"), never IPv4-mapped.
		counts[addr.FromParts(hi, uint64(rng.Intn(2)))] += int64(1 + rng.Intn(100))
	}
	return counts
}

func TestExactMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct {
		h  addr.Hierarchy
		mk func(*rand.Rand, int) map[addr.Addr]int64
	}{
		{addr.NewIPv4Hierarchy(addr.Byte), randomCounts},
		{addr.NewIPv4Hierarchy(addr.Nibble), randomCounts},
		{addr.NewIPv6Hierarchy(addr.Hextet), randomCounts6},
		{addr.NewIPv6Hierarchy(addr.Nibble), randomCounts6},
	}
	for _, c := range cases {
		h := c.h
		for trial := 0; trial < 60; trial++ {
			counts := c.mk(rng, 1+rng.Intn(30))
			var total int64
			for _, cnt := range counts {
				total += cnt
			}
			T := Threshold(total, []float64{0.01, 0.05, 0.10, 0.30}[rng.Intn(4)])
			got := ExactFromCounts(counts, h, T)
			want := bruteHHH(counts, h, T)
			if !got.Equal(want) {
				t.Fatalf("%v trial %d T=%d:\n got  %v\n want %v\n counts %v",
					h, trial, T, got, want, counts)
			}
			// Conditioned values must agree too.
			for p, it := range got {
				if want[p].Conditioned != it.Conditioned {
					t.Fatalf("cond mismatch at %v: got %d want %d", p, it.Conditioned, want[p].Conditioned)
				}
				if want[p].Count != it.Count {
					t.Fatalf("count mismatch at %v: got %d want %d", p, it.Count, want[p].Count)
				}
			}
		}
	}
}

func TestExactInvariants(t *testing.T) {
	h := v4ByteHierarchy()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		counts := randomCounts(rng, 1+rng.Intn(50))
		var total int64
		for _, c := range counts {
			total += c
		}
		T := Threshold(total, 0.05)
		set := ExactFromCounts(counts, h, T)
		var condSum int64
		for p, it := range set {
			if it.Conditioned < T {
				t.Fatalf("item %v conditioned %d below threshold %d", p, it.Conditioned, T)
			}
			if it.Count < it.Conditioned {
				t.Fatalf("item %v count %d < conditioned %d", p, it.Count, it.Conditioned)
			}
			if !h.OnLattice(p) {
				t.Fatalf("item %v off lattice", p)
			}
			if p.Bits == h.Bits(0) && it.Count != it.Conditioned {
				t.Fatalf("leaf %v count != conditioned", p)
			}
			condSum += it.Conditioned
		}
		if condSum > total {
			t.Fatalf("sum of conditioned %d exceeds total %d", condSum, total)
		}
	}
}

func TestExactSimpleScenario(t *testing.T) {
	// Three hosts inside 10.1.2.0/24 each with 30 bytes; threshold 50.
	// No single host qualifies; the /24 aggregates 90 >= 50 and becomes
	// the HHH. Its ancestors see 0 unclaimed (all claimed by the /24),
	// except nothing else flows, so no more HHHs.
	h := v4ByteHierarchy()
	counts := map[addr.Addr]int64{
		addr.MustParseAddr("10.1.2.1"): 30,
		addr.MustParseAddr("10.1.2.2"): 30,
		addr.MustParseAddr("10.1.2.3"): 30,
	}
	set := ExactFromCounts(counts, h, 50)
	if set.Len() != 1 || !set.Contains(pfx("10.1.2.0/24")) {
		t.Fatalf("got %v, want exactly {10.1.2.0/24}", set)
	}
	it := set[pfx("10.1.2.0/24")]
	if it.Count != 90 || it.Conditioned != 90 {
		t.Errorf("item = %+v", it)
	}
}

func TestExactSimpleScenarioIPv6(t *testing.T) {
	// The v6 mirror of the simple scenario: three /64 subnets inside
	// 2001:db8:7::/48, threshold 50, on the hextet ladder.
	h := addr.NewIPv6Hierarchy(addr.Hextet)
	counts := map[addr.Addr]int64{
		addr.MustParseAddr("2001:db8:7:1::1"): 30,
		addr.MustParseAddr("2001:db8:7:2::1"): 30,
		addr.MustParseAddr("2001:db8:7:3::1"): 30,
	}
	set := ExactFromCounts(counts, h, 50)
	if set.Len() != 1 || !set.Contains(pfx("2001:db8:7::/48")) {
		t.Fatalf("got %v, want exactly {2001:db8:7::/48}", set)
	}
	if it := set[pfx("2001:db8:7::/48")]; it.Count != 90 || it.Conditioned != 90 {
		t.Errorf("item = %+v", it)
	}
}

func TestExactDiscounting(t *testing.T) {
	// One heavy host (100) plus siblings (30+30) under the same /24,
	// threshold 50: host is an HHH; the /24's conditioned volume is only
	// 60, which also qualifies; the /16 then sees 0 unclaimed.
	h := v4ByteHierarchy()
	counts := map[addr.Addr]int64{
		addr.MustParseAddr("10.1.2.1"): 100,
		addr.MustParseAddr("10.1.2.2"): 30,
		addr.MustParseAddr("10.1.2.3"): 30,
	}
	set := ExactFromCounts(counts, h, 50)
	want := NewSet(
		Item{Prefix: pfx("10.1.2.1/32")},
		Item{Prefix: pfx("10.1.2.0/24")},
	)
	if !set.Equal(want) {
		t.Fatalf("got %v, want %v", set, want)
	}
	if it := set[pfx("10.1.2.0/24")]; it.Conditioned != 60 || it.Count != 160 {
		t.Errorf("/24 item = %+v, want cond 60 count 160", it)
	}
}

func TestExactRootHHH(t *testing.T) {
	// Diffuse traffic: 100 hosts in distinct /8s, 10 bytes each, T=500.
	// Nothing below the root qualifies; the root's conditioned volume is
	// the full 1000 and it is the sole HHH.
	h := v4ByteHierarchy()
	counts := map[addr.Addr]int64{}
	for i := 0; i < 100; i++ {
		counts[addr.From4(byte(i+1), 0, 0, 1)] = 10
	}
	set := ExactFromCounts(counts, h, 500)
	if set.Len() != 1 || !set.Contains(addr.V4Root) {
		t.Fatalf("got %v, want exactly the v4 root", set)
	}
}

func TestExactFamilyFilter(t *testing.T) {
	// A dual-stack aggregate fed to each family's hierarchy: each exact
	// set must account only its own family's bytes.
	counts := map[addr.Addr]int64{
		addr.MustParseAddr("10.1.2.1"):      100,
		addr.MustParseAddr("2001:db8::1"):   100,
		addr.MustParseAddr("2001:db8:1::1"): 20,
	}
	v4 := ExactFromCounts(counts, v4ByteHierarchy(), 60)
	if !v4.Contains(pfx("10.1.2.1/32")) || v4.Len() != 1 {
		t.Fatalf("v4 view = %v", v4)
	}
	v6 := ExactFromCounts(counts, addr.NewIPv6Hierarchy(addr.Hextet), 60)
	for p := range v6 {
		if p.Is4() {
			t.Fatalf("v6 view contains v4 prefix %v", p)
		}
	}
	if !v6.Contains(pfx("2001:db8::/64")) {
		t.Fatalf("v6 view = %v", v6)
	}
}

func TestExactEmpty(t *testing.T) {
	set := Exact(sketch.NewExact(0), v4ByteHierarchy(), 100)
	if set.Len() != 0 {
		t.Errorf("empty input should give empty set, got %v", set)
	}
}

func TestPerLevelExactWhenUnsaturated(t *testing.T) {
	// With capacity >= distinct keys per level, Space-Saving is exact, so
	// the engine must reproduce the exact HHH set bit-for-bit.
	h := v4ByteHierarchy()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		counts := randomCounts(rng, 1+rng.Intn(40))
		eng := NewPerLevel(h, 1024)
		exact := sketch.NewExact(len(counts))
		var total int64
		for a, c := range counts {
			ingest(eng, a, c)
			exact.Update(h.Key(a, 0), c)
			total += c
		}
		if eng.Total() != total {
			t.Fatalf("engine total %d != %d", eng.Total(), total)
		}
		for _, phi := range []float64{0.01, 0.05, 0.2} {
			T := Threshold(total, phi)
			got := eng.Query(T)
			want := Exact(exact, h, T)
			if !got.Equal(want) {
				t.Fatalf("trial %d phi=%v:\n got  %v\n want %v", trial, phi, got, want)
			}
		}
	}
}

func TestPerLevelExactWhenUnsaturatedIPv6(t *testing.T) {
	// The v6 mirror of the unsaturated equivalence, on the tall nibble
	// lattice.
	h := addr.NewIPv6Hierarchy(addr.Nibble)
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 15; trial++ {
		counts := randomCounts6(rng, 1+rng.Intn(40))
		eng := NewPerLevel(h, 1024)
		exact := sketch.NewExact(len(counts))
		var total int64
		for a, c := range counts {
			ingest(eng, a, c)
			exact.Update(h.Key(a, 0), c)
			total += c
		}
		for _, phi := range []float64{0.01, 0.05, 0.2} {
			T := Threshold(total, phi)
			got := eng.Query(T)
			want := Exact(exact, h, T)
			if !got.Equal(want) {
				t.Fatalf("trial %d phi=%v:\n got  %v\n want %v", trial, phi, got, want)
			}
		}
		_ = total
	}
}

func TestEnginesFilterOtherFamily(t *testing.T) {
	// Feeding v6 packets to a v4 engine (and vice versa) must neither
	// count bytes nor produce reports.
	v4eng := NewPerLevel(v4ByteHierarchy(), 64)
	ingest(v4eng, addr.MustParseAddr("2001:db8::1"), 1000)
	if v4eng.Total() != 0 || v4eng.Query(1).Len() != 0 {
		t.Error("v4 PerLevel accounted a v6 packet")
	}
	v6eng := NewRHHH(addr.NewIPv6Hierarchy(addr.Hextet), 64, 1)
	ingest(v6eng, addr.MustParseAddr("10.0.0.1"), 1000)
	if v6eng.Total() != 0 || v6eng.packets != 0 {
		t.Error("v6 RHHH accounted a v4 packet")
	}
}

func TestPerLevelNeverMissesLargeHHH(t *testing.T) {
	// Even under heavy eviction pressure, a prefix carrying ~30% of
	// traffic must be reported at phi=0.1 (Space-Saving never
	// underestimates, so its subtree estimate stays above threshold).
	h := v4ByteHierarchy()
	eng := NewPerLevel(h, 16)
	rng := rand.New(rand.NewSource(13))
	heavy := addr.MustParseAddr("10.1.2.3")
	var total int64
	for i := 0; i < 50000; i++ {
		if i%3 == 0 {
			ingest(eng, heavy, 1000)
			total += 1000
		} else {
			ingest(eng, addr.From4Uint32(rng.Uint32()), 700)
			total += 700
		}
	}
	set := eng.QueryFraction(0.1)
	found := false
	for p := range set {
		if p.Contains(heavy) && p.Bits > 96 {
			found = true
		}
	}
	if !found {
		t.Fatalf("heavy source not covered by any reported HHH: %v", set)
	}
}

func TestPerLevelResetAndSize(t *testing.T) {
	h := v4ByteHierarchy()
	eng := NewPerLevel(h, 8)
	ingest(eng, addr.MustParseAddr("1.2.3.4"), 100)
	eng.Reset()
	if eng.Total() != 0 || eng.Query(1).Len() != 0 {
		t.Error("Reset incomplete")
	}
	// Exact accounting: one summary per level, as the summary reports it,
	// plus the coalescing block an engine owns from its first batch on.
	if want := 5*sketch.NewSpaceSaving(8).SizeBytes() + BlockBytes; eng.SizeBytes() != want {
		t.Errorf("SizeBytes = %d, want %d", eng.SizeBytes(), want)
	}
	if eng.Hierarchy().Levels() != 5 {
		t.Error("Hierarchy accessor")
	}
}

func TestRHHHFindsHeavyPrefixes(t *testing.T) {
	h := v4ByteHierarchy()
	eng := NewRHHH(h, 64, 99)
	rng := rand.New(rand.NewSource(17))
	// 40% of bytes from one /24, rest spread over the space.
	const subnet = uint32(0xc0a80700) // 192.168.7.0
	var total int64
	for i := 0; i < 300000; i++ {
		var a addr.Addr
		if rng.Intn(10) < 4 {
			a = addr.From4Uint32(subnet | uint32(rng.Intn(256)))
		} else {
			a = addr.From4Uint32(rng.Uint32())
		}
		ingest(eng, a, 1000)
		total += 1000
	}
	if eng.Total() != total || eng.packets != 300000 {
		t.Fatal("bookkeeping wrong")
	}
	set := eng.QueryFraction(0.1)
	found := false
	for p := range set {
		if p.FamilyBits() >= 24 && p.Contains(addr.From4Uint32(subnet)) {
			found = true
		}
	}
	if !found {
		t.Fatalf("RHHH missed the 40%% /24: %v", set)
	}
}

func TestRHHHFindsHeavyPrefixesIPv6(t *testing.T) {
	// The IPv6 mirror on the 17-level nibble lattice — the tall-hierarchy
	// regime RHHH's constant-time update is designed for: 40% of bytes
	// from one /48, the rest spread across the global-unicast space.
	h := addr.NewIPv6Hierarchy(addr.Nibble)
	eng := NewRHHH(h, 64, 99)
	rng := rand.New(rand.NewSource(18))
	subnet := addr.MustParsePrefix("2001:db8:7::/48")
	for i := 0; i < 300000; i++ {
		var a addr.Addr
		if rng.Intn(10) < 4 {
			a = addr.FromParts(subnet.Addr.Hi()|uint64(rng.Intn(1<<16)), rng.Uint64())
		} else {
			a = addr.FromParts(0x2000_0000_0000_0000|rng.Uint64()>>3, rng.Uint64())
		}
		ingest(eng, a, 1000)
	}
	set := eng.QueryFraction(0.1)
	found := false
	for p := range set {
		if p.Bits >= 48 && p.Covers(subnet) || subnet.Covers(p) {
			found = true
		}
	}
	if !found {
		t.Fatalf("RHHH missed the 40%% /48: %v", set)
	}
}

func TestRHHHEstimateAccuracy(t *testing.T) {
	h := v4ByteHierarchy()
	eng := NewRHHH(h, 256, 5)
	heavy := addr.MustParseAddr("10.0.0.1")
	var heavyBytes int64
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 500000; i++ {
		if i%2 == 0 {
			ingest(eng, heavy, 500)
			heavyBytes += 500
		} else {
			ingest(eng, addr.From4Uint32(rng.Uint32()), 500)
		}
	}
	set := eng.Query(Threshold(eng.Total(), 0.2))
	it, ok := set[pfx("10.0.0.1/32")]
	if !ok {
		t.Fatalf("heavy host missing from %v", set)
	}
	rel := float64(it.Count-heavyBytes) / float64(heavyBytes)
	if rel < -0.15 || rel > 0.15 {
		t.Errorf("estimate %d vs true %d (rel %.3f)", it.Count, heavyBytes, rel)
	}
}

// TestRHHHQuerySaturates: a sampled engine scales each count by the level
// count V at query time. Restored with 2⁶¹ bytes at one leaf of the 5-level
// byte ladder, 5·2⁶¹ exceeds int64; a wrapped estimate is negative and the
// heaviest prefix drops out of the report, where a saturated one stays.
func TestRHHHQuerySaturates(t *testing.T) {
	h := v4ByteHierarchy()
	const n = int64(1) << 61
	leaf := h.Key(addr.MustParseAddr("10.0.0.1"), 0)
	sks := make([]*sketch.SpaceSaving, h.Levels())
	for l := range sks {
		sks[l] = sketch.NewSpaceSaving(8)
	}
	if err := sks[0].Restore(n, 1, func(int) sketch.KV { return sketch.KV{Key: leaf, Count: n} }); err != nil {
		t.Fatal(err)
	}
	eng := new(PerLevel)
	if err := RestoreRHHH(eng, h, n, 1, 0, sks); err != nil {
		t.Fatal(err)
	}
	it, ok := eng.Query(1)[pfx("10.0.0.1/32")]
	if !ok || it.Count != math.MaxInt64 {
		t.Fatalf("leaf reported %v (%v), want a saturated count", it, ok)
	}
}

func TestRHHHDeterministicUnderSeed(t *testing.T) {
	h := v4ByteHierarchy()
	run := func(seed uint64) Set {
		eng := NewRHHH(h, 32, seed)
		rng := rand.New(rand.NewSource(23))
		for i := 0; i < 20000; i++ {
			ingest(eng, addr.From4Uint32(rng.Uint32()>>8), 100)
		}
		return eng.QueryFraction(0.05)
	}
	if !run(1).Equal(run(1)) {
		t.Error("same seed should reproduce identical output")
	}
}

func TestRHHHResetKeepsWorking(t *testing.T) {
	h := v4ByteHierarchy()
	eng := NewRHHH(h, 32, 1)
	ingest(eng, addr.MustParseAddr("1.1.1.1"), 100)
	eng.Reset()
	if eng.Total() != 0 || eng.packets != 0 {
		t.Error("Reset bookkeeping")
	}
	ingest(eng, addr.MustParseAddr("1.1.1.1"), 100)
	if eng.Total() != 100 {
		t.Error("post-Reset update")
	}
	if eng.SizeBytes() == 0 {
		t.Error("SizeBytes should be positive")
	}
	if eng.Hierarchy().Levels() != 5 {
		t.Error("Hierarchy accessor")
	}
}

func BenchmarkExactHHH(b *testing.B) {
	h := v4ByteHierarchy()
	rng := rand.New(rand.NewSource(3))
	e := sketch.NewExact(100000)
	for i := 0; i < 100000; i++ {
		e.Update(h.Key(addr.From4Uint32(rng.Uint32()&0x0fffffff), 0), int64(40+rng.Intn(1460)))
	}
	T := Threshold(e.Total(), 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := Exact(e, h, T)
		if set.Len() == 0 {
			b.Fatal("no HHHs")
		}
	}
}

// benchUpdateKeys times ingest the way it ships: b.N packets, all from
// distinct sources, packed into 256-packet key batches.
func benchUpdateKeys(b *testing.B, h addr.Hierarchy, update func(*trace.KeyBatch) int64, src func(i int) addr.Addr) {
	kb := trace.NewKeyBatch(256)
	b.ReportAllocs()
	for i := 0; i < b.N; {
		kb.Reset()
		for ; i < b.N && kb.Len() < 256; i++ {
			kb.Append(h.Key(src(i), 0), 1000, 0)
		}
		update(kb)
	}
}

func v4Spread(i int) addr.Addr { return addr.From4Uint32(uint32(i) * 2654435761) }

func v6Spread(i int) addr.Addr { return addr.FromParts(uint64(i)*0x9e3779b97f4a7c15, uint64(i)) }

func BenchmarkPerLevelUpdate(b *testing.B) {
	h := v4ByteHierarchy()
	benchUpdateKeys(b, h, NewPerLevel(h, 512).UpdateKeys, v4Spread)
}

func BenchmarkPerLevelUpdateIPv6Nibble(b *testing.B) {
	h := addr.NewIPv6Hierarchy(addr.Nibble)
	benchUpdateKeys(b, h, NewPerLevel(h, 512).UpdateKeys, v6Spread)
}

func BenchmarkRHHHUpdate(b *testing.B) {
	h := v4ByteHierarchy()
	benchUpdateKeys(b, h, NewRHHH(h, 512, 7).UpdateKeys, v4Spread)
}

func BenchmarkRHHHUpdateIPv6Nibble(b *testing.B) {
	h := addr.NewIPv6Hierarchy(addr.Nibble)
	benchUpdateKeys(b, h, NewRHHH(h, 512, 7).UpdateKeys, v6Spread)
}
