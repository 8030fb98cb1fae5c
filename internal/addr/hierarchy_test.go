package addr

import (
	"testing"
	"testing/quick"
)

func TestHierarchyLevels(t *testing.T) {
	cases := []struct {
		h      Hierarchy
		levels int
		leaf   uint8 // unified-space bits of level 0
	}{
		{NewIPv4Hierarchy(Bit), 33, 128},
		{NewIPv4Hierarchy(Nibble), 9, 128},
		{NewIPv4Hierarchy(Byte), 5, 128},
		{NewIPv6Hierarchy(Hextet), 5, 64},
		{NewIPv6Hierarchy(Nibble), 17, 64},
		{NewIPv6HierarchyDepth(Hextet, 48), 4, 48},
	}
	for _, c := range cases {
		if c.h.Levels() != c.levels {
			t.Errorf("%v: Levels() = %d, want %d", c.h, c.h.Levels(), c.levels)
		}
		if c.h.Bits(0) != c.leaf {
			t.Errorf("%v: leaf Bits = %d, want %d", c.h, c.h.Bits(0), c.leaf)
		}
		if got := c.h.Bits(c.levels - 1); got != c.h.rootBits() {
			t.Errorf("%v: top level Bits = %d, want %d", c.h, got, c.h.rootBits())
		}
		for l := 0; l < c.levels; l++ {
			if c.h.Level(c.h.Bits(l)) != l {
				t.Errorf("%v: Level(Bits(%d)) != %d", c.h, l, l)
			}
		}
	}
	if NewIPv4Hierarchy(Byte).Level(12+96) != -1 {
		t.Error("v4 Level(/12) at byte granularity should be -1")
	}
	if NewIPv6Hierarchy(Hextet).Level(24) != -1 {
		t.Error("v6 Level(/24) at hextet granularity should be -1")
	}
	if NewIPv6Hierarchy(Hextet).Level(96) != -1 {
		t.Error("v6 Level(/96) beyond depth should be -1")
	}
}

func TestHierarchyPanicsOnInvalid(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		fn()
	}
	mustPanic("NewIPv4Hierarchy(3)", func() { NewIPv4Hierarchy(3) })
	mustPanic("NewIPv4Hierarchy(0)", func() { NewIPv4Hierarchy(0) })
	mustPanic("NewIPv6Hierarchy(3)", func() { NewIPv6Hierarchy(3) })
	mustPanic("NewIPv6HierarchyDepth(Hextet,80)", func() { NewIPv6HierarchyDepth(Hextet, 80) })
	mustPanic("NewIPv6HierarchyDepth(Hextet,0)", func() { NewIPv6HierarchyDepth(Hextet, 0) })
}

// ancestors appends to dst a's generalisation chain, leaf (level 0) to
// root, built with At.
func ancestors(h Hierarchy, a Addr, dst []Prefix) []Prefix {
	for l := 0; l < h.Levels(); l++ {
		dst = append(dst, h.At(a, l))
	}
	return dst
}

func TestAncestorsV4(t *testing.T) {
	h := NewIPv4Hierarchy(Byte)
	got := ancestors(h, MustParseAddr("10.1.2.3"), nil)
	want := []Prefix{
		MustParsePrefix("10.1.2.3/32"),
		MustParsePrefix("10.1.2.0/24"),
		MustParsePrefix("10.1.0.0/16"),
		MustParsePrefix("10.0.0.0/8"),
		V4Root,
	}
	if len(got) != len(want) {
		t.Fatalf("the chain has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ancestor[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestAncestorsV6(t *testing.T) {
	h := NewIPv6Hierarchy(Hextet)
	got := ancestors(h, MustParseAddr("2001:db8:ab:cd::1"), nil)
	want := []Prefix{
		MustParsePrefix("2001:db8:ab:cd::/64"),
		MustParsePrefix("2001:db8:ab::/48"),
		MustParsePrefix("2001:db8::/32"),
		MustParsePrefix("2001::/16"),
		Root,
	}
	if len(got) != len(want) {
		t.Fatalf("the chain has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ancestor[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestAncestorsChainProperty(t *testing.T) {
	for _, h := range []Hierarchy{NewIPv4Hierarchy(Nibble), NewIPv6Hierarchy(Nibble)} {
		f := func(hi, lo uint64) bool {
			a := FromParts(hi, lo)
			if h.Family() == V4 {
				a = From4Uint32(uint32(lo))
			}
			chain := ancestors(h, a, nil)
			if len(chain) != h.Levels() {
				return false
			}
			for i := 1; i < len(chain); i++ {
				if !chain[i].Covers(chain[i-1]) {
					return false
				}
				if chain[i-1].Bits-chain[i].Bits != uint8(Nibble) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%v: %v", h, err)
		}
	}
}

// TestAncestorsNoAlloc: generalising an address to every level, into a
// preallocated buffer, allocates nothing.
func TestAncestorsNoAlloc(t *testing.T) {
	h := NewIPv6Hierarchy(Hextet)
	buf := make([]Prefix, 0, h.Levels())
	a := MustParseAddr("2001:db8::1")
	allocs := testing.AllocsPerRun(100, func() {
		buf = ancestors(h, a, buf[:0])
	})
	if allocs != 0 {
		t.Errorf("the chain into a preallocated buffer allocates %v times per run", allocs)
	}
}

func TestOnLattice(t *testing.T) {
	h4 := NewIPv4Hierarchy(Byte)
	if !h4.OnLattice(MustParsePrefix("10.0.0.0/8")) {
		t.Error("/8 should be on v4 byte lattice")
	}
	if h4.OnLattice(MustParsePrefix("10.0.0.0/12")) {
		t.Error("/12 should not be on v4 byte lattice")
	}
	if h4.OnLattice(MustParsePrefix("2001:db8::/32")) {
		t.Error("v6 prefix should not be on the v4 lattice")
	}
	h6 := NewIPv6Hierarchy(Hextet)
	if !h6.OnLattice(MustParsePrefix("2001:db8::/32")) {
		t.Error("/32 should be on v6 hextet lattice")
	}
	if h6.OnLattice(MustParsePrefix("10.0.0.0/8")) {
		t.Error("v4 prefix should not be on the v6 lattice")
	}
}

func TestMatch(t *testing.T) {
	h4, h6 := NewIPv4Hierarchy(Byte), NewIPv6Hierarchy(Hextet)
	v4, v6 := MustParseAddr("10.0.0.1"), MustParseAddr("2001:db8::1")
	if !h4.Match(v4) || h4.Match(v6) {
		t.Error("v4 hierarchy must match exactly the mapped addresses")
	}
	if !h6.Match(v6) || h6.Match(v4) {
		t.Error("v6 hierarchy must match exactly the non-mapped addresses")
	}
}

func TestKeyRoundTripQuick(t *testing.T) {
	for _, h := range []Hierarchy{
		NewIPv4Hierarchy(Byte), NewIPv4Hierarchy(Bit),
		NewIPv6Hierarchy(Hextet), NewIPv6Hierarchy(Nibble),
	} {
		f := func(hi, lo uint64, l8 uint8) bool {
			a := FromParts(hi, lo)
			if h.Family() == V4 {
				a = From4Uint32(uint32(lo))
			}
			level := int(l8) % h.Levels()
			key := h.Key(a, level)
			p := h.PrefixOfKey(key, level)
			// The key must invert to the same prefix At builds, and the
			// prefix-side packing must agree with the address-side one.
			return p == h.At(a, level) && h.KeyOfPrefix(p) == key
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%v: %v", h, err)
		}
	}
}

func TestKeyMaskAgreesWithKey(t *testing.T) {
	for _, h := range []Hierarchy{NewIPv4Hierarchy(Byte), NewIPv6Hierarchy(Nibble)} {
		a := MustParseAddr("203.0.113.77")
		if h.Family() == V6 {
			a = MustParseAddr("2001:db8:1234:5678::9")
		}
		half := a.Lo()
		if h.KeyFromHigh() {
			half = a.Hi()
		}
		for l := 0; l < h.Levels(); l++ {
			if half&h.KeyMask(l) != h.Key(a, l) {
				t.Errorf("%v level %d: mask path disagrees with Key", h, l)
			}
		}
	}
}

func TestKeysDistinctAcrossSiblings(t *testing.T) {
	// Two v4 addresses differing in one octet must key apart at every
	// level that separates them, and identically above.
	h := NewIPv4Hierarchy(Byte)
	a, b := MustParseAddr("10.1.2.3"), MustParseAddr("10.1.9.3")
	if h.Key(a, 0) == h.Key(b, 0) || h.Key(a, 1) == h.Key(b, 1) {
		t.Error("level 0/1 keys should differ")
	}
	if h.Key(a, 2) != h.Key(b, 2) {
		t.Error("level 2 (/16) keys should agree")
	}
}

func TestHierarchyString(t *testing.T) {
	cases := map[string]Hierarchy{
		"ipv4/8":     NewIPv4Hierarchy(Byte),
		"ipv6/16":    NewIPv6Hierarchy(Hextet),
		"ipv6/4":     NewIPv6Hierarchy(Nibble),
		"ipv6/16@48": NewIPv6HierarchyDepth(Hextet, 48),
	}
	for want, h := range cases {
		if h.String() != want {
			t.Errorf("String() = %q, want %q", h.String(), want)
		}
	}
}
