package addr

import (
	"testing"
	"testing/quick"
)

func TestAddrRoundTripV4(t *testing.T) {
	cases := []struct {
		s string
		a Addr
	}{
		{"0.0.0.0", From4(0, 0, 0, 0)},
		{"255.255.255.255", From4(255, 255, 255, 255)},
		{"192.0.2.7", From4(192, 0, 2, 7)},
		{"10.1.2.3", From4Uint32(0x0a010203)},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.s)
		if err != nil {
			t.Fatalf("ParseAddr(%q): %v", c.s, err)
		}
		if got != c.a {
			t.Errorf("ParseAddr(%q) = %v, want %v", c.s, got, c.a)
		}
		if got.String() != c.s {
			t.Errorf("String() = %q, want %q", got.String(), c.s)
		}
		if !got.Is4() || got.Family() != V4 {
			t.Errorf("%q should be IPv4-mapped", c.s)
		}
	}
}

func TestAddrRoundTripV6(t *testing.T) {
	cases := []struct {
		in, out string
	}{
		{"::", "::"},
		{"::1", "::1"},
		{"2001:db8::1", "2001:db8::1"},
		{"2001:0db8:0000:0000:0000:0000:0000:0001", "2001:db8::1"},
		{"fe80::", "fe80::"},
		{"2001:db8:0:0:1:0:0:1", "2001:db8::1:0:0:1"}, // leftmost longest run wins
		{"1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8"},
		{"2400:cb00:2048:1::6813:c166", "2400:cb00:2048:1::6813:c166"},
		{"0:0:0:0:0:0:0:2", "::2"},
		{"2001:db8::", "2001:db8::"},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if err != nil {
			t.Fatalf("ParseAddr(%q): %v", c.in, err)
		}
		if got.String() != c.out {
			t.Errorf("ParseAddr(%q).String() = %q, want %q", c.in, got.String(), c.out)
		}
		if got.Is4() {
			t.Errorf("%q should not be IPv4-mapped", c.in)
		}
		back, err := ParseAddr(got.String())
		if err != nil || back != got {
			t.Errorf("String round trip of %q failed: %v", c.in, err)
		}
	}
}

func TestMappedV4Forms(t *testing.T) {
	// The mapped textual form and the dotted-quad form are the same address.
	m := MustParseAddr("::ffff:192.0.2.7")
	q := MustParseAddr("192.0.2.7")
	if m != q {
		t.Fatalf("::ffff:192.0.2.7 (%v) != 192.0.2.7 (%v)", m, q)
	}
	if !m.Is4() || m.V4() != 0xc0000207 {
		t.Errorf("mapped form should be IPv4 0xc0000207, got %08x", m.V4())
	}
	// The mapped form renders back as dotted quad.
	if m.String() != "192.0.2.7" {
		t.Errorf("String() = %q, want dotted quad", m.String())
	}
	// A hex-spelled mapped address is the same value too.
	h := MustParseAddr("::ffff:c000:207")
	if h != m {
		t.Errorf("::ffff:c000:207 (%v) != ::ffff:192.0.2.7 (%v)", h, m)
	}
	// One bit outside the mapped range is IPv6.
	if MustParseAddr("::fffe:c000:207").Is4() {
		t.Error("::fffe:c000:207 must not be IPv4-mapped")
	}
}

func TestParseAddrErrors(t *testing.T) {
	bad := []string{
		"", "1", "1.2", "1.2.3", "1.2.3.4.5", "256.0.0.1", "1..2.3",
		"a.b.c.d", "1.2.3.4x", ".1.2.3", "1.2.3.",
		":", ":::", "1::2::3", "1:2:3:4:5:6:7:8:9", "12345::",
		"g::", "1:2:3:4:5:6:7", "::1.2.3", "1.2.3.4::", "fe80:",
		":fe80::", "1:2:3:4:5:6:7:1.2.3.4",
		// As net/netip refuses them: a leading-zero octet (octal to some
		// parsers); a zone it would accept, and this address space has none.
		"192.168.01.1", "::ffff:192.168.01.1", "fe80::1%eth0", "fe80::1%",
	}
	for _, s := range bad {
		if _, err := ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q) unexpectedly succeeded", s)
		}
	}
}

func TestAddrStringQuick(t *testing.T) {
	f := func(hi, lo uint64) bool {
		a := FromParts(hi, lo)
		back, err := ParseAddr(a.String())
		return err == nil && back == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAs16RoundTrip(t *testing.T) {
	f := func(hi, lo uint64) bool {
		a := FromParts(hi, lo)
		return From16(a.As16()) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFrom16As16MatchByteLoops pins the 64-bit load/store forms of
// From16 and As16 to the byte-at-a-time definitions of the big-endian
// 16-byte layout, over random values and the boundary patterns where a
// swapped half or byte order would show.
func TestFrom16As16MatchByteLoops(t *testing.T) {
	from16 := func(b [16]byte) (a Addr) {
		for i := 0; i < 8; i++ {
			a.hi = a.hi<<8 | uint64(b[i])
			a.lo = a.lo<<8 | uint64(b[i+8])
		}
		return a
	}
	as16 := func(a Addr) (b [16]byte) {
		for i := 0; i < 8; i++ {
			b[i] = byte(a.hi >> (56 - 8*i))
			b[i+8] = byte(a.lo >> (56 - 8*i))
		}
		return b
	}
	check := func(b [16]byte) bool {
		a := From16(b)
		return a == from16(b) && a.As16() == as16(a) && a.As16() == b
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
	boundary := [][16]byte{
		{},
		{0: 0xff}, {7: 0xff}, {8: 0xff}, {15: 0xff},
		{0: 1}, {7: 1}, {8: 1}, {15: 1},
		{10: 0xff, 11: 0xff, 12: 10, 15: 1}, // ::ffff:10.0.0.1
		{0: 0x20, 1: 0x01, 2: 0x0d, 3: 0xb8, 15: 1},
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
	}
	for _, b := range boundary {
		if !check(b) {
			t.Errorf("From16/As16 disagree with the byte loops on % x", b)
		}
	}
}

func TestZeroCompressionRoundTripQuick(t *testing.T) {
	// Sparse addresses exercise the zero-run compressor hard: any subset
	// of the eight groups zeroed must still round-trip through String.
	f := func(hi, lo uint64, zeroMask uint8) bool {
		var segs [8]uint16
		for i := 0; i < 4; i++ {
			segs[i] = uint16(hi >> (48 - 16*i))
			segs[i+4] = uint16(lo >> (48 - 16*i))
		}
		for i := 0; i < 8; i++ {
			if zeroMask&(1<<i) != 0 {
				segs[i] = 0
			}
		}
		var a Addr
		for i := 0; i < 4; i++ {
			a.hi = a.hi<<16 | uint64(segs[i])
			a.lo = a.lo<<16 | uint64(segs[i+4])
		}
		back, err := ParseAddr(a.String())
		return err == nil && back == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMaskOf(t *testing.T) {
	cases := []struct {
		bits   uint8
		hi, lo uint64
	}{
		{0, 0, 0},
		{1, 0x8000000000000000, 0},
		{64, ^uint64(0), 0},
		{65, ^uint64(0), 0x8000000000000000},
		{96, ^uint64(0), 0xffffffff00000000},
		{104, ^uint64(0), 0xffffffffff000000},
		{128, ^uint64(0), ^uint64(0)},
	}
	for _, c := range cases {
		hi, lo := MaskOf(c.bits)
		if hi != c.hi || lo != c.lo {
			t.Errorf("MaskOf(%d) = %016x,%016x want %016x,%016x", c.bits, hi, lo, c.hi, c.lo)
		}
	}
}

func TestPrefixCanonicalisation(t *testing.T) {
	p := PrefixFrom(MustParseAddr("10.1.2.3"), 96+16)
	if want := MustParsePrefix("10.1.0.0/16"); p != want {
		t.Errorf("PrefixFrom canonicalised to %v, want %v", p, want)
	}
	if p.String() != "10.1.0.0/16" {
		t.Errorf("String() = %q", p.String())
	}
	// IPv6 canonicalisation.
	q := PrefixFrom(MustParseAddr("2001:db8:abcd::1"), 32)
	if want := MustParsePrefix("2001:db8::/32"); q != want {
		t.Errorf("PrefixFrom canonicalised to %v, want %v", q, want)
	}
	// Over-long masks saturate to 128.
	if r := PrefixFrom(Addr{}, 200); r.Bits != 128 {
		t.Errorf("PrefixFrom(_,200).Bits = %d, want 128", r.Bits)
	}
}

func TestPrefixMaskCanonicalFormQuick(t *testing.T) {
	// PrefixFrom must zero every host bit, and the result must contain
	// exactly the addresses sharing its masked top bits.
	f := func(hi, lo uint64, bits uint8) bool {
		b := bits % 129
		p := PrefixFrom(FromParts(hi, lo), b)
		mh, ml := MaskOf(b)
		if p.Addr.Hi()&^mh != 0 || p.Addr.Lo()&^ml != 0 {
			return false // host bits survived
		}
		if !p.Contains(FromParts(hi, lo)) {
			return false
		}
		return PrefixFrom(p.Addr, b) == p // canonicalisation is idempotent
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParsePrefix(t *testing.T) {
	good := []string{
		"0.0.0.0/0", "10.0.0.0/8", "192.0.2.0/24", "192.0.2.7/32", "128.0.0.0/1",
		"::/0", "2001:db8::/32", "fe80::/10", "2001:db8::1/128", "::/64",
	}
	for _, s := range good {
		p, err := ParsePrefix(s)
		if err != nil {
			t.Fatalf("ParsePrefix(%q): %v", s, err)
		}
		if p.String() != s {
			t.Errorf("ParsePrefix(%q).String() = %q", s, p.String())
		}
	}
	// The mapped spelling, with its 128-bit length, is the IPv4 prefix and
	// prints as one.
	for _, c := range [][2]string{
		{"::ffff:192.0.2.7/128", "192.0.2.7/32"},
		{"::ffff:192.0.2.0/120", "192.0.2.0/24"},
		{"::ffff:0:0/96", "0.0.0.0/0"},
	} {
		p, err := ParsePrefix(c[0])
		if err != nil || !p.Is4() || p.String() != c[1] || p != MustParsePrefix(c[1]) {
			t.Errorf("ParsePrefix(%q) = %v, %v; want %s", c[0], p, err, c[1])
		}
	}
	bad := []string{
		"", "10.0.0.0", "10.0.0.0/", "10.0.0.0/33", "10.0.0.1/8", "x/8",
		"10.0.0.0/-1", "10.0.0.0/8/9", "2001:db8::/129", "2001:db8::1/32", "::/x",
		"192.168.01.0/24", "fe80::%eth0/10",
	}
	for _, s := range bad {
		if _, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q) unexpectedly succeeded", s)
		}
	}
}

func TestPrefixFamilies(t *testing.T) {
	v4 := MustParsePrefix("10.0.0.0/8")
	if !v4.Is4() || v4.Family() != V4 || v4.Bits != 104 || v4.FamilyBits() != 8 {
		t.Errorf("10.0.0.0/8: Is4=%v Bits=%d FamilyBits=%d", v4.Is4(), v4.Bits, v4.FamilyBits())
	}
	v6 := MustParsePrefix("2001:db8::/32")
	if v6.Is4() || v6.Family() != V6 || v6.FamilyBits() != 32 {
		t.Errorf("2001:db8::/32: Is4=%v FamilyBits=%d", v6.Is4(), v6.FamilyBits())
	}
	// The v4 root covers exactly the mapped range; the unified root covers it.
	if !V4Root.Contains(MustParseAddr("203.0.113.9")) {
		t.Error("V4Root should contain every IPv4 address")
	}
	if V4Root.Contains(MustParseAddr("2001:db8::1")) {
		t.Error("V4Root should not contain IPv6 addresses")
	}
	if !Root.Covers(V4Root) {
		t.Error("::/0 should cover the mapped range")
	}
	if V4Root.String() != "0.0.0.0/0" {
		t.Errorf("V4Root.String() = %q", V4Root.String())
	}
}

func TestContainsCovers(t *testing.T) {
	p := MustParsePrefix("10.1.0.0/16")
	if !p.Contains(MustParseAddr("10.1.255.255")) {
		t.Error("10.1.0.0/16 should contain 10.1.255.255")
	}
	if p.Contains(MustParseAddr("10.2.0.0")) {
		t.Error("10.1.0.0/16 should not contain 10.2.0.0")
	}
	if !Root.Contains(MustParseAddr("203.0.113.9")) {
		t.Error("root should contain everything")
	}
	if !p.Covers(MustParsePrefix("10.1.2.0/24")) {
		t.Error("/16 should cover its /24")
	}
	if !p.Covers(p) {
		t.Error("prefix should cover itself")
	}
	if p.Covers(MustParsePrefix("10.0.0.0/8")) {
		t.Error("/16 should not cover its /8 parent")
	}
	v6 := MustParsePrefix("2001:db8::/32")
	if !v6.Contains(MustParseAddr("2001:db8:ffff::1")) {
		t.Error("2001:db8::/32 should contain 2001:db8:ffff::1")
	}
	if v6.Contains(MustParseAddr("2001:db9::1")) {
		t.Error("2001:db8::/32 should not contain 2001:db9::1")
	}
	if !v6.Covers(MustParsePrefix("2001:db8:ab::/48")) {
		t.Error("/32 should cover its /48")
	}
}

func TestParent(t *testing.T) {
	p := MustParsePrefix("10.1.2.0/24")
	if got, want := p.Parent(8), MustParsePrefix("10.1.0.0/16"); got != want {
		t.Errorf("Parent(8) = %v, want %v", got, want)
	}
	v6 := MustParsePrefix("2001:db8:ab::/48")
	if got, want := v6.Parent(16), MustParsePrefix("2001:db8::/32"); got != want {
		t.Errorf("Parent(16) = %v, want %v", got, want)
	}
	if got := Root.Parent(8); got != Root {
		t.Errorf("root.Parent(8) = %v, want root", got)
	}
	if got := v6.Parent(200); got != Root {
		t.Errorf("Parent(200) = %v, want root", got)
	}
}

func TestCompare(t *testing.T) {
	ps := []Prefix{
		Root,
		MustParsePrefix("2001:db8::/32"),
		MustParsePrefix("2001:db9::/32"),
		MustParsePrefix("2001:db8::/48"),
		MustParsePrefix("10.0.0.0/8"), // Bits 104: after every /48
		MustParsePrefix("10.1.0.0/16"),
	}
	for i, p := range ps {
		for j, q := range ps {
			got := p.Compare(q)
			switch {
			case i == j && got != 0:
				t.Errorf("Compare(%v,%v) = %d, want 0", p, q, got)
			case i < j && got != -1:
				t.Errorf("Compare(%v,%v) = %d, want -1", p, q, got)
			case i > j && got != 1:
				t.Errorf("Compare(%v,%v) = %d, want 1", p, q, got)
			}
		}
	}
}
