// Package addr provides the dual-stack address, prefix and hierarchy
// primitives every layer of the hierarchical-heavy-hitter pipeline is
// built on.
//
// Addresses are fixed-size 128-bit values held in two host-order uint64
// halves, so they are comparable with ==, usable as map keys, and cheap to
// mask without allocation. IPv4 addresses live in the IPv4-mapped range
// ::ffff:0:0/96 of the same space (RFC 4291 §2.5.5.2), which lets one key
// type carry both families through the trace format, the generators, the
// engines and the oracle.
//
// Prefixes pair an address with a mask length in the unified 128-bit
// space and are always stored in canonical form (host bits zeroed), which
// makes them safely comparable with == and usable as map keys. A prefix
// whose address is IPv4-mapped and whose mask reaches into the mapped
// range (Bits >= 96) is an IPv4 prefix: it parses from and renders in
// dotted-quad CIDR notation with the family-relative length ("10.0.0.0/8"
// is Bits 104 internally).
//
// The Hierarchy descriptor (hierarchy.go) generalises the paper's
// hard-coded five-level IPv4 ladder into configuration: a family, a
// per-level bit step and a leaf depth describe any uniform generalisation
// lattice, and the descriptor also owns the packing of lattice prefixes
// into the uint64 keys the sketch substrates consume.
package addr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
)

// Family identifies the address family of an Addr, Prefix or Hierarchy.
type Family uint8

// Supported address families.
const (
	// V4 is IPv4, embedded in the IPv4-mapped range ::ffff:0:0/96.
	V4 Family = iota + 1
	// V6 is native IPv6 (everything outside the IPv4-mapped range).
	V6
)

// String renders the family name ("ipv4" or "ipv6").
func (f Family) String() string {
	switch f {
	case V4:
		return "ipv4"
	case V6:
		return "ipv6"
	default:
		return "family(" + strconv.Itoa(int(f)) + ")"
	}
}

// mappedPrefix is the high 32 bits of the low half of an IPv4-mapped
// address: the 0xffff marker of ::ffff:0:0/96.
const mappedPrefix = uint64(0xffff) << 32

// Addr is a 128-bit address in host bit order: Hi carries bits 127..64,
// Lo bits 63..0. IPv4 addresses are stored IPv4-mapped (Hi == 0, Lo ==
// 0xffff<<32 | v4). The zero value is the IPv6 unspecified address "::".
type Addr struct {
	hi, lo uint64
}

// From4 builds the IPv4-mapped address for four dotted-quad octets.
func From4(a, b, c, d byte) Addr {
	return Addr{lo: mappedPrefix | uint64(a)<<24 | uint64(b)<<16 | uint64(c)<<8 | uint64(d)}
}

// From4Uint32 builds the IPv4-mapped address for a host-order uint32.
func From4Uint32(v uint32) Addr {
	return Addr{lo: mappedPrefix | uint64(v)}
}

// FromParts builds an address from its two host-order 64-bit halves.
func FromParts(hi, lo uint64) Addr { return Addr{hi: hi, lo: lo} }

// From16 builds an address from its big-endian 16-byte form.
func From16(b [16]byte) Addr {
	return Addr{hi: binary.BigEndian.Uint64(b[:8]), lo: binary.BigEndian.Uint64(b[8:])}
}

// Hi returns bits 127..64 of a.
func (a Addr) Hi() uint64 { return a.hi }

// Lo returns bits 63..0 of a.
func (a Addr) Lo() uint64 { return a.lo }

// As16 returns the big-endian 16-byte form of a.
func (a Addr) As16() (b [16]byte) {
	binary.BigEndian.PutUint64(b[:8], a.hi)
	binary.BigEndian.PutUint64(b[8:], a.lo)
	return b
}

// Is4 reports whether a lies in the IPv4-mapped range ::ffff:0:0/96,
// i.e. whether it is an IPv4 address of the unified space.
func (a Addr) Is4() bool { return a.hi == 0 && a.lo>>32 == 0xffff }

// Family returns V4 for IPv4-mapped addresses and V6 otherwise.
func (a Addr) Family() Family {
	if a.Is4() {
		return V4
	}
	return V6
}

// V4 returns the host-order uint32 form of an IPv4-mapped address (the
// low 32 bits; meaningful only when Is4 reports true).
func (a Addr) V4() uint32 { return uint32(a.lo) }

// As4 returns the dotted-quad octets of an IPv4-mapped address
// (meaningful only when Is4 reports true).
func (a Addr) As4() (o [4]byte) {
	o[0] = byte(a.lo >> 24)
	o[1] = byte(a.lo >> 16)
	o[2] = byte(a.lo >> 8)
	o[3] = byte(a.lo)
	return o
}

// Compare orders addresses numerically in the 128-bit space. Returns -1,
// 0 or +1.
func (a Addr) Compare(b Addr) int {
	switch {
	case a.hi < b.hi:
		return -1
	case a.hi > b.hi:
		return 1
	case a.lo < b.lo:
		return -1
	case a.lo > b.lo:
		return 1
	}
	return 0
}

// Less reports whether a orders before b (see Compare).
func (a Addr) Less(b Addr) bool { return a.Compare(b) < 0 }

// String renders a in dotted-quad notation when IPv4-mapped, otherwise
// in RFC 5952 compressed IPv6 notation, as net/netip does.
func (a Addr) String() string {
	if a.Is4() {
		return netip.AddrFrom4(a.As4()).String()
	}
	return netip.AddrFrom16(a.As16()).String()
}

// ErrBadAddr reports an unparsable address.
var ErrBadAddr = errors.New("addr: invalid address")

// ErrBadPrefix reports an unparsable or non-canonical CIDR prefix.
var ErrBadPrefix = errors.New("addr: invalid prefix")

// ParseAddr parses what netip.ParseAddr does, zoned addresses apart: a
// dotted-quad IPv4 address ("192.0.2.7", which becomes its IPv4-mapped
// form) or an RFC 4291 IPv6 address, including zero compression
// ("2001:db8::1") and an embedded dotted-quad tail ("::ffff:192.0.2.7").
func ParseAddr(s string) (Addr, error) {
	ip, err := netip.ParseAddr(s)
	if err != nil {
		return Addr{}, fmt.Errorf("%w: %v", ErrBadAddr, err)
	}
	if ip.Zone() != "" {
		return Addr{}, fmt.Errorf("%w: %q has a zone", ErrBadAddr, s)
	}
	return From16(ip.As16()), nil
}

// MustParseAddr is ParseAddr that panics on error. For tests and constants.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// MaskOf returns the two halves of the network mask with the top bits
// set. bits must be in [0, 128].
func MaskOf(bits uint8) (hi, lo uint64) {
	if bits >= 64 {
		hi = ^uint64(0)
		lo = maskHalf(bits - 64)
		return hi, lo
	}
	return maskHalf(bits), 0
}

// maskHalf returns a 64-bit mask with the top bits set; bits > 64 is
// treated as 64.
func maskHalf(bits uint8) uint64 {
	if bits == 0 {
		return 0
	}
	if bits >= 64 {
		return ^uint64(0)
	}
	return ^uint64(0) << (64 - bits)
}

// Prefix is a CIDR prefix over the unified 128-bit address space in
// canonical form: all bits below Bits are zero. Bits counts from the top
// of the 128-bit space, so an IPv4 prefix of family-relative length n has
// Bits 96+n. The zero value is the IPv6 root ::/0, which covers every
// address.
type Prefix struct {
	Addr Addr
	Bits uint8
}

// PrefixFrom canonicalises addr to bits mask length (clamped to 128).
func PrefixFrom(a Addr, bits uint8) Prefix {
	if bits > 128 {
		bits = 128
	}
	mh, ml := MaskOf(bits)
	return Prefix{Addr: Addr{hi: a.hi & mh, lo: a.lo & ml}, Bits: bits}
}

// Root is the ::/0 prefix covering the whole unified address space.
var Root = Prefix{}

// V4Root is the IPv4-mapped root ::ffff:0:0/96, i.e. IPv4's 0.0.0.0/0:
// the prefix covering exactly the IPv4 addresses of the unified space.
var V4Root = Prefix{Addr: Addr{lo: mappedPrefix}, Bits: 96}

// Host returns the /128 prefix for a (the /32 host prefix when a is
// IPv4-mapped).
func Host(a Addr) Prefix { return Prefix{Addr: a, Bits: 128} }

// Is4 reports whether p is an IPv4 prefix: its address is IPv4-mapped
// and its mask reaches into the mapped range, so it parses from and
// renders in dotted-quad CIDR notation.
func (p Prefix) Is4() bool { return p.Bits >= 96 && p.Addr.Is4() }

// Family returns V4 for IPv4 prefixes (see Is4) and V6 otherwise.
func (p Prefix) Family() Family {
	if p.Is4() {
		return V4
	}
	return V6
}

// FamilyBits returns the family-relative mask length: Bits-96 for IPv4
// prefixes (0..32), Bits itself for IPv6 ones.
func (p Prefix) FamilyBits() uint8 {
	if p.Is4() {
		return p.Bits - 96
	}
	return p.Bits
}

// ParsePrefix parses CIDR notation in either family: "10.1.0.0/16"
// (IPv4, mapped internally to /112) or "2001:db8::/32". The address part
// must already be canonical (no host bits set).
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("%w: %q missing '/'", ErrBadPrefix, s)
	}
	a, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, fmt.Errorf("%w: %q: %v", ErrBadPrefix, s, err)
	}
	bits, err := strconv.ParseUint(s[slash+1:], 10, 8)
	if err != nil {
		return Prefix{}, fmt.Errorf("%w: %q bad mask length", ErrBadPrefix, s)
	}
	if strings.IndexByte(s[:slash], ':') < 0 {
		// Dotted-quad notation carries the family-relative length.
		if bits > 32 {
			return Prefix{}, fmt.Errorf("%w: %q bad mask length", ErrBadPrefix, s)
		}
		bits += 96
	} else if bits > 128 {
		return Prefix{}, fmt.Errorf("%w: %q bad mask length", ErrBadPrefix, s)
	}
	p := PrefixFrom(a, uint8(bits))
	if p.Addr != a {
		return Prefix{}, fmt.Errorf("%w: %q has host bits set", ErrBadPrefix, s)
	}
	return p, nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// String renders p in CIDR notation, dotted-quad with family-relative
// length for IPv4 prefixes ("10.0.0.0/8") and RFC 5952 form otherwise.
func (p Prefix) String() string {
	return p.Addr.String() + "/" + strconv.Itoa(int(p.FamilyBits()))
}

// Contains reports whether a falls inside p.
func (p Prefix) Contains(a Addr) bool {
	mh, ml := MaskOf(p.Bits)
	return a.hi&mh == p.Addr.hi && a.lo&ml == p.Addr.lo
}

// Covers reports whether p covers q, i.e. q's range is a subset of p's.
// Every prefix covers itself.
func (p Prefix) Covers(q Prefix) bool {
	return p.Bits <= q.Bits && p.Contains(q.Addr)
}

// Parent returns the prefix obtained by shortening p by step bits,
// saturating at the root. Parent of the root is the root.
func (p Prefix) Parent(step uint8) Prefix {
	if step >= p.Bits {
		return Root
	}
	return PrefixFrom(p.Addr, p.Bits-step)
}

// Compare orders prefixes by (Bits, Addr): shorter (more general)
// prefixes first, then numerically by address. Returns -1, 0 or +1.
func (p Prefix) Compare(q Prefix) int {
	switch {
	case p.Bits < q.Bits:
		return -1
	case p.Bits > q.Bits:
		return 1
	}
	return p.Addr.Compare(q.Addr)
}
