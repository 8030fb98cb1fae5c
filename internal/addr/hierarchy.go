package addr

import "strconv"

// Granularity is the step, in bits, between consecutive levels of a
// prefix hierarchy. The hierarchical-heavy-hitter literature
// conventionally uses byte granularity for IPv4 (levels /0 /8 /16 /24
// /32) and hextet or nibble granularity for IPv6's much taller lattice.
type Granularity uint8

// Common granularities.
const (
	// Bit steps one bit per level (33 IPv4 levels).
	Bit Granularity = 1
	// Nibble steps four bits per level (9 IPv4 levels, 17 IPv6 levels
	// to /64) — the tall-hierarchy stress case RHHH targets.
	Nibble Granularity = 4
	// Byte steps eight bits per level (5 IPv4 levels), the paper's
	// convention.
	Byte Granularity = 8
	// Hextet steps sixteen bits — one textual IPv6 group — per level
	// (5 IPv6 levels to /64, the ladder mirroring IPv4-by-byte).
	Hextet Granularity = 16
)

// String renders the conventional granularity name.
func (g Granularity) String() string {
	switch g {
	case Bit:
		return "bit"
	case Nibble:
		return "nibble"
	case Byte:
		return "byte"
	case Hextet:
		return "hextet"
	default:
		return "granularity(" + strconv.Itoa(int(g)) + ")"
	}
}

// Hierarchy describes a uniform generalisation lattice over source
// prefixes of one address family — the descriptor every detector,
// generator and oracle in the repository consumes instead of a
// hard-coded ladder. Level 0 is the most specific (leaf) level; level
// Levels()-1 is the family root (/0).
//
// For IPv4 the lattice spans /0../32 in family-relative bits (the
// paper's byte-granularity ladder is NewIPv4Hierarchy(Byte)). For IPv6
// it spans /0 down to a configurable leaf depth, conventionally /64 —
// the subnet boundary below which interface identifiers carry no routing
// structure — so per-level state stays keyable by the top 64 address
// bits.
//
// A Hierarchy also owns the packing of its lattice prefixes into the
// uint64 keys the sketch substrates consume: within one hierarchy every
// level's varying bits fit one 64-bit half of the address (the low half
// for IPv4-mapped addresses, the high half for IPv6 with depth <= 64),
// so Key/PrefixOfKey are lossless and allocation-free. The zero value is
// not valid; detectors treat it as "default" and substitute the IPv4
// byte ladder.
type Hierarchy struct {
	fam   Family
	depth uint8 // leaf mask length in the unified 128-bit space
	step  uint8
}

// MaxIPv6Depth is the deepest IPv6 leaf level a Hierarchy supports
// (family-relative /64): the conventional subnet boundary, and the limit
// at which per-level keys still fit the sketch substrates' uint64 keys.
const MaxIPv6Depth = 64

// NewIPv4Hierarchy builds the IPv4 lattice /0../32 at granularity g. It
// panics if g does not divide 32: such lattices would be non-uniform and
// are never meaningful for IPv4 HHH.
func NewIPv4Hierarchy(g Granularity) Hierarchy {
	if g == 0 || g > 32 || 32%uint8(g) != 0 {
		panic("addr: IPv4 granularity must divide 32, got " + g.String())
	}
	return Hierarchy{fam: V4, depth: 128, step: uint8(g)}
}

// NewIPv6Hierarchy builds the IPv6 lattice /0../64 at granularity g
// (Hextet for the five-level ladder mirroring IPv4-by-byte, Nibble for
// the 17-level stress case). It panics if g does not divide 64.
func NewIPv6Hierarchy(g Granularity) Hierarchy {
	return NewIPv6HierarchyDepth(g, MaxIPv6Depth)
}

// NewIPv6HierarchyDepth builds the IPv6 lattice /0../depth at
// granularity g. depth must be in (0, MaxIPv6Depth] and divisible by g;
// it panics otherwise.
func NewIPv6HierarchyDepth(g Granularity, depth uint8) Hierarchy {
	if depth == 0 || depth > MaxIPv6Depth {
		panic("addr: IPv6 hierarchy depth must be in (0,64], got " + strconv.Itoa(int(depth)))
	}
	if g == 0 || depth%uint8(g) != 0 {
		panic("addr: IPv6 granularity " + g.String() + " must divide depth " + strconv.Itoa(int(depth)))
	}
	return Hierarchy{fam: V6, depth: depth, step: uint8(g)}
}

// Family returns the address family the hierarchy generalises.
func (h Hierarchy) Family() Family { return h.fam }

// Granularity returns the configured per-level bit step.
func (h Hierarchy) Granularity() Granularity { return Granularity(h.step) }

// Depth returns the family-relative mask length of the leaf level (32
// for IPv4, up to 64 for IPv6).
func (h Hierarchy) Depth() uint8 {
	if h.fam == V4 {
		return h.depth - 96
	}
	return h.depth
}

// rootBits is the unified-space mask length of the family root: 96 for
// IPv4 (the mapped range ::ffff:0:0/96 is IPv4's 0.0.0.0/0), 0 for IPv6.
func (h Hierarchy) rootBits() uint8 {
	if h.fam == V4 {
		return 96
	}
	return 0
}

// Levels returns the number of levels in the hierarchy, including both
// the leaves and the family root. The IPv4 byte ladder yields 5.
func (h Hierarchy) Levels() int {
	return int(h.depth-h.rootBits())/int(h.step) + 1
}

// Bits returns the unified-space prefix length at the given level, where
// level 0 is the leaf level and level Levels()-1 the root.
func (h Hierarchy) Bits(level int) uint8 {
	return h.depth - uint8(level)*h.step
}

// Level returns the level index for a unified-space prefix length, or -1
// if bits does not lie on this hierarchy's lattice.
func (h Hierarchy) Level(bits uint8) int {
	if bits > h.depth || bits < h.rootBits() || (h.depth-bits)%h.step != 0 {
		return -1
	}
	return int(h.depth-bits) / int(h.step)
}

// Match reports whether a belongs to the hierarchy's address family: the
// ingest-side family filter every engine applies, so dual-stack streams
// feed each family's detector only its own packets.
func (h Hierarchy) Match(a Addr) bool {
	return a.Is4() == (h.fam == V4)
}

// At generalises a to the given level.
func (h Hierarchy) At(a Addr, level int) Prefix {
	return PrefixFrom(a, h.Bits(level))
}

// OnLattice reports whether p lies on the hierarchy lattice: right
// family, mask length on a level boundary.
func (h Hierarchy) OnLattice(p Prefix) bool {
	return h.Level(p.Bits) >= 0 && p.Family() == h.fam
}

// KeyFromHigh reports which 64-bit address half this hierarchy's keys
// are drawn from: the high half for IPv6 (depth <= 64), the low half for
// IPv4-mapped addresses (all varying bits sit below bit 64). Engines
// hoist it next to their per-level KeyMask table.
func (h Hierarchy) KeyFromHigh() bool { return h.fam == V6 }

// KeyMask returns the mask that generalises a level's keys: key at level
// l == half(addr) & KeyMask(l), with half per KeyFromHigh.
func (h Hierarchy) KeyMask(level int) uint64 {
	bits := h.Bits(level)
	if h.fam == V6 {
		return maskHalf(bits)
	}
	return maskHalf(bits - 64)
}

// Key packs a's generalisation at the given level into the uint64 key
// the sketch substrates consume. Within one hierarchy the packing is
// lossless: PrefixOfKey inverts it.
func (h Hierarchy) Key(a Addr, level int) uint64 {
	if h.fam == V6 {
		return a.hi & h.KeyMask(level)
	}
	return a.lo & h.KeyMask(level)
}

// KeyOfPrefix packs an on-lattice prefix into its level key (the
// prefix's address is already masked, so this is a bare half select).
func (h Hierarchy) KeyOfPrefix(p Prefix) uint64 {
	if h.fam == V6 {
		return p.Addr.hi
	}
	return p.Addr.lo
}

// PrefixOfKey inverts Key: it rebuilds the lattice prefix a level key
// denotes.
func (h Hierarchy) PrefixOfKey(key uint64, level int) Prefix {
	if h.fam == V6 {
		return Prefix{Addr: Addr{hi: key}, Bits: h.Bits(level)}
	}
	return Prefix{Addr: Addr{lo: key}, Bits: h.Bits(level)}
}

// String renders the descriptor, e.g. "ipv4/8" (byte ladder) or
// "ipv6/16@64" (hextet steps to a /64 leaf).
func (h Hierarchy) String() string {
	s := h.fam.String() + "/" + strconv.Itoa(int(h.step))
	if h.fam == V6 && h.depth != MaxIPv6Depth {
		s += "@" + strconv.Itoa(int(h.depth))
	}
	return s
}
