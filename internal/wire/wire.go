// Package wire is the stable, versioned binary codec for every
// mergeable summary the pipeline can produce: Space-Saving, exact leaf
// maps, the PerLevel windowed HHH engine and its level-sampled (RHHH)
// setting, the WCSS Sliding and Memento sliding engines, time-decaying
// Bloom filters, and the continuous detector. It is the cluster mode's
// interchange format — ingest nodes seal merged shard summaries into frames
// and ship them to an aggregator, which restores them and merges via the
// existing Merge contracts.
//
// # Frame layout
//
// Everything is little-endian. A frame is:
//
//	offset  size  field
//	0       4     magic "hhwf"
//	4       2     format version (1 to 4, by kind: see below)
//	6       1     summary kind (Kind)
//	7       1     flags (0; nonzero rejected)
//	8       1     hierarchy family: 0 none, 4 IPv4, 6 IPv6
//	9       1     hierarchy granularity step, bits per level (0 when none)
//	10      1     hierarchy depth, family-relative bits (0 when none)
//	11      1     reserved (0)
//	12      4     payload length N
//	16      N     kind-specific payload
//	16+N    4     CRC-32 (IEEE) over bytes [0, 16+N)
//
// The hierarchy descriptor is reconstructible because addr hierarchies
// are fully determined by (family, step, depth); kinds without a
// hierarchy (bare Space-Saving summaries and TDBF filters) carry family
// 0. A frame is self-contained — no state is shared between frames, bar the
// sliding delta's, below — and re-encoding a decoded summary yields a
// semantically identical summary (byte-identical query results), which is
// what the aggregator relies on.
//
// # Versioning policy
//
// The version field gates the whole layout: decoders reject any version
// they do not know (ErrVersion) and any flag bit they do not understand,
// so old readers fail loudly on new frames instead of misparsing them.
// Additions go into new kinds or a version bump, never into silent
// payload extensions — golden-vector tests pin the bytes of every version.
// The version is per kind:
//
//	kind                                                written  read
//	continuous                                          4        1, 2, 3, 4
//	tdbf                                                3        1, 2, 3
//	space-saving, per-level, rhhh, sliding(-delta)      2        1, 2
//	exact, memento                                      1        1
//
// A version above the one its kind is written at is ErrVersion, so a fleet
// upgrades its aggregators before its ingest nodes: an older aggregator
// refuses every frame a newer node writes at a version it does not read.
// The vectors of the versions no longer written stay in testdata,
// decode-only (golden_test.go's oldDecayed and oldColumns name them).
//
// # Space-Saving columns
//
// A Space-Saving table — bare, a windowed level or a sliding ring slot — is
// its capacity (4), stream total (8) and entry count n (4); at version 2
// then shift, kw, cw and ew (1 each) and n entries of key>>shift in kw
// bytes, count in cw and error bound in ew, little-endian, in node order.
// shift is the trailing zeros of the keys' OR, each width the fewest bytes
// that hold its column (cw ≥ 1 when n > 0); version 1 is (0, 8, 8, 8),
// implied. Columns that are not their entries' own, a width above 8 and a
// key that loses bits to its shift are ErrCorrupt: a state has one encoding.
//
// # The decayed kinds' cells
//
// A filter's cells are forward-decayed masses scaled to a landmark (see
// internal/tdbf), mostly zero, and a key's k cells hold one mass unless
// another key's probe lands on them, so a tdbf frame at version 3 writes
// its filter, and a continuous frame at version 4 each level's, as its seed
// (8) and add count (8), then
//
//	8     landmark (ns; math.MinInt64 for a filter that stores nothing)
//	4     n, the number of non-zero cells
//	4     m, the number of distinct masses among them
//	1+1   gw and iw, the fewest bytes that hold the largest gap and the
//	      largest id (m − 1); 0 and 0 when n is 0
//	then, if 8·m + n·(gw+iw) < 8·cells, the dictionary:
//	8·m   the distinct masses (float64, finite, > 0), in the order the
//	      cells first hold them
//	n·(gw+iw)  a row per non-zero cell, in increasing index order: the gap
//	      from the cell before it (from −1 for the first; at least 1) in gw
//	      bytes, then its mass's id in iw, little-endian
//	else the dense column, 8·cells: every cell's mass (finite, ≥ 0)
//
// — whichever is smaller, dense on a tie. The layout is a function of (n,
// m, gw, iw), and every one of the four is held to the cells: a mass that
// repeats or that no row uses, an id met before all the ids below it are,
// an id of m or more, a gap of 0 or past the cells, a width wider than its
// column needs, m > n are ErrCorrupt, so a state has one encoding. Every
// level of a continuous frame carries the mass tracker's landmark.
//
// A restore reads each section's head and checks its bytes are there, then
// reads the rows or the column once, holding the code to the cells as it
// goes and writing each non-zero cell straight into its filter (the writer
// tdbf.Filter.Restore returns); a section refused part way leaves the
// filters before it, and its cells before the refused one, written.
//
// The versions before wrote the cells otherwise, and are read still. Version
// 2 of a tdbf frame, and versions 2 and 3 of a continuous one, wrote after
// n either the dense column or, where 12·n < 8·cells, a 12-byte row per
// non-zero cell — index (4), mass (8) — with no code. Version 1 wrote 16
// bytes per cell, (mass, timestamp of its last decay): a mass scaled to a
// landmark of its own, which restoring rescales to the latest timestamp its
// filter carries.
//
// Version 3 of a continuous frame is version 2 with each level's section
// sized to that level's own filter, and so is version 4: cells is the
// declared filter cells where the level is hashed, and 2^r where its r
// family-relative prefix bits give no more keys than that — a level held
// exactly, one cell per key (tdbf.Base.NewLevel); both ends derive the
// shape from the hierarchy and the declared cells. In versions 1 and 2
// every level is hashed, and a receiver converts the levels it holds
// exactly as it restores them: each such section is written into a new
// hashed filter, and a key's cell takes the minimum of the k cells it gives
// the key, which preserves every estimate of the level.
//
// Every version of a continuous frame carries an exit ratio (float64) and a
// warm-up (ns) in its header. They are held to the detector's fixed rules:
// a frame whose exit ratio is not continuous.ExitRatio, or whose warm-up is
// not its own decay constant τ, is ErrCorrupt, so a decoded frame
// re-encodes to its own bytes.
//
// # The sliding delta
//
// Between two seals a WCSS sender writes the ring slot that is filling and
// perhaps the next, so beside the full KindSliding frame it has a
// KindSlidingDelta (SealSliding) of the slots written since its last frame:
//
//	8+4   base: the Seq the sender gave that frame, and its CRC-32
//	14+2  geometry and level count, as in the full frame
//	then per level: frame clock (8), a bitmap of the ring (bit i%8 of byte
//	i/8: slot i follows), the slots it names in the full frame's layout
//
// The base sits inside the checksum and is the frame's content as well as
// its number: a restarted sender whose Seq lines up is not its predecessor.
// ApplySlidingDelta applies a delta only over the summary standing at that
// frame and otherwise refuses it whole (ErrBase); a reader from before the
// kind existed refuses it with ErrKind. The decayed kinds have no delta:
// marking the cells touched since a seal would be a write on every packet.
//
// # Robustness
//
// Decode never panics on arbitrary bytes: unknown versions, kinds and
// malformed hierarchy descriptors return typed errors (ErrVersion,
// ErrKind, ErrHierarchy), short frames return ErrTruncated, checksum
// failures ErrCRC, and structurally invalid payloads ErrCorrupt.
// Allocation is guarded against attacker-declared lengths: element
// counts are validated against the actual remaining payload before any
// slice is sized from them, and capacity-type fields that legitimately
// exceed the payload (Space-Saving capacities, Memento tables, filter
// cells — a zero cell takes no payload) are checked against documented
// hard budgets (maxCounters and friends) before construction.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"hiddenhhh/internal/addr"
)

// Version is the wire-format version of the kinds that have one layout,
// exact and Memento: the Space-Saving kinds are written at VersionColumns,
// a bare filter at VersionDict, the continuous detector at
// VersionLevelsDict, and each is read at every version up to its own.
// VersionSparse and VersionLevels are the decayed kinds' versions before
// their cells were a dictionary.
const (
	Version           = 1
	VersionSparse     = 2
	VersionColumns    = 2
	VersionLevels     = 3
	VersionDict       = 3
	VersionLevelsDict = 4
)

// magic opens every frame.
const magic = "hhwf"

const (
	headerSize = 16
	crcSize    = 4
)

// Kind identifies the summary type a frame carries.
type Kind uint8

// Frame kinds. The numeric values are wire format, fixed forever.
const (
	// KindSpaceSaving is a bare Space-Saving summary (no hierarchy).
	KindSpaceSaving Kind = 1
	// KindExact is an exact leaf-key map plus its hierarchy.
	KindExact Kind = 2
	// KindPerLevel is the per-level Space-Saving HHH engine.
	KindPerLevel Kind = 3
	// KindRHHH is the per-level engine in its level-sampled setting
	// (RHHH): one drawn level per packet.
	KindRHHH Kind = 4
	// KindSliding is the WCSS frame-ring sliding HHH engine.
	KindSliding Kind = 5
	// KindMemento is the level-sampled Memento sliding HHH engine.
	KindMemento Kind = 6
	// KindFilter is a bare time-decaying Bloom filter (no hierarchy).
	KindFilter Kind = 7
	// KindContinuous is the TDBF-backed continuous HHH detector.
	KindContinuous Kind = 8
	// KindSlidingDelta is the ring slots of a WCSS engine written since its
	// sender's previous frame, which it names: no summary on its own.
	KindSlidingDelta Kind = 9
)

// version is the format version frames of kind k are written at.
func (k Kind) version() uint16 {
	switch k {
	case KindContinuous:
		return VersionLevelsDict
	case KindFilter:
		return VersionDict
	case KindSpaceSaving, KindPerLevel, KindRHHH, KindSliding, KindSlidingDelta:
		return VersionColumns
	}
	return Version
}

// String names the kind for labels and reports.
func (k Kind) String() string {
	switch k {
	case KindSpaceSaving:
		return "space-saving"
	case KindExact:
		return "exact"
	case KindPerLevel:
		return "per-level"
	case KindRHHH:
		return "rhhh"
	case KindSliding:
		return "sliding"
	case KindMemento:
		return "memento"
	case KindFilter:
		return "tdbf"
	case KindContinuous:
		return "continuous"
	case KindSlidingDelta:
		return "sliding-delta"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Typed decode errors. Every Decode failure wraps exactly one of these,
// so callers can classify with errors.Is.
var (
	// ErrBadMagic means the frame does not open with the wire magic.
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrVersion means the frame declares a version or flag this decoder
	// does not understand.
	ErrVersion = errors.New("wire: unsupported version")
	// ErrKind means the frame declares an unknown or unexpected kind.
	ErrKind = errors.New("wire: unknown summary kind")
	// ErrTruncated means the frame is shorter than its declared layout.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrCRC means the frame checksum does not match its contents.
	ErrCRC = errors.New("wire: checksum mismatch")
	// ErrHierarchy means the hierarchy descriptor is malformed.
	ErrHierarchy = errors.New("wire: invalid hierarchy descriptor")
	// ErrHierarchyMismatch means a frame's hierarchy differs from the
	// one the caller requires (the aggregator's alignment check).
	ErrHierarchyMismatch = errors.New("wire: hierarchy mismatch")
	// ErrCorrupt means the payload is structurally invalid: impossible
	// counts, broken invariants, or bytes left over after decoding.
	ErrCorrupt = errors.New("wire: corrupt payload")
	// ErrBase means a well-formed delta does not apply to the summary it was
	// offered: it names another base frame, or a slot it leaves out no
	// longer stands as that frame left it. Nothing has been written.
	ErrBase = errors.New("wire: delta does not fit its base")
)

// Decode allocation budgets. Capacity-type fields are not materialised
// in the payload. A Space-Saving summary allocates for the entries the
// payload carries, not its capacity (an empty one of capacity k encodes in
// 20 bytes and allocates a 4-slot index), but it grows up to k as updates
// arrive, and a Memento table allocates capacity × ring cells at once; so
// the decoder enforces hard caps on capacities. The budgets comfortably
// cover every configuration the pipeline can produce; frames declaring
// more are rejected with ErrCorrupt.
const (
	// maxCounters caps one Space-Saving capacity or Memento table size.
	maxCounters = 1 << 20
	// maxSummaries caps the Space-Saving instances one frame may carry
	// (levels × ring slots for the sliding engine).
	maxSummaries = 1 << 12
	// maxCountersTotal caps the summed Space-Saving capacity per frame.
	maxCountersTotal = 1 << 21
	// maxMementoCells caps the summed Memento frame-cell matrix size
	// (capacity × ring, summed over levels) per frame.
	maxMementoCells = 1 << 25
	// maxFilterCells caps the filter cells one frame may declare (cells ×
	// levels for the continuous detector): 128 MiB of masses.
	maxFilterCells = 1 << 24
	// maxRing caps the sliding ring length (Frames+1).
	maxRing = 1 << 10
	// maxAbsFrame bounds |frame clock| so that frame-index arithmetic in
	// Merge/advance cannot overflow into an unbounded per-frame loop.
	maxAbsFrame = int64(1) << 62
	// maxAbsTime bounds |timestamps| for the same reason.
	maxAbsTime = int64(1) << 62
)

// Header is the parsed fixed-size frame header.
type Header struct {
	// Version is the declared format version (once parsed, one the kind
	// is read at).
	Version uint16
	// Kind is the summary kind the payload carries.
	Kind Kind
	// Family is the hierarchy family byte: 0 none, 4 IPv4, 6 IPv6.
	Family byte
	// Step is the hierarchy granularity in bits per level (0 when none).
	Step byte
	// Depth is the family-relative hierarchy depth in bits (0 when none).
	Depth byte
}

// Hierarchy reconstructs the addr.Hierarchy the header describes,
// validating the descriptor instead of panicking on malformed input.
// Frames without a hierarchy (Family 0) return ErrHierarchy.
func (h Header) Hierarchy() (addr.Hierarchy, error) {
	switch h.Family {
	case 4:
		if h.Step == 0 || h.Depth != 32 || 32%h.Step != 0 {
			return addr.Hierarchy{}, fmt.Errorf("%w: ipv4 step %d depth %d", ErrHierarchy, h.Step, h.Depth)
		}
		return addr.NewIPv4Hierarchy(addr.Granularity(h.Step)), nil
	case 6:
		if h.Step == 0 || h.Depth == 0 || h.Depth > addr.MaxIPv6Depth || h.Depth%h.Step != 0 {
			return addr.Hierarchy{}, fmt.Errorf("%w: ipv6 step %d depth %d", ErrHierarchy, h.Step, h.Depth)
		}
		return addr.NewIPv6HierarchyDepth(addr.Granularity(h.Step), h.Depth), nil
	case 0:
		return addr.Hierarchy{}, fmt.Errorf("%w: frame carries no hierarchy", ErrHierarchy)
	default:
		return addr.Hierarchy{}, fmt.Errorf("%w: unknown family %d", ErrHierarchy, h.Family)
	}
}

// describe renders a hierarchy into its descriptor bytes.
func describe(h addr.Hierarchy) (fam, step, depth byte) {
	switch h.Family() {
	case addr.V4:
		fam = 4
	case addr.V6:
		fam = 6
	}
	return fam, byte(h.Granularity()), h.Depth()
}

// Frame is a frame whose envelope Verify has checked. A receiver that
// classifies a frame before it commits to decoding it — the Aggregator —
// verifies once and decodes from the Frame, so the checksum is computed
// once per frame however late the decode happens.
type Frame struct {
	// Header is the verified frame header.
	Header Header
	// payload aliases the verified bytes; the caller must not modify them.
	payload []byte
}

// Verify checks the frame envelope — magic, version, kind, declared
// length, checksum — and returns the frame ready to decode.
func Verify(frame []byte) (Frame, error) {
	hdr, payload, err := parseFrame(frame)
	return Frame{hdr, payload}, err
}

// Checksum returns the CRC-32 a framed summary ends in: with the Seq its
// sender gave it, the name a delta calls its base by.
func Checksum(frame []byte) uint32 {
	return binary.LittleEndian.Uint32(frame[len(frame)-crcSize:])
}

// parseFrame verifies the envelope and returns the header and payload.
func parseFrame(frame []byte) (Header, []byte, error) {
	if len(frame) < headerSize+crcSize {
		return Header{}, nil, fmt.Errorf("%w: %d bytes, need at least %d", ErrTruncated, len(frame), headerSize+crcSize)
	}
	if string(frame[:4]) != magic {
		return Header{}, nil, ErrBadMagic
	}
	if kind := Kind(frame[6]); kind < KindSpaceSaving || kind > KindSlidingDelta {
		return Header{}, nil, fmt.Errorf("%w: %d", ErrKind, uint8(kind))
	}
	version := binary.LittleEndian.Uint16(frame[4:6])
	if version < Version || version > Kind(frame[6]).version() {
		return Header{}, nil, fmt.Errorf("%w: %d for kind %d", ErrVersion, version, frame[6])
	}
	if flags := frame[7]; flags != 0 {
		return Header{}, nil, fmt.Errorf("%w: unknown flags %#x", ErrVersion, flags)
	}
	if frame[11] != 0 {
		return Header{}, nil, fmt.Errorf("%w: nonzero reserved byte", ErrCorrupt)
	}
	hdr := Header{
		Version: version,
		Kind:    Kind(frame[6]),
		Family:  frame[8],
		Step:    frame[9],
		Depth:   frame[10],
	}
	n := int(binary.LittleEndian.Uint32(frame[12:16]))
	if len(frame) < headerSize+n+crcSize {
		return Header{}, nil, fmt.Errorf("%w: payload declares %d bytes, frame has %d", ErrTruncated, n, len(frame)-headerSize-crcSize)
	}
	if len(frame) > headerSize+n+crcSize {
		return Header{}, nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(frame)-headerSize-n-crcSize)
	}
	sum := crc32.ChecksumIEEE(frame[:headerSize+n])
	if got := binary.LittleEndian.Uint32(frame[headerSize+n:]); got != sum {
		return Header{}, nil, fmt.Errorf("%w: frame %#08x, computed %#08x", ErrCRC, got, sum)
	}
	return hdr, frame[headerSize : headerSize+n], nil
}

// beginFrame starts a frame: the header, in a buffer with room for
// payloadCap payload bytes and the checksum, so that a payload whose
// length is known up front is appended in place and never copied.
// endFrame completes it.
func beginFrame(kind Kind, fam, step, depth byte, payloadCap int) []byte {
	out := make([]byte, 0, headerSize+payloadCap+crcSize)
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint16(out, kind.version())
	out = append(out, byte(kind), 0, fam, step, depth, 0)
	return binary.LittleEndian.AppendUint32(out, 0) // payload length, set by endFrame
}

// endFrame closes a frame begun with beginFrame once its payload has
// been appended: it fills in the payload length and adds the checksum.
func endFrame(out []byte) []byte {
	binary.LittleEndian.PutUint32(out[12:16], uint32(len(out)-headerSize))
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// cursor is a sticky-error little-endian payload reader with the decode
// allocation budgets. Reads past the end clear ok and return zero; the
// caller checks ok (or calls finish) before using values that gate
// allocation or construction.
type cursor struct {
	b       []byte
	off     int
	ok      bool
	version uint16 // the frame's: the Space-Saving tables' layout

	summaries    int // Space-Saving instances restored from this payload
	counters     int // summed Space-Saving capacity restored
	mementoCells int // summed Memento frame-cell matrix size restored

	index *massIndex // the pooled index a filter section's code is checked with
}

func newCursor(version uint16, b []byte) *cursor { return &cursor{b: b, ok: true, version: version} }

// remaining returns the unread payload length.
func (c *cursor) remaining() int { return len(c.b) - c.off }

// take returns the next n bytes of the payload, nil if they are not there
// (and then clears ok).
func (c *cursor) take(n int) []byte {
	if !c.ok || n < 0 || c.remaining() < n {
		c.ok = false
		return nil
	}
	c.off += n
	return c.b[c.off-n : c.off]
}

var zeros [8]byte

// word returns the next n ≤ 8 bytes of the payload, zeros if they are not
// there.
func (c *cursor) word(n int) []byte {
	if b := c.take(n); b != nil {
		return b
	}
	return zeros[:n]
}

func (c *cursor) u8() byte { return c.word(1)[0] }

func (c *cursor) u16() uint16 { return binary.LittleEndian.Uint16(c.word(2)) }

func (c *cursor) u32() uint32 { return binary.LittleEndian.Uint32(c.word(4)) }

func (c *cursor) u64() uint64 { return binary.LittleEndian.Uint64(c.word(8)) }

func (c *cursor) i64() int64 { return int64(c.u64()) }

func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

// count reads a u32 element count and validates it against the actual
// remaining payload at elem bytes per element, so no slice is ever sized
// from a declared length the payload cannot back.
func (c *cursor) count(elem int) int {
	n := int(c.u32())
	if !c.ok || int64(n)*int64(elem) > int64(c.remaining()) {
		c.ok = false
		return 0
	}
	return n
}

// finish returns the terminal payload verdict: ErrCorrupt if any read
// ran past the end or a budget tripped, or if bytes are left over.
func (c *cursor) finish() error {
	if !c.ok {
		return fmt.Errorf("%w: payload exhausted or budget exceeded", ErrCorrupt)
	}
	if c.off != len(c.b) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(c.b)-c.off)
	}
	return nil
}

// corrupt wraps a restore-constructor error as a payload corruption; one
// that is already passes as it is.
func corrupt(err error) error {
	if errors.Is(err, ErrCorrupt) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrCorrupt, err)
}
