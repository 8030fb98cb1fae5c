package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/continuous"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/swhh"
	"hiddenhhh/internal/tdbf"
)

// Encoding is deterministic: the same summary state always yields the
// same bytes (map-backed structures are sorted before writing), which is
// what lets golden-vector tests pin the format and lets tests compare
// aggregated state byte for byte.

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return binary.LittleEndian.AppendUint64(b, uint64(v)) }
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// Encode frames any summary Decode can return, dispatching on its
// dynamic type. It is the inverse of Decode: for every valid frame,
// Encode(Decode(frame)) reproduces the frame byte for byte.
func Encode(v any) ([]byte, error) {
	switch s := v.(type) {
	case *sketch.SpaceSaving:
		return EncodeSpaceSaving(s), nil
	case ExactSummary:
		return EncodeExact(s.Hierarchy, s.Leaves), nil
	case *hhh.PerLevel:
		return EncodePerLevel(s), nil
	case *swhh.SlidingHHH:
		return EncodeSliding(s), nil
	case SlidingDelta:
		f := s.frame
		b := beginFrame(KindSlidingDelta, f.Header.Family, f.Header.Step, f.Header.Depth, len(f.payload))
		binary.LittleEndian.PutUint16(b[4:], f.Header.Version) // the version its payload is laid out at
		return endFrame(append(b, f.payload...)), nil
	case *swhh.MementoHHH:
		return EncodeMemento(s), nil
	case *tdbf.Filter:
		return EncodeFilter(s), nil
	case *continuous.Detector:
		return EncodeContinuous(s), nil
	default:
		return nil, fmt.Errorf("wire: cannot encode %T", v)
	}
}

// Every encoder sizes its payload exactly up front — entry counts and
// geometry are known — and builds the frame in place (beginFrame /
// endFrame): one allocation of the frame's final size, no growth, no copy.

// Space-Saving sub-payload sizes: the header, then an entry per column
// stride (ssEntrySize at version 1, and in Memento's tables).
const (
	ssHeaderSize = 4 + 8 + 4 + 4 // capacity, stream total, entry count, columns
	ssEntrySize  = 8 + 8 + 8     // key, count, error bound
)

// ssCols is the column layout of a Space-Saving table's entries: each key
// shifted right by shift in kw bytes, the count in cw, the error bound in
// ew, little-endian.
type ssCols struct{ shift, kw, cw, ew uint8 }

func (w ssCols) stride() int { return int(w.kw + w.cw + w.ew) }

// columns is the layout of n entries whose keys, counts and error bounds OR
// to keys, counts and errs: the keys' common trailing zeros shifted out,
// each column the fewest bytes that hold its largest value, a count column
// of at least one byte.
func columns(n int, keys, counts, errs uint64) ssCols {
	if n == 0 {
		return ssCols{}
	}
	shift := uint8(bits.TrailingZeros64(keys) & 63) // 0 when every key is 0
	return ssCols{shift, width(keys >> shift), max(width(counts), 1), width(errs)}
}

// width is the fewest bytes that hold v.
func width(v uint64) uint8 { return uint8(bits.Len64(v)+7) / 8 }

// colsOf is the layout of s's entries.
func colsOf(s *sketch.SpaceSaving) ssCols {
	var keys, counts, errs uint64
	for i := 0; i < s.Len(); i++ {
		e := s.Entry(i)
		keys, counts, errs = keys|e.Key, counts|uint64(e.Count), errs|uint64(e.ErrUB)
	}
	return columns(s.Len(), keys, counts, errs)
}

// ssSize is the encoded size of a sub-payload of n entries laid out as w:
// the columns an encoder works out once a table, then hands to the writer.
func ssSize(n int, w ssCols) int { return ssHeaderSize + n*w.stride() }

// appendUint appends the w low bytes of v, little-endian. The encoders size
// their frames up front, so all but a frame's last few fields are stored as
// eight bytes the next field overwrites.
func appendUint(b []byte, v uint64, w uint8) []byte {
	if n := len(b); cap(b)-n >= 8 {
		return binary.LittleEndian.AppendUint64(b, v)[:n+int(w)]
	}
	var e [8]byte
	binary.LittleEndian.PutUint64(e[:], v)
	return append(b, e[:w]...)
}

// appendSpaceSaving writes the shared Space-Saving sub-payload, laid out
// as w = colsOf(s): capacity, stream total, entry count, the columns, then
// the entries in the summary's canonical node order.
func appendSpaceSaving(b []byte, s *sketch.SpaceSaving, w ssCols) []byte {
	n := s.Len()
	b = appendU32(b, uint32(s.Capacity()))
	b = appendI64(b, s.Total())
	b = appendU32(b, uint32(n))
	b = append(b, w.shift, w.kw, w.cw, w.ew)
	for i := 0; i < n; i++ {
		e := s.Entry(i)
		b = appendUint(b, e.Key>>w.shift, w.kw)
		b = appendUint(b, uint64(e.Count), w.cw)
		b = appendUint(b, uint64(e.ErrUB), w.ew)
	}
	return b
}

// EncodeSpaceSaving frames a bare Space-Saving summary (KindSpaceSaving,
// no hierarchy descriptor).
func EncodeSpaceSaving(s *sketch.SpaceSaving) []byte {
	w := colsOf(s)
	return endFrame(appendSpaceSaving(beginFrame(KindSpaceSaving, 0, 0, 0, ssSize(s.Len(), w)), s, w))
}

// EncodeExact frames an exact leaf-key map under hierarchy h
// (KindExact). Entries are sorted by key so the encoding is
// deterministic regardless of map iteration order.
func EncodeExact(h addr.Hierarchy, ex *sketch.Exact) []byte {
	kvs := ex.Tracked()
	slices.SortFunc(kvs, func(a, b sketch.KV) int {
		switch {
		case a.Key < b.Key:
			return -1
		case a.Key > b.Key:
			return 1
		}
		return 0
	})
	fam, step, depth := describe(h)
	b := beginFrame(KindExact, fam, step, depth, 4+len(kvs)*16)
	b = appendU32(b, uint32(len(kvs)))
	for _, kv := range kvs {
		b = appendU64(b, kv.Key)
		b = appendI64(b, kv.Count)
	}
	return endFrame(b)
}

// EncodePerLevel frames a PerLevel windowed HHH engine: KindPerLevel, or
// KindRHHH for a level-sampled engine, whose frame also carries the packet
// count and the sampler state so a restored engine keeps drawing the
// levels the original would have.
func EncodePerLevel(p *hhh.PerLevel) []byte {
	h := p.Hierarchy()
	levels := h.Levels()
	sampled, packets, sampler := p.Sampled()
	kind, size := KindPerLevel, 8+2
	if sampled {
		kind, size = KindRHHH, size+8+8
	}
	cols := make([]ssCols, 0, 64) // more levels spill to the heap
	for l := 0; l < levels; l++ {
		cols = append(cols, colsOf(p.LevelSummary(l)))
		size += ssSize(p.LevelSummary(l).Len(), cols[l])
	}
	fam, step, depth := describe(h)
	b := beginFrame(kind, fam, step, depth, size)
	b = appendI64(b, p.Total())
	if sampled {
		b = appendI64(b, packets)
		b = appendU64(b, sampler)
	}
	b = appendU16(b, uint16(levels))
	for l := 0; l < levels; l++ {
		b = appendSpaceSaving(b, p.LevelSummary(l), cols[l])
	}
	return endFrame(b)
}

// Sliding payload layout: the shared geometry prefix, then per level the
// frame clock and the ring of slots, each an exact frame total followed
// by the frame's Space-Saving sub-payload.
const (
	slidingGeometrySize = 8 + 2 + 4 // window, frames, counters
	slidingLevelHeader  = 8         // frame clock
	slidingSlotHeader   = 8         // exact frame total
	deltaBaseSize       = 8 + 4     // the base frame's Seq and checksum
)

// EncodeSliding frames a WCSS sliding HHH engine (KindSliding): the
// shared frame geometry, then per level the frame clock and the ring of
// (exact frame total, frame summary) pairs in slot order.
func EncodeSliding(d *swhh.SlidingHHH) []byte { return encodeSliding(d, false, 0, 0) }

// SealSliding is the sender's side of a delta chain. With delta it frames
// only the ring slots written since the previous call (KindSlidingDelta;
// the layout is in the package comment), for a receiver that holds d as
// that call's frame — sealed under baseSeq, of checksum baseSum — left it;
// without, it is EncodeSliding. Either way it records what it sealed, slot
// by slot (swhh.SlidingHHH.MarkSealed).
func SealSliding(d *swhh.SlidingHHH, delta bool, baseSeq int64, baseSum uint32) []byte {
	frame := encodeSliding(d, delta, baseSeq, baseSum)
	d.MarkSealed()
	return frame
}

func encodeSliding(d *swhh.SlidingHHH, delta bool, baseSeq int64, baseSum uint32) []byte {
	h := d.Hierarchy()
	cfg := d.Config()
	levels := h.Levels()
	kind, bitmap, size := KindSliding, 0, slidingGeometrySize+2
	if delta {
		kind, bitmap, size = KindSlidingDelta, (cfg.Frames+8)/8, size+deltaBaseSize
	}
	cols := make([]ssCols, 0, 256) // the carried slots' in write order; more spill to the heap
	for l := 0; l < levels; l++ {
		lv := d.LevelSummary(l)
		size += slidingLevelHeader + bitmap
		for i, f := range lv.State().Frames {
			if !delta || !lv.Sealed(i) {
				cols = append(cols, colsOf(f))
				size += slidingSlotHeader + ssSize(f.Len(), cols[len(cols)-1])
			}
		}
	}
	fam, step, depth := describe(h)
	b := beginFrame(kind, fam, step, depth, size)
	if delta {
		b = appendU32(appendI64(b, baseSeq), baseSum)
	}
	b = appendI64(b, int64(cfg.Window))
	b = appendU16(b, uint16(cfg.Frames))
	b = appendU32(b, uint32(cfg.Counters))
	b = appendU16(b, uint16(levels))
	for l := 0; l < levels; l++ {
		lv := d.LevelSummary(l)
		st := lv.State()
		b = appendI64(b, st.CurFrame)
		bits := len(b)
		b = append(b, make([]byte, bitmap)...)
		for i := range st.Frames {
			if delta && lv.Sealed(i) {
				continue
			}
			if delta {
				b[bits+i/8] |= 1 << (i % 8)
			}
			b = appendI64(b, st.Totals[i])
			b = appendSpaceSaving(b, st.Frames[i], cols[0])
			cols = cols[1:]
		}
	}
	return endFrame(b)
}

// EncodeMemento frames a level-sampled Memento sliding HHH engine
// (KindMemento): the shared geometry and sampler, the wrapper's exact
// totals ring, then per level the aged table columns and frame-cell
// matrix.
func EncodeMemento(d *swhh.MementoHHH) []byte {
	h := d.Hierarchy()
	cfg := d.Config()
	st := d.State()
	ring := len(st.Totals)
	size := slidingGeometrySize + 8 + 8 + ring*8 + 2
	for _, lv := range st.Levels {
		size += 8 + 4 + 4 + ring*8 + len(lv.State().Keys)*(ssEntrySize+ring*8)
	}
	fam, step, depth := describe(h)
	b := beginFrame(KindMemento, fam, step, depth, size)
	b = appendI64(b, int64(cfg.Window))
	b = appendU16(b, uint16(cfg.Frames))
	b = appendU32(b, uint32(cfg.Counters))
	b = appendU64(b, st.Sampler)
	b = appendI64(b, st.CurFrame)
	for _, t := range st.Totals {
		b = appendI64(b, t)
	}
	b = appendU16(b, uint16(len(st.Levels)))
	for _, lv := range st.Levels {
		ls := lv.State()
		b = appendI64(b, ls.CurFrame)
		b = appendU32(b, uint32(ls.Cursor))
		b = appendU32(b, uint32(len(ls.Keys)))
		for _, t := range ls.Totals {
			b = appendI64(b, t)
		}
		for e := range ls.Keys {
			b = appendU64(b, ls.Keys[e])
			b = appendI64(b, ls.Counts[e])
			b = appendI64(b, ls.Errs[e])
		}
		for _, cell := range ls.Cells {
			b = appendI64(b, cell)
		}
	}
	return endFrame(b)
}

// Decay-law descriptor tags (wire format, fixed forever). Tag 2 was the
// leaky-bucket law, which forward decay cannot express: it stays reserved
// and is rejected.
const (
	decayExponential = 1 // param: tau as int64 nanoseconds
	decayLeaky       = 2 // reserved
)

// appendDecay writes the tagged decay-law descriptor.
func appendDecay(b []byte, d tdbf.Exponential) []byte {
	return appendI64(append(b, decayExponential), int64(d.Tau))
}

// Payload sizes of the filter-backed kinds. The shape and, per filter, the
// dictionary of its cells are worked out before the first byte is written:
// the frame is allocated once at its final size and the cells — all but a
// few dozen bytes of it — are written straight into it.
const (
	decaySize        = 1 + 8 // tag, parameter
	filterHeaderSize = 4 + 2 // cells, hashes
	// configuration, filter shape and detector state, the two counts
	continuousHeaderSize = 8 + 8 + 1 + 8 + 8 + 8 + decaySize + 4 + 2 + 8 + 8 + 8 + 8 + 4 + 2
	activeRowSize        = 8 + 2 + 8     // key, level, activation timestamp
	levelHeaderSize      = 8 + 8 + 8 + 4 // seed, adds, landmark, occupied count
	dictHeaderSize       = 4 + 1 + 1     // distinct masses, gap and id widths
	massSize             = 8             // a dictionary's mass
	sparseRowSize        = 4 + 8         // cell index, mass (versions 2 and 3)
	denseCellSize        = 8             // mass
	v1CellSize           = 8 + 8         // mass, touch timestamp (version 1)
)

// levelCode is how a filter's section codes its n non-zero cells: m
// distinct masses, then a row per cell of the gap from the cell before it
// (the first from -1) in gw bytes and its mass's id in iw — each width the
// fewest bytes that hold the largest — or, where that is no smaller, the
// dense column. The choice is a function of the four, so a state has one
// encoding.
type levelCode struct {
	n, m   int
	gw, iw uint8
}

// dense reports whether a section of cells cells is the dense column.
func (c levelCode) dense(cells int) bool {
	return int64(c.m)*massSize+int64(c.n)*int64(c.gw+c.iw) >= int64(cells)*denseCellSize
}

// size is the encoded size of the section.
func (c levelCode) size(cells int) int {
	if c.dense(cells) {
		return levelHeaderSize + dictHeaderSize + cells*denseCellSize
	}
	return levelHeaderSize + dictHeaderSize + c.m*massSize + c.n*int(c.gw+c.iw)
}

// massIndex numbers distinct masses, by their bits, in the order they are
// met: masses[base+id] is mass id of the section being coded; slots is an
// open-addressed table of the masses' bits (0 for a free slot, a mass being
// positive) and ids their numbers, kept at half load or less.
type massIndex struct {
	masses []uint64
	base   int
	slots  []uint64
	ids    []uint32
	shift  uint8
}

// reset starts a section, sized for about n masses; the masses of the
// sections before it stay.
func (x *massIndex) reset(n int) {
	x.base = len(x.masses)
	x.size(2 << bits.Len(uint(n)))
}

// size empties the table to size slots, a power of two.
func (x *massIndex) size(size int) {
	if cap(x.slots) < size {
		x.slots, x.ids = make([]uint64, size), make([]uint32, size)
	}
	x.slots, x.ids = x.slots[:size], x.ids[:size]
	clear(x.slots)
	x.shift = uint8(64 - bits.Len(uint(size-1)))
}

// slot returns the slot of the mass of bits v, or the free one it would
// take.
func (x *massIndex) slot(v uint64) uint64 {
	slots, mask := x.slots, uint64(len(x.slots)-1)
	s := v * 0x9e3779b97f4a7c15 >> x.shift
	for slots[s] != 0 && slots[s] != v {
		s = (s + 1) & mask
	}
	return s
}

// id returns the number of the mass of bits v, numbering it next if it is
// new.
func (x *massIndex) id(v uint64) uint32 {
	s := x.slot(v)
	if x.slots[s] == v {
		return x.ids[s]
	}
	n := len(x.masses) - x.base
	x.masses = append(x.masses, v)
	x.slots[s], x.ids[s] = v, uint32(n)
	if 2*(n+1) > len(x.slots) {
		x.grow()
	}
	return uint32(n)
}

// add puts the mass of bits v in the table, unnumbered, and reports
// whether it was not there yet: how a decoder holds masses to be distinct.
func (x *massIndex) add(v uint64) bool {
	s := x.slot(v)
	fresh := x.slots[s] != v
	x.slots[s] = v
	return fresh
}

// grow doubles the table and numbers the section's masses into it anew.
func (x *massIndex) grow() {
	x.size(2 * len(x.slots))
	masses := x.masses[x.base:]
	x.masses = x.masses[:x.base]
	for _, v := range masses {
		x.id(v)
	}
}

// cellScratch is what a frame's filters are coded in: each section's code,
// and its masses and rows (index<<32 | id), section after section. A
// frame's encode or decode takes one from a pool and puts it back, so a
// warm encode allocates the frame only.
type cellScratch struct {
	index  massIndex
	codes  []levelCode
	rows   []uint64
	active []continuous.ActiveEntry // a continuous frame's active set
}

var cellScratches = sync.Pool{New: func() any { return new(cellScratch) }}

// scratch takes a cell scratch from the pool, emptied; the caller puts it
// back.
func scratch() *cellScratch {
	s := cellScratches.Get().(*cellScratch)
	s.codes, s.index.masses, s.rows = s.codes[:0], s.index.masses[:0], s.rows[:0]
	return s
}

// code appends the code of f's section, and its masses and rows.
func (s *cellScratch) code(f *tdbf.Filter) {
	c := levelCode{n: f.Occupied()}
	s.index.reset(c.n / 4) // a key's k cells mostly share its mass
	prev, gaps := -1, uint64(0)
	for w := 0; w*64*tdbf.LineCells < f.Cells(); w++ {
		for m := f.Lines(w); m != 0; m &= m - 1 {
			j := w*64 + bits.TrailingZeros64(m)
			line := f.Line(j)
			// The line's non-zero cells, as a mask found without a branch.
			var held uint
			for i, v := range line {
				b := math.Float64bits(v)
				held |= uint((b|-b)>>63) << i
			}
			for ; held != 0; held &= held - 1 {
				i := bits.TrailingZeros(held)
				at := j*tdbf.LineCells + i
				id := s.index.id(math.Float64bits(line[i]))
				s.rows = append(s.rows, uint64(at)<<32|uint64(id))
				gaps, prev = gaps|uint64(at-prev), at
			}
		}
	}
	c.m = len(s.index.masses) - s.index.base
	c.gw, c.iw = width(gaps), width(uint64(max(c.m, 1)-1))
	s.codes = append(s.codes, c)
}

// appendLevel writes f's section, coded as c with masses and rows: seed,
// add count, landmark, the code, then the dictionary and its rows or the
// dense column.
func appendLevel(b []byte, f *tdbf.Filter, c levelCode, masses, rows []uint64) []byte {
	b = appendU64(b, f.Seed())
	b = appendI64(b, f.Adds())
	b = appendI64(b, f.Landmark())
	b = appendU32(b, uint32(c.n))
	b = append(appendU32(b, uint32(c.m)), c.gw, c.iw)
	if cells := f.Cells(); c.dense(cells) {
		for i := 0; i < cells; i++ {
			b = appendF64(b, f.Line(i / tdbf.LineCells)[i%tdbf.LineCells])
		}
		return b
	}
	for _, v := range masses {
		b = appendU64(b, v)
	}
	prev := -1
	for _, r := range rows {
		at := int(r >> 32)
		b = appendUint(b, uint64(at-prev)|(r&math.MaxUint32)<<(8*c.gw), c.gw+c.iw)
		prev = at
	}
	return b
}

// codeLevels codes fs and returns the size of their sections.
func (s *cellScratch) codeLevels(fs []*tdbf.Filter) (size int) {
	for _, f := range fs {
		s.code(f)
		size += s.codes[len(s.codes)-1].size(f.Cells())
	}
	return size
}

// appendLevels writes the sections of fs, coded by codeLevels.
func (s *cellScratch) appendLevels(b []byte, fs []*tdbf.Filter) []byte {
	masses, rows := s.index.masses, s.rows
	for l, f := range fs {
		c := s.codes[l]
		b = appendLevel(b, f, c, masses[:c.m], rows[:c.n])
		masses, rows = masses[c.m:], rows[c.n:]
	}
	return b
}

// EncodeFilter frames a bare time-decaying Bloom filter (KindFilter, no
// hierarchy descriptor).
func EncodeFilter(f *tdbf.Filter) []byte {
	s, fs := scratch(), []*tdbf.Filter{f}
	defer cellScratches.Put(s)
	b := beginFrame(KindFilter, 0, 0, 0, decaySize+filterHeaderSize+s.codeLevels(fs))
	b = appendDecay(b, f.Decay())
	b = appendU32(b, uint32(f.Cells()))
	b = appendU16(b, uint16(f.Hashes()))
	return endFrame(s.appendLevels(b, fs))
}

// EncodeContinuous frames a continuous detector (KindContinuous): its
// full configuration (so the receiver rebuilds an identically derived
// detector), the warmup anchor and mass tracker, the active set sorted
// by (level, key) for determinism, then the per-level filter columns, each
// sized to its own level's cells.
func EncodeContinuous(d *continuous.Detector) []byte {
	cfg := d.Config()
	s := scratch()
	defer cellScratches.Put(s)
	st := d.StateInto(s.active)
	s.active = st.Active
	var cflags byte
	if cfg.Sampled {
		cflags |= 1
	}
	if st.Started {
		cflags |= 2
	}
	size := continuousHeaderSize + len(st.Active)*activeRowSize + s.codeLevels(st.Filters)
	fam, step, depth := describe(cfg.Hierarchy)
	b := beginFrame(KindContinuous, fam, step, depth, size)
	b = appendF64(b, cfg.Phi)
	b = appendF64(b, continuous.ExitRatio)
	b = append(b, cflags)
	b = appendU64(b, cfg.Seed)
	b = appendI64(b, int64(cfg.Filter.Decay.Tau)) // the warm-up
	b = appendU64(b, d.Sampler())
	b = appendDecay(b, cfg.Filter.Decay)
	b = appendU32(b, uint32(cfg.Filter.Cells))
	b = appendU16(b, uint16(cfg.Filter.Hashes))
	b = appendI64(b, st.WarmEnd)
	b = appendI64(b, st.Packets)
	b = appendF64(b, st.Total.V)
	b = appendI64(b, st.Total.Touch)

	b = appendU32(b, uint32(len(st.Active))) // State sorts by (level, key)
	for _, e := range st.Active {
		b = appendU64(b, e.Key)
		b = appendU16(b, uint16(e.Level))
		b = appendI64(b, e.At)
	}

	b = appendU16(b, uint16(len(st.Filters)))
	return endFrame(s.appendLevels(b, st.Filters))
}
