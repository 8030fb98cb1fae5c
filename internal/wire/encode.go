package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

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
	width := func(v uint64) uint8 { return uint8(bits.Len64(v)+7) / 8 }
	shift := uint8(bits.TrailingZeros64(keys) & 63) // 0 when every key is 0
	return ssCols{shift, width(keys >> shift), max(width(counts), 1), width(errs)}
}

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
// number of occupied cells are known before the first byte is written: the
// frame is allocated once at its final size and the cells — all but a few
// dozen bytes of it — are written straight into it.
const (
	decaySize        = 1 + 8 // tag, parameter
	filterHeaderSize = 4 + 2 // cells, hashes
	// configuration, filter shape and detector state, the two counts
	continuousHeaderSize = 8 + 8 + 1 + 8 + 8 + 8 + decaySize + 4 + 2 + 8 + 8 + 8 + 8 + 4 + 2
	activeRowSize        = 8 + 2 + 8     // key, level, activation timestamp
	levelHeaderSize      = 8 + 8 + 8 + 4 // seed, adds, landmark, occupied count
	sparseRowSize        = 4 + 8         // cell index, mass
	denseCellSize        = 8             // mass
	v1CellSize           = 8 + 8         // mass, touch timestamp (version 1)
)

// sparse reports whether a column of cells cells, occupied of them
// non-zero, is written as sparse rows: whichever layout is smaller, dense
// on a tie.
func sparse(occupied, cells int) bool {
	return int64(occupied)*sparseRowSize < int64(cells)*denseCellSize
}

// levelSize is the encoded size of one filter's section.
func levelSize(occupied, cells int) int {
	if sparse(occupied, cells) {
		return levelHeaderSize + occupied*sparseRowSize
	}
	return levelHeaderSize + cells*denseCellSize
}

// appendLevel writes f's section: seed, add count, then the cells as the
// landmark, the occupied count and the layout that count selects. Sparse
// rows are read off the filter's held lines, in ascending line order.
func appendLevel(b []byte, f *tdbf.Filter) []byte {
	cells := f.Cells()
	b = appendU64(b, f.Seed())
	b = appendI64(b, f.Adds())
	b = appendI64(b, f.Landmark())
	b = appendU32(b, uint32(f.Occupied()))
	if !sparse(f.Occupied(), cells) {
		for i := 0; i < cells; i++ {
			b = appendF64(b, f.Line(i / tdbf.LineCells)[i%tdbf.LineCells])
		}
		return b
	}
	for w := 0; w*64*tdbf.LineCells < cells; w++ {
		for m := f.Lines(w); m != 0; m &= m - 1 {
			j := w*64 + bits.TrailingZeros64(m)
			for i, v := range f.Line(j) {
				if v != 0 {
					b = appendF64(appendU32(b, uint32(j*tdbf.LineCells+i)), v)
				}
			}
		}
	}
	return b
}

// EncodeFilter frames a bare time-decaying Bloom filter (KindFilter, no
// hierarchy descriptor).
func EncodeFilter(f *tdbf.Filter) []byte {
	b := beginFrame(KindFilter, 0, 0, 0, decaySize+filterHeaderSize+levelSize(f.Occupied(), f.Cells()))
	b = appendDecay(b, f.Decay())
	b = appendU32(b, uint32(f.Cells()))
	b = appendU16(b, uint16(f.Hashes()))
	return endFrame(appendLevel(b, f))
}

// EncodeContinuous frames a continuous detector (KindContinuous): its
// full configuration (so the receiver rebuilds an identically derived
// detector), the warmup anchor and mass tracker, the active set sorted
// by (level, key) for determinism, then the per-level filter columns, each
// sized to its own level's cells.
func EncodeContinuous(d *continuous.Detector) []byte {
	cfg := d.Config()
	st := d.State()
	var cflags byte
	if cfg.Sampled {
		cflags |= 1
	}
	if st.Started {
		cflags |= 2
	}
	size := continuousHeaderSize + len(st.Active)*activeRowSize
	for _, f := range st.Filters {
		size += levelSize(f.Occupied(), f.Cells())
	}
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
	for _, f := range st.Filters {
		b = appendLevel(b, f)
	}
	return endFrame(b)
}
