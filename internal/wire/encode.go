package wire

import (
	"encoding/binary"
	"fmt"
	"math"
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
	case *hhh.RHHH:
		return EncodeRHHH(s), nil
	case *swhh.SlidingHHH:
		return EncodeSliding(s), nil
	case *swhh.MementoHHH:
		return EncodeMemento(s), nil
	case *tdbf.Filter:
		return EncodeFilter(s)
	case *continuous.Detector:
		return EncodeContinuous(s)
	default:
		return nil, fmt.Errorf("wire: cannot encode %T", v)
	}
}

// appendSpaceSaving writes the shared Space-Saving sub-payload:
// capacity, stream total, entry count, then the entries in the
// summary's canonical node order.
func appendSpaceSaving(b []byte, s *sketch.SpaceSaving) []byte {
	b = appendU32(b, uint32(s.Capacity()))
	b = appendI64(b, s.Total())
	b = appendU32(b, uint32(s.Len()))
	s.ForEachTracked(func(key uint64, count, errUB int64) {
		b = appendU64(b, key)
		b = appendI64(b, count)
		b = appendI64(b, errUB)
	})
	return b
}

// EncodeSpaceSaving frames a bare Space-Saving summary (KindSpaceSaving,
// no hierarchy descriptor).
func EncodeSpaceSaving(s *sketch.SpaceSaving) []byte {
	return frameFor(KindSpaceSaving, 0, 0, 0, appendSpaceSaving(nil, s))
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
	payload := appendU32(nil, uint32(len(kvs)))
	for _, kv := range kvs {
		payload = appendU64(payload, kv.Key)
		payload = appendI64(payload, kv.Count)
	}
	fam, step, depth := describe(h)
	return frameFor(KindExact, fam, step, depth, payload)
}

// EncodePerLevel frames a PerLevel windowed HHH engine (KindPerLevel).
func EncodePerLevel(p *hhh.PerLevel) []byte {
	h := p.Hierarchy()
	levels := h.Levels()
	payload := appendI64(nil, p.Total())
	payload = appendU16(payload, uint16(levels))
	for l := 0; l < levels; l++ {
		payload = appendSpaceSaving(payload, p.LevelSummary(l))
	}
	fam, step, depth := describe(h)
	return frameFor(KindPerLevel, fam, step, depth, payload)
}

// EncodeRHHH frames an RHHH windowed HHH engine (KindRHHH), including
// the level-sampler state so a restored engine could keep ingesting
// deterministically.
func EncodeRHHH(r *hhh.RHHH) []byte {
	h := r.Hierarchy()
	levels := h.Levels()
	payload := appendI64(nil, r.Total())
	payload = appendI64(payload, r.Updates())
	payload = appendU64(payload, r.Sampler())
	payload = appendU16(payload, uint16(levels))
	for l := 0; l < levels; l++ {
		payload = appendSpaceSaving(payload, r.LevelSummary(l))
	}
	fam, step, depth := describe(h)
	return frameFor(KindRHHH, fam, step, depth, payload)
}

// EncodeSliding frames a WCSS sliding HHH engine (KindSliding): the
// shared frame geometry, then per level the frame clock and the ring of
// (exact frame total, frame summary) pairs in slot order.
func EncodeSliding(d *swhh.SlidingHHH) []byte {
	h := d.Hierarchy()
	cfg := d.Config()
	levels := h.Levels()
	payload := appendI64(nil, int64(cfg.Window))
	payload = appendU16(payload, uint16(cfg.Frames))
	payload = appendU32(payload, uint32(cfg.Counters))
	payload = appendU16(payload, uint16(levels))
	for l := 0; l < levels; l++ {
		st := d.LevelSummary(l).State()
		payload = appendI64(payload, st.CurFrame)
		for i := range st.Frames {
			payload = appendI64(payload, st.Totals[i])
			payload = appendSpaceSaving(payload, st.Frames[i])
		}
	}
	fam, step, depth := describe(h)
	return frameFor(KindSliding, fam, step, depth, payload)
}

// EncodeMemento frames a level-sampled Memento sliding HHH engine
// (KindMemento): the shared geometry and sampler, the wrapper's exact
// totals ring, then per level the aged table columns and frame-cell
// matrix.
func EncodeMemento(d *swhh.MementoHHH) []byte {
	h := d.Hierarchy()
	cfg := d.Config()
	st := d.State()
	payload := appendI64(nil, int64(cfg.Window))
	payload = appendU16(payload, uint16(cfg.Frames))
	payload = appendU32(payload, uint32(cfg.Counters))
	payload = appendU64(payload, st.Sampler)
	payload = appendI64(payload, st.CurFrame)
	for _, t := range st.Totals {
		payload = appendI64(payload, t)
	}
	payload = appendU16(payload, uint16(len(st.Levels)))
	for _, lv := range st.Levels {
		ls := lv.State()
		payload = appendI64(payload, ls.CurFrame)
		payload = appendU32(payload, uint32(ls.Cursor))
		payload = appendU32(payload, uint32(len(ls.Keys)))
		for _, t := range ls.Totals {
			payload = appendI64(payload, t)
		}
		for e := range ls.Keys {
			payload = appendU64(payload, ls.Keys[e])
			payload = appendI64(payload, ls.Counts[e])
			payload = appendI64(payload, ls.Errs[e])
		}
		for _, cell := range ls.Cells {
			payload = appendI64(payload, cell)
		}
	}
	fam, step, depth := describe(h)
	return frameFor(KindMemento, fam, step, depth, payload)
}

// appendDecay writes the tagged decay-law descriptor. Only the two
// stock laws serialize; a custom Decay implementation returns an error.
func appendDecay(b []byte, d tdbf.Decay) ([]byte, error) {
	switch v := d.(type) {
	case tdbf.Exponential:
		b = append(b, decayExponential)
		return appendI64(b, int64(v.Tau)), nil
	case tdbf.LeakyLinear:
		b = append(b, decayLeaky)
		return appendF64(b, v.Rate), nil
	default:
		return nil, fmt.Errorf("wire: decay law %q does not serialize", d.String())
	}
}

// Decay-law descriptor tags (wire format, fixed forever).
const (
	decayExponential = 1 // param: tau as int64 nanoseconds
	decayLeaky       = 2 // param: drain rate as float64 per second
)

// Payload sizes of the filter-backed kinds, known from shape × levels:
// the frame is allocated once at its final size and the cells — all but
// a few dozen bytes of it — are written straight into it.
const (
	decaySize        = 1 + 8         // tag, parameter
	filterHeaderSize = 4 + 2 + 8 + 8 // cells, hashes, seed, adds
	// configuration, filter shape and detector state, the two counts
	continuousHeaderSize = 8 + 8 + 1 + 8 + 8 + 8 + decaySize + 4 + 2 + 8 + 8 + 8 + 8 + 4 + 2
	activeRowSize        = 8 + 2 + 8 // key, level, activation timestamp
	levelHeaderSize      = 8 + 8     // seed, adds
	cellSize             = 8 + 8     // mass, touch timestamp
)

// appendCells writes f's cell array, 16 bytes per cell.
func appendCells(b []byte, f *tdbf.Filter) []byte {
	f.ForEachCell(func(v float64, touch int64) {
		b = appendF64(b, v)
		b = appendI64(b, touch)
	})
	return b
}

// EncodeFilter frames a bare time-decaying Bloom filter (KindFilter, no
// hierarchy descriptor). Returns an error for decay laws outside the
// two stock ones, which have no wire representation.
func EncodeFilter(f *tdbf.Filter) ([]byte, error) {
	b := beginFrame(KindFilter, 0, 0, 0, decaySize+filterHeaderSize+f.Cells()*cellSize)
	b, err := appendDecay(b, f.Decay())
	if err != nil {
		return nil, err
	}
	b = appendU32(b, uint32(f.Cells()))
	b = appendU16(b, uint16(f.Hashes()))
	b = appendU64(b, f.Seed())
	b = appendI64(b, f.Adds())
	return endFrame(appendCells(b, f)), nil
}

// EncodeContinuous frames a continuous detector (KindContinuous): its
// full configuration (so the receiver rebuilds an identically derived
// detector), the warmup anchor and mass tracker, the active set sorted
// by (level, key) for determinism, then the per-level filter columns.
func EncodeContinuous(d *continuous.Detector) ([]byte, error) {
	cfg := d.Config()
	st := d.State()
	var cflags byte
	if cfg.Sampled {
		cflags |= 1
	}
	if st.Started {
		cflags |= 2
	}
	// Shape comes from the live filters, not cfg.Filter: the stored config
	// may hold zeros that tdbf.New resolved to defaults at construction.
	cells, hashes := st.Filters[0].Cells(), st.Filters[0].Hashes()
	fam, step, depth := describe(cfg.Hierarchy)
	b := beginFrame(KindContinuous, fam, step, depth, continuousHeaderSize+
		len(st.Active)*activeRowSize+len(st.Filters)*(levelHeaderSize+cells*cellSize))
	b = appendF64(b, cfg.Phi)
	b = appendF64(b, cfg.ExitRatio)
	b = append(b, cflags)
	b = appendU64(b, cfg.Seed)
	b = appendI64(b, int64(cfg.Warmup))
	b = appendU64(b, d.Sampler())
	b, err := appendDecay(b, cfg.Filter.Decay)
	if err != nil {
		return nil, err
	}
	b = appendU32(b, uint32(cells))
	b = appendU16(b, uint16(hashes))
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
		b = appendU64(b, f.Seed())
		b = appendI64(b, f.Adds())
		b = appendCells(b, f)
	}
	return endFrame(b), nil
}
