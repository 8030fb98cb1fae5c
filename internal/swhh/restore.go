// Serialization seams for the sliding engines: read-only state views and
// validated restore constructors, the basis of the internal/wire codec.
// Restores rebuild the exact internal layout (frame clocks, dense entry
// tables, key indexes), so a restored summary is merge- and
// query-equivalent to the one that was serialized; unlike the
// constructors and Merge they validate instead of panicking, because
// their inputs ultimately come off the network.

package swhh

import (
	"fmt"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/sketch"
)

// FrameUninit is the exported sentinel for a frame clock that has never
// advanced (see frameUninit); wire codecs transport it verbatim.
const FrameUninit = frameUninit

// SlidingState is the serializable state of a flat Sliding summary: the
// global index of the frame currently filling plus the ring of per-frame
// summaries and exact totals (Frames+1 slots, slot = frame mod ring).
// The slices returned by State view live storage — treat as read-only.
type SlidingState struct {
	CurFrame int64
	Frames   []*sketch.SpaceSaving
	Totals   []int64
}

// Config returns the summary's configuration (defaults applied).
func (s *Sliding) Config() Config { return s.cfg }

// State returns a read-only view of the summary's serializable state.
func (s *Sliding) State() SlidingState {
	return SlidingState{CurFrame: s.curFrame, Frames: s.frames, Totals: s.totals}
}

// RestoreClock sets the frame clock of a summary that is being restored
// slot by slot (see RestoreSlot); the slots themselves are not touched.
func (s *Sliding) RestoreClock(curFrame int64) { s.curFrame = curFrame }

// RestoreSlot replaces ring slot i in place, allocating only to grow the
// slot's table to n entries, with serialized state: the slot's exact
// total and its Space-Saving summary (stream total and n entries,
// entry(e) yielding the e-th; see sketch.SpaceSaving.Restore, which
// validates them). The clock must have been restored first: under an
// uninitialised clock only an empty slot is valid. On error the slot is
// left empty.
func (s *Sliding) RestoreSlot(i int, frameTotal, total int64, n int, entry func(e int) sketch.KV) error {
	s.clearSlot(i)
	if frameTotal < 0 {
		return fmt.Errorf("swhh: restore: negative frame total at slot %d", i)
	}
	if s.curFrame == frameUninit && (n != 0 || frameTotal != 0) {
		return fmt.Errorf("swhh: restore: uninitialised frame clock with non-empty slot %d", i)
	}
	if err := s.frames[i].Restore(total, n, entry); err != nil {
		return fmt.Errorf("swhh: restore: slot %d: %w", i, err)
	}
	s.totals[i] = frameTotal
	if s.restored == nil {
		s.restored = make([]uint64, len(s.vers))
		for j := range s.restored {
			s.restored[j] = s.vers[j] - 1 // matches nothing yet
		}
	}
	s.restored[i] = s.vers[i]
	return nil
}

// Restored reports whether slot i still holds exactly what the last
// RestoreSlot put there: nothing has written, expired or cleared it since.
func (s *Sliding) Restored(i int) bool {
	return s.restored != nil && s.restored[i] == s.vers[i]
}

// Sealed reports whether slot i still holds exactly what it held at the
// last MarkSealed: a delta seal leaves such a slot out.
func (s *Sliding) Sealed(i int) bool {
	return s.sealed != nil && s.sealed[i] == s.vers[i]
}

// MarkSealed records every ring slot as sealed at its current write
// version: the sender's side of a delta chain, called per frame encoded.
func (d *SlidingHHH) MarkSealed() {
	for _, lv := range d.levels {
		lv.sealed = append(lv.sealed[:0], lv.vers...)
	}
}

// Hierarchy returns the configured hierarchy.
func (d *SlidingHHH) Hierarchy() addr.Hierarchy { return d.h }

// Config returns the per-level summary configuration (defaults applied).
func (d *SlidingHHH) Config() Config { return d.levels[0].cfg }

// LevelSummary returns level l's flat summary for serialization and
// slot-by-slot restore, with any pending block applied. The returned
// summary is the live one.
func (d *SlidingHHH) LevelSummary(l int) *Sliding {
	d.settle()
	return d.levels[l]
}

// MementoState is the serializable state of a flat Memento summary: the
// frame clock and eviction cursor plus the dense entry table (the first
// len(Keys) entries, with the flattened entry-major frame-cell matrix)
// and the exact per-frame totals ring. The slices returned by State view
// live storage — treat as read-only.
type MementoState struct {
	CurFrame int64
	Cursor   int
	Keys     []uint64
	Counts   []int64
	Errs     []int64
	Cells    []int64 // entry-major, len(Keys) × ring
	Totals   []int64 // ring (Frames+1 slots)
}

// Config returns the summary's configuration (defaults applied).
func (m *Memento) Config() Config { return m.cfg }

// State returns a read-only view of the summary's serializable state.
func (m *Memento) State() MementoState {
	return MementoState{
		CurFrame: m.curFrame,
		Cursor:   m.cursor,
		Keys:     m.keys[:m.n],
		Counts:   m.counts[:m.n],
		Errs:     m.errs[:m.n],
		Cells:    m.cells[:int64(m.n)*m.ring],
		Totals:   m.totals,
	}
}

// RestoreMemento rebuilds a flat Memento summary from cfg and serialized
// state, reconstructing the key index. Entry invariants are enforced:
// each windowed count must be positive and equal the sum of its frame
// cells, error slop must lie in [0, count], keys must be unique, and an
// uninitialised frame clock requires an empty table.
func RestoreMemento(cfg Config, st MementoState) (*Memento, error) {
	m, err := NewMemento(cfg)
	if err != nil {
		return nil, err
	}
	n := len(st.Keys)
	if n > len(m.keys) {
		return nil, fmt.Errorf("swhh: restore: %d entries exceed capacity %d", n, len(m.keys))
	}
	if len(st.Counts) != n || len(st.Errs) != n || len(st.Cells) != int(int64(n)*m.ring) {
		return nil, fmt.Errorf("swhh: restore: entry column lengths disagree (%d keys, %d counts, %d errs, %d cells)",
			n, len(st.Counts), len(st.Errs), len(st.Cells))
	}
	if len(st.Totals) != len(m.totals) {
		return nil, fmt.Errorf("swhh: restore: totals ring %d != configured ring %d", len(st.Totals), len(m.totals))
	}
	if st.Cursor < 0 || st.Cursor > len(m.keys) {
		return nil, fmt.Errorf("swhh: restore: cursor %d out of range", st.Cursor)
	}
	for i, t := range st.Totals {
		if t < 0 {
			return nil, fmt.Errorf("swhh: restore: negative frame total at slot %d", i)
		}
		if st.CurFrame == frameUninit && t != 0 {
			return nil, fmt.Errorf("swhh: restore: uninitialised frame clock with non-empty slot %d", i)
		}
	}
	if st.CurFrame == frameUninit && n != 0 {
		return nil, fmt.Errorf("swhh: restore: uninitialised frame clock with %d entries", n)
	}
	for e := 0; e < n; e++ {
		var sum int64
		for s := int64(0); s < m.ring; s++ {
			c := st.Cells[int64(e)*m.ring+s]
			if c < 0 {
				return nil, fmt.Errorf("swhh: restore: negative cell for entry %d slot %d", e, s)
			}
			sum = sketch.AddSat(sum, c)
		}
		if st.Counts[e] <= 0 || st.Counts[e] != sum {
			return nil, fmt.Errorf("swhh: restore: entry %d count %d does not match cell sum %d", e, st.Counts[e], sum)
		}
		if st.Errs[e] < 0 || st.Errs[e] > st.Counts[e] {
			return nil, fmt.Errorf("swhh: restore: entry %d error slop %d out of [0, %d]", e, st.Errs[e], st.Counts[e])
		}
		if m.find(st.Keys[e]) >= 0 {
			return nil, fmt.Errorf("swhh: restore: duplicate key %#x", st.Keys[e])
		}
		m.keys[e] = st.Keys[e]
		m.counts[e] = st.Counts[e]
		m.errs[e] = st.Errs[e]
		m.idxInsert(st.Keys[e], e)
		m.n = e + 1
	}
	copy(m.cells, st.Cells)
	copy(m.totals, st.Totals)
	m.cursor = st.Cursor
	m.curFrame = st.CurFrame
	return m, nil
}

// MementoHHHState is the serializable state of the hierarchical wrapper:
// the level-sampling splitmix64 state, the wrapper's exact totals ring
// with its frame clock, and the per-level tables. The slices returned by
// State view live storage — treat as read-only.
type MementoHHHState struct {
	Sampler  uint64
	CurFrame int64
	Totals   []int64
	Levels   []*Memento
}

// Hierarchy returns the configured hierarchy.
func (d *MementoHHH) Hierarchy() addr.Hierarchy { return d.h }

// Config returns the per-level summary configuration (defaults applied).
func (d *MementoHHH) Config() Config { return d.levels[0].cfg }

// State returns a read-only view of the detector's serializable state.
func (d *MementoHHH) State() MementoHHHState {
	return MementoHHHState{Sampler: d.rng, CurFrame: d.curFrame, Totals: d.totals, Levels: d.levels}
}

// RestoreMementoHHH rebuilds a level-sampled Memento HHH detector from
// the hierarchy, the shared Config, and serialized state. Per-level
// tables are adopted (typically from RestoreMemento) and must share the
// configured frame geometry.
func RestoreMementoHHH(h addr.Hierarchy, cfg Config, st MementoHHHState) (*MementoHHH, error) {
	d, err := NewMementoHHH(h, cfg, 0)
	if err != nil {
		return nil, err
	}
	if len(st.Levels) != len(d.levels) {
		return nil, fmt.Errorf("swhh: restore: %d level tables for %d-level hierarchy %v",
			len(st.Levels), len(d.levels), h)
	}
	if len(st.Totals) != len(d.totals) {
		return nil, fmt.Errorf("swhh: restore: totals ring %d != configured ring %d", len(st.Totals), len(d.totals))
	}
	for i, t := range st.Totals {
		if t < 0 {
			return nil, fmt.Errorf("swhh: restore: negative frame total at slot %d", i)
		}
		if st.CurFrame == frameUninit && t != 0 {
			return nil, fmt.Errorf("swhh: restore: uninitialised frame clock with non-empty slot %d", i)
		}
	}
	capN := len(d.levels[0].keys)
	for l, lv := range st.Levels {
		if lv == nil {
			return nil, fmt.Errorf("swhh: restore: nil table at level %d", l)
		}
		if lv.frameNs != d.frameNs || lv.ring != d.ring || len(lv.keys) != capN {
			return nil, fmt.Errorf("swhh: restore: level %d geometry differs from config", l)
		}
		d.levels[l] = lv
	}
	d.rng = st.Sampler
	d.curFrame = st.CurFrame
	copy(d.totals, st.Totals)
	return d, nil
}
