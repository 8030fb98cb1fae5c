// Serialization seams for the time-decaying structures: read-only state
// views and validated restore constructors used by the internal/wire
// codec. Restores rebuild the exact cell contents, so a restored filter
// is merge- and estimate-equivalent to the one that was serialized; they
// validate instead of panicking because their inputs ultimately come off
// the network.

package tdbf

import (
	"fmt"
	"math"
)

// FilterState is the serializable state of a Filter: its shape and seed
// plus a reader of the cells. The decay law travels separately (it is an
// interface; wire encodes it as a tagged descriptor). It is the input of
// RestoreFilter; the way out of a live filter is its accessors and
// ForEachCell.
type FilterState struct {
	Cells  int
	Hashes int
	Seed   uint64
	Adds   int64
	// Cell yields cell i's decayed mass and the ns timestamp of its last
	// decay application. RestoreFilter calls it once per cell, in index
	// order, so a decoder can read the cells off its input straight into
	// the filter.
	Cell func(i int) (v float64, touch int64)
}

// Seed returns the hash-family seed, needed to serialize the filter and
// to verify that two filters are merge-compatible.
func (f *Filter) Seed() uint64 { return f.seed }

// ForEachCell calls fn with every cell's mass and touch timestamp, in
// cell-index order — the read-only view serializers write a frame from
// without a column copy in between.
func (f *Filter) ForEachCell(fn func(v float64, touch int64)) {
	for _, c := range f.cells {
		fn(c.v, c.touch)
	}
}

// RestoreFilter rebuilds a filter from a decay law and serialized state.
// Cell masses must be finite and non-negative.
func RestoreFilter(d Decay, st FilterState) (*Filter, error) {
	if d == nil {
		return nil, fmt.Errorf("tdbf: restore: decay law required")
	}
	if st.Cells < 1 || st.Hashes < 1 {
		return nil, fmt.Errorf("tdbf: restore: invalid shape (%d cells, %d hashes)", st.Cells, st.Hashes)
	}
	if st.Adds < 0 {
		return nil, fmt.Errorf("tdbf: restore: negative add count %d", st.Adds)
	}
	f := &Filter{
		cells: make([]cell, st.Cells),
		k:     st.Hashes,
		seed:  st.Seed,
		decay: d,
		shape: shapeOf(st.Cells, d),
		adds:  st.Adds,
	}
	for i := range f.cells {
		v, touch := st.Cell(i)
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, fmt.Errorf("tdbf: restore: invalid mass %v in cell %d", v, i)
		}
		f.cells[i] = cell{v: v, touch: touch}
	}
	return f, nil
}

// MassState is the serializable state of a MassTracker.
type MassState struct {
	V     float64
	Touch int64
}

// State returns the tracker's serializable state.
func (t *MassTracker) State() MassState { return MassState{V: t.v, Touch: t.touch} }

// RestoreMassTracker rebuilds a tracker from a decay law and serialized
// state; the mass must be finite and non-negative.
func RestoreMassTracker(d Decay, st MassState) (*MassTracker, error) {
	if d == nil {
		return nil, fmt.Errorf("tdbf: restore: decay law required")
	}
	if math.IsNaN(st.V) || math.IsInf(st.V, 0) || st.V < 0 {
		return nil, fmt.Errorf("tdbf: restore: invalid mass %v", st.V)
	}
	return &MassTracker{decay: d, law: d.String(), v: st.V, touch: st.Touch}, nil
}
