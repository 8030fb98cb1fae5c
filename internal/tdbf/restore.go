// Serialization seams for the time-decaying structures: read-only state
// views and validated in-place restores used by the internal/wire codec.
// A restore rebuilds the exact cell contents, so a restored filter is
// merge- and estimate-equivalent to the one that was serialized; it
// validates instead of panicking because its input ultimately comes off
// the network.

package tdbf

import (
	"fmt"
	"math"
)

// FilterState is the serializable state of a Filter beyond its shape and
// its cells: the input of Filter.Restore, whose writer takes the cells. The
// way out of a live filter is its accessors, Lines and Line.
type FilterState struct {
	Seed uint64
	Adds int64
	// Landmark is the instant the masses are scaled to; NoLandmark only if
	// there are none.
	Landmark int64
}

// Seed returns the hash-family seed, needed to serialize the filter and
// to verify that two filters are merge-compatible.
func (f *Filter) Seed() uint64 { return f.seed }

// Landmark returns the instant the filter's masses are scaled to.
func (f *Filter) Landmark() int64 { return f.base.land }

// Occupied returns the number of non-zero cells, which the filter keeps.
func (f *Filter) Occupied() int { return f.occ }

// validLandmark reports whether l is an instant a Base can stand at.
func validLandmark(l int64) bool { return l == NoLandmark || (l >= -maxTime && l <= maxTime) }

// Restore replaces the filter's contents with serialized state, in place:
// it checks st, clears the filter and returns the writer its non-zero cells
// go in through, so that a decoder writes them straight off its input. The
// seed must be the filter's own; masses scaled to another landmark than the
// Base's are brought to the later of the two, as Merge would. On error,
// Restore's or a write's, the filter is partly written and must be Reset or
// discarded.
func (f *Filter) Restore(st FilterState) (CellWriter, error) {
	switch {
	case st.Seed != f.seed:
		return CellWriter{}, fmt.Errorf("tdbf: restore: seed %#x, filter has %#x", st.Seed, f.seed)
	case st.Adds < 0:
		return CellWriter{}, fmt.Errorf("tdbf: restore: negative add count %d", st.Adds)
	case !validLandmark(st.Landmark):
		return CellWriter{}, fmt.Errorf("tdbf: restore: landmark %d out of range", st.Landmark)
	}
	f.Reset()
	f.adds = uint64(st.Adds)
	return CellWriter{f: f, k: f.base.align(st.Landmark), land: st.Landmark, prev: -1}, nil
}

// CellWriter writes the non-zero cells of a filter Restore cleared, in
// strictly increasing index order.
type CellWriter struct {
	f       *Filter
	k       float64 // brings a mass to the Base's landmark
	land    int64
	prev, n int // the last index written, and the cells written
}

// Set writes cell i, past the last one written, of mass v scaled to the
// state's landmark: finite and positive, and a state with no landmark
// takes none.
func (w *CellWriter) Set(i int, v float64) error {
	if i <= w.prev || i >= w.f.cells {
		return fmt.Errorf("tdbf: restore: cell index %d after %d in %d cells", i, w.prev, w.f.cells)
	}
	if !(v > 0 && v <= math.MaxFloat64) || w.land == NoLandmark {
		return fmt.Errorf("tdbf: restore: invalid mass %v in cell %d (landmark %d)", v, i, w.land)
	}
	w.prev, w.n = i, w.n+1
	if v *= w.k; v != 0 { // else rescaled to nothing
		w.f.add(uint64(i), v)
	}
	return nil
}

// Close holds the cells written to n, the number the state declared.
func (w *CellWriter) Close(n int) error {
	if w.n != n {
		return fmt.Errorf("tdbf: restore: %d occupied cells, %d declared", w.n, n)
	}
	return nil
}

// RestoreHashed restores a direct-addressed filter from src, the hashed
// filter that stood at its level before levels were sized to their key
// spaces, restored of its state: key i of the level is fixed | i<<shift,
// and its cell takes the minimum of the k cells src gives it, so every
// estimate of the level is preserved exactly.
func (f *Filter) RestoreHashed(src *Filter, fixed uint64) error {
	if src.seed != f.seed {
		return fmt.Errorf("tdbf: restore: seed %#x, filter has %#x", src.seed, f.seed)
	}
	f.Reset()
	f.adds = src.adds
	k := f.base.align(src.Landmark())
	for i := range f.cells {
		if v := src.read(fixed|uint64(i)<<f.shift) * k; v != 0 {
			f.add(uint64(i), v)
		}
	}
	return nil
}

// MassState is the serializable state of a MassTracker: its mass V scaled
// to the landmark Touch.
type MassState struct {
	V     float64
	Touch int64
}

// State returns the tracker's serializable state.
func (t *MassTracker) State() MassState { return MassState{V: t.v[0], Touch: t.base.land} }

// Restore replaces the tracker's mass with serialized state, the
// single-cell case of Filter.Restore; the mass must be finite and
// non-negative.
func (t *MassTracker) Restore(st MassState) error {
	if !validMass(st.V) || !validLandmark(st.Touch) || (st.V != 0 && st.Touch == NoLandmark) {
		return fmt.Errorf("tdbf: restore: invalid mass %v (landmark %d)", st.V, st.Touch)
	}
	t.v[0] = st.V * t.base.align(st.Touch)
	return nil
}
