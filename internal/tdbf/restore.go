// Serialization seams for the time-decaying structures: read-only state
// views and validated in-place restores used by the internal/wire codec.
// A restore rebuilds the exact cell contents, so a restored filter is
// merge- and estimate-equivalent to the one that was serialized; it
// validates instead of panicking because its input ultimately comes off
// the network.

package tdbf

import "fmt"

// FilterState is the serializable state of a Filter beyond its shape: the
// input of Filter.Restore. The way out of a live filter is its accessors,
// Lines and Line.
type FilterState struct {
	Seed uint64
	Adds int64
	// Landmark is the instant the masses are scaled to; NoLandmark only if
	// there are none.
	Landmark int64
	// Next yields the non-zero cells — index and scaled mass — in strictly
	// increasing index order, ok false after the last. Restore pulls them
	// one at a time, so a decoder can read them off its input straight
	// into the filter.
	Next func() (i int, v float64, ok bool)
	// Occupied, unless zero, is how many cells Next yields: a restore that
	// takes another number fails.
	Occupied int
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

// Restore replaces the filter's contents with serialized state, in place.
// The seed must be the filter's own and masses finite and positive; masses
// scaled to another landmark than the Base's are brought to the later of
// the two, as Merge would. On error the filter is partly written and must
// be Reset or discarded.
func (f *Filter) Restore(st FilterState) error {
	if st.Seed != f.seed {
		return fmt.Errorf("tdbf: restore: seed %#x, filter has %#x", st.Seed, f.seed)
	}
	if st.Adds < 0 {
		return fmt.Errorf("tdbf: restore: negative add count %d", st.Adds)
	}
	if !validLandmark(st.Landmark) {
		return fmt.Errorf("tdbf: restore: landmark %d out of range", st.Landmark)
	}
	f.Reset()
	f.adds = uint64(st.Adds)
	k := f.base.align(st.Landmark)
	// The cells come in ascending order into a filter holding none: each is
	// set, and a line taken as the first of its cells arrives.
	l, held := &f.pool[0], -1
	for prev, n := -1, 0; ; n++ {
		switch i, v, ok := st.Next(); {
		case !ok && st.Occupied != 0 && n != st.Occupied:
			return fmt.Errorf("tdbf: restore: %d occupied cells, %d declared", n, st.Occupied)
		case !ok:
			return nil
		case i <= prev || i >= f.cells:
			return fmt.Errorf("tdbf: restore: cell index %d after %d in %d cells", i, prev, f.cells)
		case !validMass(v) || v == 0 || st.Landmark == NoLandmark:
			return fmt.Errorf("tdbf: restore: invalid mass %v in cell %d (landmark %d)", v, i, st.Landmark)
		case v*k == 0: // rescaled to nothing
			prev = i
		default:
			if j := i / LineCells; j != held && len(f.pool) < cap(f.pool) {
				f.dir[j] = uint32(len(f.pool))
				f.pool = append(f.pool, line{})
				l, held = &f.pool[f.dir[j]], j
			} else if j != held {
				l, held = &f.pool[f.take(uint64(j))], j
			}
			l[i%LineCells] = v * k
			f.occ++
			prev = i
		}
	}
}

// RestoreHashed restores a direct-addressed filter from the state of the
// hashed filter of shape cfg that stood at its level before levels were
// sized to their key spaces. Key i of the level is fixed | i<<shift, and
// its cell takes the minimum of the k cells the hashed filter gave it:
// every estimate of the level is preserved exactly.
func (f *Filter) RestoreHashed(st FilterState, cfg Config, fixed uint64) error {
	if st.Seed != f.seed {
		return fmt.Errorf("tdbf: restore: seed %#x, filter has %#x", st.Seed, f.seed)
	}
	cfg.Seed, cfg.Decay = st.Seed, f.base.law
	src := New(cfg)
	if err := src.Restore(st); err != nil {
		return err
	}
	f.Reset()
	f.adds = uint64(st.Adds)
	k := f.base.align(st.Landmark)
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
