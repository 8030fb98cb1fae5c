// Serialization seam for the continuous detector: a read-only state
// view and a validated in-place restore used by the internal/wire codec.
// A restored detector is merge- and query-equivalent to the one that was
// serialized; unlike Merge the restore validates instead of panicking,
// because its inputs ultimately come off the network.

package continuous

import (
	"fmt"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/tdbf"
)

// ActiveEntry is one currently active HHH prefix — its hierarchy level
// and packed level key (addr.Hierarchy.PrefixOfKey rebuilds the prefix)
// — with its activation timestamp: the serializable form of the
// detector's active set.
type ActiveEntry struct {
	Level int
	Key   uint64
	At    int64
}

// State is the serializable state of a Detector: the warmup anchor, the
// packet count, the decayed total-mass tracker, the active set, and the
// per-level filters. The filter pointers returned by State view live
// storage — treat as read-only.
type State struct {
	Started bool
	WarmEnd int64
	Packets int64
	Total   tdbf.MassState
	Active  []ActiveEntry
	Filters []*tdbf.Filter
	// Hashed, on the way in (Restore), says the state predates levels sized
	// to their prefix spaces: every level's is a hashed filter's.
	Hashed bool
}

// Config returns the detector's configuration (defaults applied, those of
// the hashed levels' shape included: Filter.Cells and Filter.Hashes). Note
// it carries the OnEnter/OnExit callbacks, which do not serialize.
func (d *Detector) Config() Config { return d.cfg }

// Filters returns the per-level filters, live: treat as read-only.
func (d *Detector) Filters() []*tdbf.Filter { return d.filters }

// Sampler returns the splitmix64 level-sampling state (meaningful only
// when Config.Sampled is set).
func (d *Detector) Sampler() uint64 { return d.rng }

// State settles the block and returns a view of the detector's
// serializable state. The active set is copied, sorted by (level, key); the
// filters are the live ones.
func (d *Detector) State() State { return d.StateInto(make([]ActiveEntry, 0, len(d.act.nodes))) }

// StateInto is State copying the active set into buf's storage, grown as
// it needs: a caller that keeps the slice it gets back copies without
// allocating.
func (d *Detector) StateInto(buf []ActiveEntry) State {
	d.settle(false)
	st := State{
		Started: d.started,
		WarmEnd: d.warmEnd,
		Packets: d.Packets(),
		Total:   d.total.State(),
		Active:  buf[:0],
		Filters: d.filters,
	}
	for _, n := range d.act.nodes {
		st.Active = append(st.Active, ActiveEntry{Level: int(n.level), Key: n.key, At: n.at})
	}
	return st
}

// Fits reports whether d has the configuration cfg spells out — callbacks
// aside, which do not serialize — and so whether a frame sealed under cfg
// can be restored into d in place.
func (d *Detector) Fits(cfg Config) bool {
	c := &d.cfg
	return c.Hierarchy == cfg.Hierarchy && c.Phi == cfg.Phi && c.Sampled == cfg.Sampled && c.Seed == cfg.Seed &&
		c.Filter.Decay == cfg.Filter.Decay && c.Filter.Cells == cfg.Filter.Cells && c.Filter.Hashes == cfg.Filter.Hashes
}

// Restore brings d to serialized state in place, allocating nothing that
// grows with the filters: sampler is the level-sampling state, st
// everything but the filters (st.Filters is not consulted), and level(l, f)
// is called once per level, in level order, to restore f to that level's
// state (tdbf.Filter.Restore: the seed must be the one NewDetector
// derived). With st.Hashed, where the level is held exactly, f is a new
// hashed filter of the configured shape, which the level's filter then
// converts (tdbf.Filter.RestoreHashed). Active entries must name a level of the
// hierarchy and a key generalised to it; of duplicate entries the earliest
// activation is kept. An error from level is returned as it is. On error d
// is partly written and must be discarded. The filters' own Restore clears
// them, the one clear they get.
func (d *Detector) Restore(sampler uint64, st State, level func(l int, f *tdbf.Filter) error) error {
	if st.Packets < 0 {
		return fmt.Errorf("continuous: restore: negative packet count %d", st.Packets)
	}
	d.base.Reset()
	d.act.reset()
	d.blk.reset()
	if err := d.total.Restore(st.Total); err != nil {
		return err
	}
	h := d.cfg.Hierarchy
	// The bits every key of the hierarchy shares: its root's key (in an IPv6
	// hierarchy the root mask leaves none of the address given).
	fixed := h.Key(addr.V4Root.Addr, d.levels-1)
	for l, f := range d.filters {
		to := f
		if st.Hashed && f.Direct() {
			cfg := d.cfg.Filter
			cfg.Seed = f.Seed()
			to = tdbf.New(cfg)
		}
		if err := level(l, to); err != nil {
			return err
		}
		if to != f {
			if err := f.RestoreHashed(to, fixed); err != nil {
				return fmt.Errorf("continuous: restore: level %d: %v", l, err)
			}
		}
	}
	for _, e := range st.Active {
		if e.Level < 0 || e.Level >= d.levels || e.Key&^d.masks[e.Level] != 0 ||
			!h.OnLattice(h.PrefixOfKey(e.Key, e.Level)) {
			return fmt.Errorf("continuous: restore: active entry (level %d, key %#x) off the hierarchy lattice", e.Level, e.Key)
		}
		d.act.add(e.Level, e.Key, e.At)
	}
	d.act.fix()
	d.started = st.Started
	d.warmEnd = st.WarmEnd
	d.pkts = uint64(st.Packets)
	d.rng = sampler
	return nil
}
