// Serialization seam for the continuous detector: a read-only state
// view and a validated restore constructor used by the internal/wire
// codec. A restored detector is merge- and query-equivalent to the one
// that was serialized; unlike Merge it validates instead of panicking,
// because its inputs ultimately come off the network.

package continuous

import (
	"fmt"

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
}

// Config returns the detector's configuration (defaults applied). Note
// it carries the OnEnter/OnExit callbacks, which do not serialize.
func (d *Detector) Config() Config { return d.cfg }

// Sampler returns the splitmix64 level-sampling state (meaningful only
// when Config.Sampled is set).
func (d *Detector) Sampler() uint64 { return d.rng }

// State returns a view of the detector's serializable state. The active
// set is copied, sorted by (level, key); the filters are the live ones.
func (d *Detector) State() State {
	st := State{
		Started: d.started,
		WarmEnd: d.warmEnd,
		Packets: d.pkts,
		Total:   d.total.State(),
		Active:  make([]ActiveEntry, len(d.act.nodes)),
		Filters: d.filters,
	}
	for i, n := range d.act.nodes {
		st.Active[i] = ActiveEntry{Level: int(n.level), Key: n.key, At: n.at}
	}
	return st
}

// Restore rebuilds a detector from cfg, the sampler state, and
// serialized state. Per-level filters are adopted (typically from
// tdbf.RestoreFilter) and must have the shape, per-level derived seed
// and decay law NewDetector would have built from cfg; active entries
// must name a level of the hierarchy and a key generalised to it. Of
// duplicate entries the earliest activation is kept.
func Restore(cfg Config, sampler uint64, st State) (*Detector, error) {
	d, err := NewDetector(cfg)
	if err != nil {
		return nil, err
	}
	if len(st.Filters) != d.levels {
		return nil, fmt.Errorf("continuous: restore: %d filters for %d-level hierarchy", len(st.Filters), d.levels)
	}
	for l, f := range st.Filters {
		if f == nil {
			return nil, fmt.Errorf("continuous: restore: nil filter at level %d", l)
		}
		want := d.filters[l]
		if f.Cells() != want.Cells() || f.Hashes() != want.Hashes() || f.Seed() != want.Seed() ||
			f.Decay().String() != want.Decay().String() {
			return nil, fmt.Errorf("continuous: restore: level %d filter shape/seed/decay differs from config", l)
		}
		d.filters[l] = f
	}
	total, err := tdbf.RestoreMassTracker(cfg.Filter.Decay, st.Total)
	if err != nil {
		return nil, err
	}
	d.total = total
	for _, e := range st.Active {
		if e.Level < 0 || e.Level >= d.levels || e.Key&^d.masks[e.Level] != 0 ||
			!cfg.Hierarchy.OnLattice(cfg.Hierarchy.PrefixOfKey(e.Key, e.Level)) {
			return nil, fmt.Errorf("continuous: restore: active entry (level %d, key %#x) off the hierarchy lattice", e.Level, e.Key)
		}
		d.act.add(e.Level, e.Key, e.At)
	}
	d.act.fix()
	if st.Packets < 0 {
		return nil, fmt.Errorf("continuous: restore: negative packet count %d", st.Packets)
	}
	d.started = st.Started
	d.warmEnd = st.WarmEnd
	d.pkts = st.Packets
	d.rng = sampler
	return d, nil
}
