// Package continuous implements the windowless hierarchical-heavy-hitter
// detector the paper's Section 3 calls for: continuous-time detection built
// on time-decaying Bloom filters instead of resettable window counters.
//
// The detector keeps one time-decaying Bloom filter per hierarchy level
// and a decayed tracker of total traffic mass, all on one tdbf.Base: they
// share a landmark, so a packet costs one exp for the whole detector (taken
// a run of packets ahead, off its critical path) and nothing that grows
// with the active set:
//
//   - Coalescing. A packet adds its mass to the total and to its leaf's sum
//     in a block aligned to the detector's own packet count, which settles
//     after every 64th packet (sweepEvery), right before the sweep: one
//     filter write per level per distinct leaf (no hash where the level's
//     prefix space fits in Filter.Cells and is held exactly:
//     tdbf.Base.NewLevel). Masses add at the landmark's scale, so the sums
//     are what the packets would have written, up to float association.
//   - Entry, per distinct leaf at the settle point. Every inactive prefix of
//     a settled leaf's chain is checked, level by level bottom-up, leaves in
//     first-arrival order: a prefix whose *conditioned* decayed mass — its
//     estimate minus the estimates claimed by the active HHHs nearest below
//     it — reaches phi of the total decayed mass becomes active at the
//     stamp of the block's last packet. A sampled detector (Config.Sampled)
//     has no block: it writes and checks one drawn level per packet.
//   - Exit, on the sweep and on Query. After every sweepEvery-th packet, and
//     whenever Query is called, one leaf-to-root pass re-validates the whole
//     active set, and a prefix whose conditioned mass is under
//     ExitRatio·phi·total exits: the hysteresis keeps reports from flapping.
//     A sweep that drops a prefix checks the block's chains again, so an
//     ancestor held out by that claim alone enters at the sweep.
//
// Entry is exact to the settle point, not to the packet: an admission comes
// at most sweepEvery−1 of the detector's packets later, and no later than
// the next read; a prefix that crosses phi·total inside a block but is back
// under it at the settle point is not admitted; and tdbf.Filter.Adds counts
// writes, one per distinct leaf of a block. Every read settles a part-filled
// block first — Query, State (and so the wire encoding), Merge on both sides
// — and so does a landmark roll-over, the pending sums being at the old
// landmark's scale. An exit is taken at most sweepEvery packets after the
// prefix fell under the exit threshold, unless it is back over it by then;
// until then it keeps its claim. Settles and sweeps count the detector's
// own packets only: its state depends on the stream and its read points,
// not on batching, the wall clock or the replaying node. reference_test.go
// pins it exactly to this rule, which at a cadence of 1 is per-packet.
//
// The active set is indexed by (level, packed level key) with each member
// linked to its nearest active ancestor (active.go), so the entry check
// masks the packet's leaf key per level instead of building and hashing
// prefixes, and the claims under a prefix are one walk of a child list.
//
// Because decay is continuous there are no window edges: a burst that would
// straddle a disjoint-window boundary — precisely the traffic the paper
// shows is "hidden" — accumulates mass regardless of when it starts. The
// trade-off, quantified by the continuous-comparison experiment, is that
// detection is thresholded against an exponentially weighted past rather
// than a sharp interval.
package continuous

import (
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hashx"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/tdbf"
	"hiddenhhh/internal/trace"
)

// Config configures a Detector.
type Config struct {
	// Hierarchy of source prefixes; required (use addr.NewIPv4Hierarchy
	// or addr.NewIPv6Hierarchy).
	Hierarchy addr.Hierarchy
	// Phi is the HHH threshold as a fraction of total decayed traffic
	// mass, matching the windowed experiments' phi of window bytes.
	// Required, in (0,1].
	Phi float64
	// Filter configures the per-level time-decaying Bloom filters,
	// including the decay law. Filter.Decay.Tau is required; it plays the
	// role the window length plays for windowed detectors. Filter.Cells are
	// the cells of a hashed level; a level whose prefix space fits in them
	// is held exactly, in 2^r cells for its r family-relative bits.
	Filter tdbf.Config
	// Sampled, when true, updates a single uniformly drawn level per
	// packet (RHHH-style), checks entry at that level only, and scales
	// estimates by the level count, trading accuracy for one filter
	// write per packet. Seed drives the sampling.
	Sampled bool
	Seed    uint64
	// OnEnter/OnExit, when set, observe detection transitions: OnEnter
	// with the settle instant (the admitting packet's timestamp when
	// sampled), OnExit with that of the sweep's packet or of the Query.
	OnEnter func(p addr.Prefix, at int64)
	OnExit  func(p addr.Prefix, at int64)
}

// sweepEvery is the settle and sweep cadence in the detector's own packets
// (Packets() counts them), and so the block's capacity. It is not a Config
// field: entry and exit instants are part of what a replay reproduces, so
// they depend on the packet stream alone, never on a knob two nodes could
// set differently. A sweep costs one estimate per active prefix (about ten
// at phi = 5 %), a settle one write and check per distinct leaf (about 0.7
// a packet on zipf-steady), and 64 packets is far shorter than any change
// of mass the hysteresis band does not already absorb.
const sweepEvery = 64

// ExitRatio is the exit hysteresis: an active prefix exits at the first
// sweep or Query that finds its conditioned mass below ExitRatio·Phi·total,
// which keeps reports from flapping. The warm-up is one decay constant:
// nothing is admitted until Filter.Decay.Tau of trace time has passed after
// the first packet, letting the decayed total reach steady state. Anchoring
// at the first packet rather than at stamp zero keeps detection invariant
// under time translation. Neither is a Config field, for the reason
// sweepEvery is not; the wire codec carries both and refuses other values.
const ExitRatio = 0.9

// clock puts a stamp on the clamped clock tdbf.Base resolves instants on,
// ±(2⁶²−1). The warm-up end and admission instants are kept on it, the
// warm-up end saturating at endOfTime, the wire codec's bound — a warm-up
// that would end past it never ends — so every frame a detector seals
// decodes.
func clock(ts int64) int64 { return min(max(ts, 1-endOfTime), endOfTime-1) }

const endOfTime = 1 << 62

// Detector is a continuous HHH detector. Not safe for concurrent use.
type Detector struct {
	cfg     Config
	levels  int
	scale   float64    // estimate multiplier: level count under sampling, else 1
	base    *tdbf.Base // the time base filters and total decay on
	filters []*tdbf.Filter
	total   *tdbf.MassTracker
	act     activeSet
	masks   []uint64 // per-level key masks
	rng     uint64
	started bool  // first packet seen; warmEnd is anchored
	warmEnd int64 // clock(first packet timestamp) + Tau, at most endOfTime
	// pkts counts packets in uint64 so the settle and sweep cadence keeps
	// running past MaxInt64, the count Packets reports saturated.
	pkts uint64
	blk  block // unsampled only: the packets since the last settle

	// Sweep scratch, parallel to act.nodes as revalidate leaves them.
	sweep []verdict
}

// block is the coalescing block: the distinct leaves of the packets since
// the last settle (at most sweepEvery), in first-arrival order, their mass
// sums at the landmark's scale, and the last packet's stamp and up factor.
type block struct {
	leaf [sweepEvery]uint64
	w    [sweepEvery]float64
	idx  [2 * sweepEvery]uint8 // open addressing on leaf: position + 1, 0 = empty
	n    int
	now  int64
	up   float64
}

// add sums w into leaf's entry, opening one at the end if there is none.
func (b *block) add(leaf uint64, w float64) {
	for i := leaf * 0x9e3779b97f4a7c15 >> 57; ; i = (i + 1) % uint64(len(b.idx)) {
		j := b.idx[i]
		if j == 0 {
			b.idx[i] = uint8(b.n + 1)
			b.leaf[b.n], b.w[b.n] = leaf, w
			b.n++
			return
		}
		if b.leaf[j-1] == leaf {
			b.w[j-1] += w
			return
		}
	}
}

// reset empties the block.
func (b *block) reset() { b.n, b.idx = 0, [2 * sweepEvery]uint8{} }

// verdict is one active prefix's row in a revalidate pass.
type verdict struct {
	est     float64 // scaled filter estimate
	claimed float64 // mass claimed by the kept prefixes nearest below
	drop    bool
}

// NewDetector validates cfg and builds a detector.
func NewDetector(cfg Config) (*Detector, error) {
	if cfg.Phi <= 0 || cfg.Phi > 1 {
		return nil, fmt.Errorf("continuous: Phi %v out of (0,1]", cfg.Phi)
	}
	if cfg.Filter.Decay.Tau <= 0 {
		return nil, fmt.Errorf("continuous: a positive Filter.Decay.Tau is required")
	}
	cfg.Filter = cfg.Filter.WithDefaults()
	levels := cfg.Hierarchy.Levels()
	base := tdbf.NewBase(cfg.Filter.Decay)
	d := &Detector{
		cfg:    cfg,
		levels: levels,
		scale:  1,
		base:   base,
		total:  base.NewMassTracker(),
		masks:  make([]uint64, levels),
		rng:    hashx.Mix64(cfg.Seed ^ 0x6a09e667f3bcc909),
	}
	if cfg.Sampled {
		d.scale = float64(levels)
	}
	d.filters = make([]*tdbf.Filter, levels)
	for l := range d.filters {
		fc := cfg.Filter
		fc.Seed = hashx.Mix64(cfg.Seed + uint64(l) + 1)
		d.masks[l] = cfg.Hierarchy.KeyMask(l)
		// The level's keys vary in its family-relative bits, which end
		// where its mask does.
		r := cfg.Hierarchy.Bits(l) - cfg.Hierarchy.Bits(levels-1)
		d.filters[l] = base.NewLevel(fc, uint(bits.TrailingZeros64(d.masks[l])), uint(r))
	}
	d.act = newActiveSet(d.masks)
	return d, nil
}

// ObserveKeys feeds a batch of packed, time-ordered leaf keys (stamps in ns,
// non-decreasing), filtered to the hierarchy's family (trace.KeyBatch), the
// detector's only way in. A run's decay factors are resolved before its
// packets (tdbf.Base.Ahead); a run ends where the stamps roll the landmark
// over, not where a batch does, and the block settles before the roll-over.
func (d *Detector) ObserveKeys(b *trace.KeyBatch) {
	for i := 0; i < len(b.Keys); {
		if d.blk.n > 0 && d.base.Rolls(b.Ts[i]) {
			d.settle(false)
		}
		for _, up := range d.base.Ahead(b.Ts[i:]) {
			if d.cfg.Sampled {
				d.observe(b.Keys[i], int64(b.Sizes[i]), b.Ts[i], up)
			} else {
				d.stage(b.Keys[i], int64(b.Sizes[i]), b.Ts[i], up)
			}
			i++
		}
	}
}

// start counts a packet at now, anchoring the warm-up at the first.
func (d *Detector) start(now int64) {
	if !d.started {
		d.started, d.warmEnd = true, min(clock(now)+clock(int64(d.cfg.Filter.Decay.Tau)), endOfTime)
	}
	d.pkts++
}

// stage is the unsampled per-packet body; up is the decay factor of now:
// the packet's mass goes to the total and to its leaf's sum in the block.
func (d *Detector) stage(leaf uint64, bytes int64, now int64, up float64) {
	d.start(now)
	w := float64(bytes) * up
	d.total.AddScaled(w)
	d.blk.add(leaf, w)
	d.blk.now, d.blk.up = now, up
	if d.pkts%sweepEvery == 0 {
		d.settle(true)
	}
}

// settle folds the block into the filters and checks entry at the stamp of
// its last packet, each level's checks after its writes; prefixes of one
// level claim nothing from each other, so the leaves' order changes nothing.
// With sweep, the exit sweep follows, and a drop re-runs the checks.
func (d *Detector) settle(sweep bool) {
	b := &d.blk
	if b.n == 0 {
		return
	}
	// The reads the checks make at this instant find the pair.
	d.base.Enter(b.now, b.up)
	warm := clock(b.now) >= d.warmEnd
	enterT, near := math.Inf(1), math.Inf(1)
	if warm {
		enterT = d.cfg.Phi * d.total.Value(b.now)
		// A cell grows by less than the block's mass after a write, so one
		// left under near (less room for rounding) cannot reach enterT.
		near = enterT * b.up * (1 - 0x1p-30)
		for _, w := range b.w[:b.n] {
			near -= w
		}
	}
	for l, f := range d.filters {
		var check uint64
		for i, leaf := range b.leaf[:b.n] {
			if f.AddScaled(leaf&d.masks[l], b.w[i]) >= near {
				check |= 1 << i
			}
		}
		d.admitLevel(l, check, enterT)
	}
	if sweep && warm && d.revalidate(b.now) {
		for l := range d.filters {
			d.admitLevel(l, ^uint64(0)>>(64-b.n), enterT)
		}
	}
	b.reset()
}

// admitLevel checks entry of the level-l prefixes of the block's leaves at
// the positions in set, in first-arrival order, each once (leaves differ).
func (d *Detector) admitLevel(l int, set uint64, enterT float64) {
	b, m := &d.blk, d.masks[l]
	for ; set != 0; set &= set - 1 {
		leaf := b.leaf[bits.TrailingZeros64(set)]
		for rest := set & (set - 1); l > 0 && rest != 0; rest &= rest - 1 {
			if i := bits.TrailingZeros64(rest); b.leaf[i]&m == leaf&m {
				set &^= 1 << i
			}
		}
		if d.act.find(l, leaf&m) < 0 {
			d.admit(leaf, l, d.filters[l].Estimate(leaf&m, b.now), b.now, enterT)
		}
	}
}

// observe is the sampled per-packet body; up is the decay factor of now:
// one uniformly drawn level takes the packet and is checked on the spot.
func (d *Detector) observe(leaf uint64, bytes int64, now int64, up float64) {
	d.start(now)
	// The reads admit and revalidate make at this instant find the pair.
	down := d.base.Enter(now, up)
	w := float64(bytes) * up
	total := d.total.AddScaled(w) * down
	d.rng += 0x9e3779b97f4a7c15
	l := int((hashx.Mix64(d.rng) >> 32) * uint64(d.levels) >> 32)
	est := d.filters[l].AddScaled(leaf&d.masks[l], w) * down * d.scale
	if clock(now) < d.warmEnd {
		return
	}
	if d.act.find(l, leaf&d.masks[l]) < 0 {
		d.admit(leaf, l, est, now, d.cfg.Phi*total)
	}
	if d.pkts%sweepEvery == 0 {
		d.revalidate(now)
	}
}

// admit is the entry check of leaf's inactive level-l prefix, estimated at
// est: it enters when its conditioned mass reaches enterT (which a raw
// estimate under it cannot: conditioning only shrinks mass).
func (d *Detector) admit(leaf uint64, l int, est float64, now int64, enterT float64) {
	key := leaf & d.masks[l]
	if est < enterT || est-d.claimedUnder(leaf, l, now) < enterT {
		return
	}
	d.act.add(l, key, clock(now))
	d.act.fix()
	if d.cfg.OnEnter != nil {
		d.cfg.OnEnter(d.cfg.Hierarchy.PrefixOfKey(key, l), now)
	}
}

// claimedUnder sums the estimates of the maximal active strict descendants
// of leaf's inactive level-l prefix: the mass more specific HHHs claim.
// They all hang off the node the prefix would — its nearest active strict
// ancestor — so one walk of that node's child list finds them.
func (d *Detector) claimedUnder(leaf uint64, l int, now int64) float64 {
	up := int32(-1)
	for a := l + 1; a < d.levels && up < 0; a++ {
		up = d.act.find(a, leaf&d.masks[a])
	}
	key := leaf & d.masks[l]
	var claimed float64
	for c := d.act.head(up); c >= 0; c = d.act.nodes[c].sibling {
		if n := &d.act.nodes[c]; int(n.level) < l && n.key&d.masks[l] == key {
			claimed += d.estimate(n, now)
		}
	}
	return claimed
}

// prefixOf rebuilds the prefix n stands for.
func (d *Detector) prefixOf(n *node) addr.Prefix {
	return d.cfg.Hierarchy.PrefixOfKey(n.key, int(n.level))
}

// estimate returns the scaled decayed-mass estimate of n's prefix at now.
func (d *Detector) estimate(n *node, now int64) float64 {
	return d.filters[n.level].Estimate(n.key, now) * d.scale
}

// revalidate is the exit check: one leaf-to-root pass over the whole
// active set at time now. A prefix is kept when its conditioned mass — its
// estimate minus what the kept prefixes nearest below it claim — is at
// least ExitRatio·Phi·total, and then claims its whole estimate from its
// nearest active ancestor; otherwise it exits (OnExit fires) and passes
// its descendants' claims up unchanged. It reports whether any prefix
// exited; on return d.sweep[i] holds the verdict of d.act.nodes[i].
func (d *Detector) revalidate(now int64) bool {
	nodes := d.act.nodes
	if len(nodes) == 0 {
		return false
	}
	exitT := d.cfg.Phi * d.total.Value(now) * ExitRatio
	d.sweep = d.sweep[:0]
	for i := range nodes {
		d.sweep = append(d.sweep, verdict{est: d.estimate(&nodes[i], now)})
	}
	dropped := false
	for i := range nodes {
		v := &d.sweep[i]
		pass := v.est
		if v.drop = v.est-v.claimed < exitT; v.drop {
			pass, dropped = v.claimed, true
		}
		if p := nodes[i].parent; p >= 0 {
			d.sweep[p].claimed += pass
		}
	}
	if !dropped {
		return false
	}
	kept := 0
	for i := range nodes {
		if d.sweep[i].drop {
			if d.cfg.OnExit != nil {
				d.cfg.OnExit(d.prefixOf(&nodes[i]), now)
			}
			continue
		}
		nodes[kept], d.sweep[kept] = nodes[i], d.sweep[i]
		kept++
	}
	d.act.nodes, d.sweep = nodes[:kept], d.sweep[:kept]
	d.act.fix()
	return true
}

// Query settles the block, runs the sweep at time now (OnExit fires for
// the prefixes it drops) and returns the HHH set with decayed masses.
func (d *Detector) Query(now int64) hhh.Set {
	out := hhh.Set{}
	d.settle(false)
	d.revalidate(now)
	for i := range d.act.nodes {
		n, v := &d.act.nodes[i], &d.sweep[i]
		out.Add(hhh.Item{
			Prefix:      d.prefixOf(n),
			Count:       tdbf.SatInt64(v.est),
			Conditioned: tdbf.SatInt64(v.est - v.claimed),
		})
	}
	return out
}

// Merge folds detector o into d, settling both blocks first: o changes as
// a read of it would. o must have d's Config, callbacks aside (Fits), or
// Merge panics, so that the filters merge cell-wise (tdbf.Filter.Merge:
// rescale to the later landmark, add) and the totals likewise. The active
// sets are unioned, keeping the earlier activation timestamp.
//
// In the sharded pipeline every shard admits against its *own* decayed
// mass — a fraction ~1/K of the global mass under hash partitioning — so
// the shard-local thresholds are proportionally lower and the union of
// shard active sets is a superset of the globally admissible candidates.
// A Query on the merged detector re-validates every candidate against
// the merged (global) mass and deactivates the over-admissions, so
// merged reports match a single detector's up to filter collision noise
// and partitioning variance on interior prefixes.
func (d *Detector) Merge(o *Detector) {
	if o == nil {
		return
	}
	if !d.Fits(o.cfg) {
		panic("continuous: Merge config mismatch")
	}
	d.settle(false)
	o.settle(false)
	for l := range d.filters {
		d.filters[l].Merge(o.filters[l])
	}
	d.total.Merge(o.total)
	d.act.nodes = append(d.act.nodes, o.act.nodes...)
	d.act.fix()
	if o.started && (!d.started || o.warmEnd > d.warmEnd) {
		d.started, d.warmEnd = true, o.warmEnd
	}
	d.pkts = uint64(sketch.AddSat(d.Packets(), o.Packets()))
}

// ActiveLen returns the active set's size at the last settle or sweep.
func (d *Detector) ActiveLen() int { return len(d.act.nodes) }

// TotalMass returns the decayed total traffic mass at now.
func (d *Detector) TotalMass(now int64) float64 { return d.total.Value(now) }

// Packets returns the number of packets observed, at most MaxInt64.
func (d *Detector) Packets() int64 { return int64(min(d.pkts, math.MaxInt64)) }

// SizeBytes returns the state footprint: the per-level filters, the active
// set and its index, and, unsampled, the coalescing block.
func (d *Detector) SizeBytes() int {
	n := d.act.sizeBytes()
	if !d.cfg.Sampled {
		n += int(unsafe.Sizeof(d.blk))
	}
	for _, f := range d.filters {
		n += f.SizeBytes()
	}
	return n
}

// Reset drops the block and all state (the level sampler continues).
func (d *Detector) Reset() {
	for _, f := range d.filters {
		f.Reset()
	}
	d.total.Reset()
	d.base.Reset()
	d.act.reset()
	d.blk.reset()
	d.started, d.warmEnd, d.pkts = false, 0, 0
}
