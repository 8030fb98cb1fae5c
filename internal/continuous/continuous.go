// Package continuous implements the windowless hierarchical-heavy-hitter
// detector the paper's Section 3 calls for: continuous-time detection built
// on time-decaying Bloom filters instead of resettable window counters.
//
// The detector keeps one time-decaying Bloom filter per hierarchy level
// and a decayed tracker of total traffic mass, all on one tdbf.Base: they
// share a landmark, so a packet costs one exp for the whole detector (taken
// a run of packets ahead, off its critical path), one filter write per level
// (no hash where the level's prefix space fits in Filter.Cells and is held
// exactly: tdbf.Base.NewLevel) and nothing that grows with the active set:
//
//   - Entry, per packet. The filter writes return the estimates of the
//     packet's own generalisation chain, and every prefix of the chain
//     that is not active is checked on the spot, bottom-up: a prefix whose
//     *conditioned* decayed mass — its estimate minus the estimates claimed
//     by the active HHHs nearest below it — reaches phi of the total
//     decayed mass becomes active, on that packet.
//   - Exit, on a fixed sweep cadence and on Query. Active prefixes are not
//     re-validated by the packets that touch them. After every 64th
//     packet (sweepEvery), and whenever Query is called, one leaf-to-root
//     pass re-validates the whole active set — on-chain or not — and a
//     prefix whose conditioned mass is under ExitRatio·phi·total exits.
//     The hysteresis keeps reports from flapping around the boundary.
//
// An exit is therefore taken at most sweepEvery packets after the first
// packet at which the prefix was under the exit threshold (OnExit carries
// the sweep's timestamp) — unless it is back over it by then. The cadence
// counts the detector's own packets and is not configurable, so that the
// state after a given packet stream is one thing: independent of how the
// stream was batched, of the wall clock, and of which node replays it (see
// sweepEvery). Until a late exit is taken the prefix keeps its claim, so
// an ancestor that becomes admissible only through that exit waits for it;
// every other entry is exact to the packet. reference_test.go holds the
// per-packet rule this one replaced and pins these differences against it.
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
	"math/bits"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hashx"
	"hiddenhhh/internal/hhh"
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
	// ExitRatio is the hysteresis: an active prefix exits at the first
	// sweep or Query that finds its conditioned mass below
	// ExitRatio*Phi*total. Default 0.9; 1.0 disables hysteresis.
	ExitRatio float64
	// Warmup suppresses admissions until this much trace time has
	// passed after the first observed packet, letting the decayed total
	// reach steady state. Default is the decay time constant. Anchoring
	// at the first packet rather than at
	// timestamp zero keeps detection invariant under time translation:
	// a trace stamped in epoch nanoseconds warms up exactly like the
	// same trace stamped from zero.
	Warmup time.Duration
	// Sampled, when true, updates a single uniformly drawn level per
	// packet (RHHH-style), checks entry at that level only, and scales
	// estimates by the level count, trading accuracy for one filter
	// write per packet. Seed drives the sampling.
	Sampled bool
	Seed    uint64
	// OnEnter/OnExit, when set, observe detection transitions: OnEnter
	// with the timestamp of the admitting packet, OnExit with that of
	// the sweep's packet or of the Query.
	OnEnter func(p addr.Prefix, at int64)
	OnExit  func(p addr.Prefix, at int64)
}

// sweepEvery is the exit cadence: the whole active set is re-validated
// after every sweepEvery-th packet the detector admits (counted from its
// first, family-filtered packet; Packets() is the counter). It is a
// constant, not a Config field: the instants at which prefixes exit are
// part of what a replay must reproduce, so they may depend on nothing but
// the detector's own packet stream — not on batch boundaries, the wall
// clock or a knob two nodes could set differently. A sweep costs one
// filter estimate per active prefix; spread over 64 packets that is about
// a nanosecond per packet per active prefix, against some two hundred for
// the packet's own filter writes (the active set holds about ten prefixes
// at phi = 5 %), and 64 packets is far shorter than any change of mass
// the hysteresis band does not already absorb.
const sweepEvery = 64

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
	warmEnd int64 // clock(first packet timestamp) + Warmup, at most endOfTime
	pkts    int64

	// Per-packet scratch, one slot per level: the chain's estimates as
	// returned by the filter writes, and for each chain prefix whether it
	// is active and its nearest active strict ancestor (see locate).
	est []float64
	on  []bool
	up  []int32
	// Sweep scratch, parallel to act.nodes.
	sweep []verdict
}

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
	if cfg.ExitRatio == 0 {
		cfg.ExitRatio = 0.9
	}
	if cfg.ExitRatio < 0 || cfg.ExitRatio > 1 {
		return nil, fmt.Errorf("continuous: ExitRatio %v out of (0,1]", cfg.ExitRatio)
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = cfg.Filter.Decay.Tau
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
		est:    make([]float64, levels),
		on:     make([]bool, levels),
		up:     make([]int32, levels),
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

// ObserveKeys feeds a columnar batch of pre-packed, time-ordered leaf
// keys (timestamps in ns, non-decreasing), the detector's only way in:
// each packet's generalisation chain is folded into the filters at its
// timestamp and the chain's prefixes are checked for admission. The batch
// is packed and filtered to the hierarchy's address family where packets
// are staged (see trace.KeyBatch), so a dual-stack stream thresholds
// against its own family's mass only; the state left — sweep instants
// included — does not depend on how the stream was cut into batches.
// The decay factors of a run of packets are resolved before the packets
// (tdbf.Base.Ahead), bit for bit what each would have computed; a run ends
// where the stamps roll the landmark over, not where a batch does.
func (d *Detector) ObserveKeys(b *trace.KeyBatch) {
	for i := 0; i < len(b.Keys); {
		for _, up := range d.base.Ahead(b.Ts[i:]) {
			d.observe(b.Keys[i], int64(b.Sizes[i]), b.Ts[i], up)
			i++
		}
	}
}

// observe is the per-packet body; up is the decay factor of now. The chain
// prefix at level l is leaf&masks[l]; the filter writes return the chain's
// estimates.
func (d *Detector) observe(leaf uint64, bytes int64, now int64, up float64) {
	if !d.started {
		d.started = true
		d.warmEnd = min(clock(now)+clock(int64(d.cfg.Warmup)), endOfTime)
	}
	d.pkts++
	// The reads admit and revalidate make at this instant find the pair.
	down := d.base.Enter(now, up)
	w := float64(bytes) * up
	total := d.total.AddScaled(w) * down
	lo, hi := 0, d.levels
	if d.cfg.Sampled {
		d.rng += 0x9e3779b97f4a7c15
		lo = int((hashx.Mix64(d.rng) >> 32) * uint64(d.levels) >> 32)
		hi = lo + 1
		d.est[lo] = d.filters[lo].AddScaled(leaf&d.masks[lo], w) * down * d.scale
	} else {
		for l, f := range d.filters {
			d.est[l] = f.AddScaled(leaf&d.masks[l], w) * down
		}
	}
	if clock(now) < d.warmEnd {
		return
	}
	d.admit(leaf, lo, hi, now, d.cfg.Phi*total)
	if d.pkts%sweepEvery == 0 {
		d.revalidate(now)
	}
}

// admit is the entry check over chain levels [lo, hi) — the levels this
// packet wrote, whose estimates are in d.est — bottom-up, so a child
// admits before its parent and the parent's conditioned mass sees the
// fresh claim. Prefixes already active are left alone: their exit is
// revalidate's business.
func (d *Detector) admit(leaf uint64, lo, hi int, now int64, enterT float64) {
	// Conditioning only shrinks mass, so a level whose raw estimate is
	// under the threshold cannot enter; below the first that is not,
	// nothing needs looking up.
	for lo < hi && d.est[lo] < enterT {
		lo++
	}
	if lo == hi {
		return
	}
	d.locate(leaf, lo)
	for l := lo; l < hi; l++ {
		if d.on[l] || d.est[l] < enterT {
			continue
		}
		key := leaf & d.masks[l]
		if d.est[l]-d.claimedUnder(l, key, leaf, now) < enterT {
			continue
		}
		d.act.add(l, key, clock(now))
		d.act.fix()
		d.locate(leaf, l+1)
		if d.cfg.OnEnter != nil {
			d.cfg.OnEnter(d.cfg.Hierarchy.PrefixOfKey(key, l), now)
		}
	}
}

// locate looks the packet's chain up in the active set, root down to
// level lo: on[l] says whether the chain's level-l prefix is active, up[l]
// is its nearest active strict ancestor (-1: none).
func (d *Detector) locate(leaf uint64, lo int) {
	up := int32(-1)
	for l := d.levels - 1; l >= lo; l-- {
		d.up[l] = up
		j := d.act.find(l, leaf&d.masks[l])
		if d.on[l] = j >= 0; j >= 0 {
			up = j
		}
	}
}

// claimedUnder sums the estimates of the maximal active strict descendants
// of the inactive chain prefix (level, key): the mass more specific HHHs
// already claim, to be discounted from its own estimate. None of them has
// an active prefix between itself and (level, key), so they all hang off
// the same node as (level, key) would — up[level] — and one walk of that
// node's child list finds them. The one on the packet's own chain, if
// any, was estimated by this packet's filter write.
func (d *Detector) claimedUnder(level int, key, leaf uint64, now int64) float64 {
	var claimed float64
	for c := d.act.head(d.up[level]); c >= 0; c = d.act.nodes[c].sibling {
		n := &d.act.nodes[c]
		if int(n.level) >= level || n.key&d.masks[level] != key {
			continue
		}
		if !d.cfg.Sampled && n.key == leaf&d.masks[n.level] {
			claimed += d.est[n.level]
		} else {
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
// its descendants' claims up unchanged. On return d.sweep[i] holds the
// verdict of d.act.nodes[i].
func (d *Detector) revalidate(now int64) {
	nodes := d.act.nodes
	if len(nodes) == 0 {
		return
	}
	exitT := d.cfg.Phi * d.total.Value(now) * d.cfg.ExitRatio
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
		return
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
}

// Query re-validates the whole active set at time now — the pass the
// detector runs by itself every sweepEvery packets — and returns the
// current HHH set with decayed-mass estimates. Prefixes whose conditioned
// mass fell below the exit threshold are deactivated (with OnExit fired).
func (d *Detector) Query(now int64) hhh.Set {
	out := hhh.Set{}
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

// Merge folds detector o into d; o is not modified. Both detectors must
// be built from the same Config (hierarchy, filter shape, seed and decay
// law), so their per-level filters merge cell-wise (see tdbf.Filter.Merge
// — rescale to the later landmark plus add, preserving the conservative
// overestimate) and the total mass trackers likewise. The active sets are
// unioned, keeping the earlier activation timestamp.
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
	if d.levels != o.levels || d.cfg.Hierarchy != o.cfg.Hierarchy {
		panic("continuous: Merge hierarchy mismatch")
	}
	for l := range d.filters {
		d.filters[l].Merge(o.filters[l])
	}
	d.total.Merge(o.total)
	d.act.nodes = append(d.act.nodes, o.act.nodes...)
	d.act.fix()
	if o.started && (!d.started || o.warmEnd > d.warmEnd) {
		d.started = true
		d.warmEnd = o.warmEnd
	}
	d.pkts += o.pkts
}

// ActiveLen returns the size of the active set without revalidation.
func (d *Detector) ActiveLen() int { return len(d.act.nodes) }

// TotalMass returns the decayed total traffic mass at now.
func (d *Detector) TotalMass(now int64) float64 { return d.total.Value(now) }

// Packets returns the number of packets observed.
func (d *Detector) Packets() int64 { return d.pkts }

// SizeBytes returns the state footprint: the per-level filters plus the
// (bounded) active set and its index.
func (d *Detector) SizeBytes() int {
	n := d.act.sizeBytes()
	for _, f := range d.filters {
		n += f.SizeBytes()
	}
	return n
}

// Reset returns the detector to its initial state (the RNG continues).
func (d *Detector) Reset() {
	for _, f := range d.filters {
		f.Reset()
	}
	d.total.Reset()
	d.base.Reset()
	d.act.reset()
	d.started = false
	d.warmEnd = 0
	d.pkts = 0
}
