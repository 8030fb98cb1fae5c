// Package oracle provides the repository's one exact
// hierarchical-heavy-hitter reference — full per-prefix counts at every
// hierarchy level, exact conditioned volumes, arbitrary window /
// sliding-span / decayed replay, and a forward Cursor that the paper's
// figures (internal/core) tile the trace with — and a differential harness
// (see diff.go) that measures any streaming detector against it.
//
// Everything the repository's approximate engines estimate, the oracle
// computes exactly from the retained trace: per-level subtree volumes,
// the bottom-up conditioned HHH set, and — the piece that makes the
// paper-family deterministic bounds falsifiable — the *conditioned volume
// given a detector's own output*, i.e. a prefix's exact volume discounted
// by the exact subtree volumes of its maximal descendants in the
// detector's report. With that quantity the classical guarantees of
// Space-Saving-based HHH (Mitzenmacher et al., arXiv:1102.5540; Ben Basat
// et al., arXiv:1707.06778) become direct assertions:
//
//   - accuracy: every reported subtree estimate is within Nε of exact;
//   - coverage: every prefix whose conditioned-given-output volume
//     reaches (φ+ε')N appears in the report, where ε' widens by εN per
//     maximal reported descendant (each descendant's claim may
//     overestimate by up to εN, over-discounting its ancestors).
//
// The oracle is O(packets × levels) per query and keeps the whole trace
// in memory: it is a test and evaluation harness, not a detector.
package oracle

import (
	"math"
	"sort"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/swhh"
	"hiddenhhh/internal/trace"
)

// mass is the numeric domain of an aggregate: exact byte counts for the
// windowed and sliding models, decayed float masses for the continuous
// one.
type mass interface {
	~int64 | ~float64
}

// Oracle retains a time-ordered trace and answers exact HHH queries over
// arbitrary sub-spans and decay horizons of it. Packets outside the
// hierarchy's address family are excluded from every aggregate, matching
// the detectors' ingest-side family filter.
type Oracle struct {
	h    addr.Hierarchy
	pkts []trace.Packet
}

// FromTrace builds an oracle over pkts (not copied; the caller must not
// mutate the slice while the oracle is in use) on hierarchy h, the IPv4
// byte ladder when zero.
func FromTrace(h addr.Hierarchy, pkts []trace.Packet) *Oracle {
	if h == (addr.Hierarchy{}) {
		h = addr.NewIPv4Hierarchy(addr.Byte)
	}
	return &Oracle{h: h, pkts: pkts}
}

// Cursor walks a span forward over the oracle's trace and keeps the exact
// leaf aggregate of the in-family packets with lo <= Ts < hi: each packet
// is added once when hi passes it and removed once when lo does. It is how
// the paper's figures tile the trace into windows, tumbling or sliding.
type Cursor struct {
	o      *Oracle
	leaves *sketch.Exact
	i, j   int // pkts[i:j] is the span
	hi     int64
}

// Cursor returns a cursor ahead of the trace.
func (o *Oracle) Cursor() *Cursor {
	return &Cursor{o: o, leaves: sketch.NewExact(1024), hi: math.MinInt64}
}

// Move sets the span to [lo, hi), neither bound lower than the last Move's,
// and returns its aggregate, which the next Move changes. A span that does
// not overlap the last one starts afresh instead of removing it packet by
// packet.
func (c *Cursor) Move(lo, hi int64) *sketch.Exact {
	p := c.o.pkts
	if lo >= c.hi {
		c.leaves.Reset()
		c.j += sort.Search(len(p)-c.j, func(k int) bool { return p[c.j+k].Ts >= lo })
		c.i = c.j
	}
	for ; c.i < c.j && p[c.i].Ts < lo; c.i++ {
		if k, w, ok := c.leaf(&p[c.i]); ok {
			c.leaves.Remove(k, w)
		}
	}
	for ; c.j < len(p) && p[c.j].Ts < hi; c.j++ {
		if k, w, ok := c.leaf(&p[c.j]); ok {
			c.leaves.Update(k, w)
		}
	}
	c.hi = hi
	return c.leaves
}

// leaf is a packet's leaf key and weight, and whether the aggregate counts
// it: in the hierarchy's family and not empty (a zero weight would leave a
// key that Remove could not tell from an absent one).
func (c *Cursor) leaf(p *trace.Packet) (key uint64, w int64, ok bool) {
	if p.Size == 0 || !c.o.h.Match(p.Src) {
		return 0, 0, false
	}
	return c.o.h.Key(p.Src, 0), int64(p.Size), true
}

// span returns the index range of packets with lo <= Ts < hi.
func (o *Oracle) span(lo, hi int64) (i, j int) {
	i = sort.Search(len(o.pkts), func(k int) bool { return o.pkts[k].Ts >= lo })
	j = sort.Search(len(o.pkts), func(k int) bool { return o.pkts[k].Ts >= hi })
	return i, j
}

// rollUp builds the per-level subtree aggregates above a leaf map: level
// 0 is the (already masked) leaf-key level, level l+1 sums each prefix's
// children. Maps are keyed by the hierarchy's per-level uint64 keys (see
// addr.Hierarchy.Key).
func rollUp[V mass](h addr.Hierarchy, leaves map[uint64]V) []map[uint64]V {
	levels := make([]map[uint64]V, h.Levels())
	levels[0] = leaves
	for l := 1; l < h.Levels(); l++ {
		m := h.KeyMask(l)
		up := make(map[uint64]V, len(levels[l-1])/2+1)
		for key, c := range levels[l-1] {
			up[key&m] += c
		}
		levels[l] = up
	}
	return levels
}

// LevelCounts returns the exact per-prefix subtree byte volumes at every
// hierarchy level (index 0 = leaves, last = root) over in-family packets
// with lo <= Ts < hi, together with the total byte volume of the span.
func (o *Oracle) LevelCounts(lo, hi int64) ([]map[uint64]int64, int64) {
	i, j := o.span(lo, hi)
	leaves := make(map[uint64]int64, (j-i)/4+1)
	var total int64
	for ; i < j; i++ {
		if !o.h.Match(o.pkts[i].Src) {
			continue
		}
		w := int64(o.pkts[i].Size)
		leaves[o.h.Key(o.pkts[i].Src, 0)] += w
		total += w
	}
	return rollUp(o.h, leaves), total
}

// DecayedLevelCounts returns the exponentially decayed per-prefix masses
// at time now — every packet with Ts <= now contributes
// Size·exp(-(now-Ts)/tau), the law of tdbf.Exponential — and the total
// decayed mass.
func (o *Oracle) DecayedLevelCounts(now int64, tau time.Duration) ([]map[uint64]float64, float64) {
	_, j := o.span(math.MinInt64, now+1)
	leaves := make(map[uint64]float64, j/4+1)
	var total float64
	for i := 0; i < j; i++ {
		if !o.h.Match(o.pkts[i].Src) {
			continue
		}
		w := float64(o.pkts[i].Size) * math.Exp(-float64(now-o.pkts[i].Ts)/float64(tau))
		leaves[o.h.Key(o.pkts[i].Src, 0)] += w
		total += w
	}
	return rollUp(o.h, leaves), total
}

// conditionedSet runs the exact bottom-up conditioned pass over the level
// aggregates: a prefix is an HHH when its subtree volume minus the volume
// claimed by descendant HHHs reaches T, and an HHH claims its whole
// subtree upward.
func conditionedSet[V mass](h addr.Hierarchy, levels []map[uint64]V, T V) hhh.Set {
	out := hhh.Set{}
	unclaimed := levels[0]
	for l := 0; l < len(levels); l++ {
		var next map[uint64]V
		var parentMask uint64
		if l+1 < len(levels) {
			next = make(map[uint64]V, len(unclaimed)/2+1)
			parentMask = h.KeyMask(l + 1)
		}
		for key, cond := range unclaimed {
			if cond >= T {
				out.Add(hhh.Item{
					Prefix:      h.PrefixOfKey(key, l),
					Count:       int64(levels[l][key]),
					Conditioned: int64(cond),
				})
				continue
			}
			if next != nil {
				next[key&parentMask] += cond
			}
		}
		unclaimed = next
	}
	return out
}

// WindowSet returns the exact HHH set of the disjoint window [lo, hi) at
// threshold fraction phi of the window's bytes, plus the window total.
func (o *Oracle) WindowSet(lo, hi int64, phi float64) (hhh.Set, int64) {
	levels, total := o.LevelCounts(lo, hi)
	if total == 0 {
		return hhh.NewSet(), 0
	}
	return conditionedSet(o.h, levels, hhh.Threshold(total, phi)), total
}

// SlidingSpan returns the inclusive start of the span a frame-ring
// sliding summary (swhh) covers at query time now. It delegates to
// swhh.Config.CoveredSince — the summary's own geometry, defaults
// included — so the oracle's reference span can never drift from the
// detector's actual coverage.
func SlidingSpan(window time.Duration, frames int, now int64) int64 {
	return swhh.Config{Window: window, Frames: frames}.CoveredSince(now)
}

// SlidingSet returns the exact HHH set over the span a frame-ring sliding
// summary covers at time now — packets with SlidingSpan <= Ts <= now — at
// threshold fraction phi, plus the covered total.
func (o *Oracle) SlidingSet(window time.Duration, frames int, now int64, phi float64) (hhh.Set, int64) {
	return o.WindowSet(SlidingSpan(window, frames, now), now+1, phi)
}

// Miss is one coverage violation: a prefix the detector should have
// reported under the checked bound but did not.
type Miss struct {
	// Prefix is the uncovered lattice prefix.
	Prefix addr.Prefix
	// Cond is the prefix's exact conditioned-given-output volume: its
	// exact subtree volume minus the exact subtree volumes of its maximal
	// descendants in the detector's report.
	Cond float64
	// Need is the threshold Cond exceeded.
	Need float64
	// Maximal is the number of maximal reported descendants discounted
	// from the prefix (each widens the permitted threshold by one sketch
	// error term).
	Maximal int
}

// uncovered walks the hierarchy bottom-up computing every prefix's
// conditioned-given-output volume — exact subtree volume minus the exact
// subtree volumes claimed by its maximal descendants in got — and reports
// the prefixes absent from got whose conditioned volume reaches
// need(maximal). need receives the number of maximal reported descendants
// feeding the prefix's discount, so callers can widen the threshold by
// one sketch error term per claim (a reported descendant's claim may
// overestimate by up to εN, over-discounting its ancestors by the same).
func uncovered[V mass](h addr.Hierarchy, levels []map[uint64]V, got hhh.Set, need func(maximal int) V) []Miss {
	var misses []Miss
	claims := map[uint64]V{}
	nclaims := map[uint64]int{}
	for l := 0; l < len(levels); l++ {
		last := l+1 >= len(levels)
		var parentMask uint64
		var nextClaims map[uint64]V
		var nextN map[uint64]int
		if !last {
			parentMask = h.KeyMask(l + 1)
			nextClaims = make(map[uint64]V, len(claims)/2+1)
			nextN = make(map[uint64]int, len(nclaims)/2+1)
		}
		for key, cnt := range levels[l] {
			d := claims[key]
			dc := nclaims[key]
			cond := cnt - d
			p := h.PrefixOfKey(key, l)
			reported := got.Contains(p)
			if !reported && cond >= need(dc) {
				misses = append(misses, Miss{
					Prefix: p, Cond: float64(cond), Need: float64(need(dc)), Maximal: dc,
				})
			}
			if last {
				continue
			}
			up, upc := d, dc
			if reported {
				up, upc = cnt, 1 // an HHH claims its whole exact subtree
			}
			if up > 0 || upc > 0 {
				parent := key & parentMask
				nextClaims[parent] += up
				nextN[parent] += upc
			}
		}
		claims, nclaims = nextClaims, nextN
	}
	return misses
}

// UncoveredCounts is uncovered over exact byte aggregates.
func UncoveredCounts(h addr.Hierarchy, levels []map[uint64]int64, got hhh.Set, need func(maximal int) int64) []Miss {
	return uncovered(h, levels, got, need)
}
