package continuous

import (
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/gen"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/tdbf"
)

// refDetector is the admission rule the detector had before exits moved
// to a sweep, kept as the reference the new rule is compared against:
// every packet re-validates every prefix of its own chain, entry and
// exit, against a map-backed active set scanned quadratically. It shares
// nothing with Detector but the filters, which it builds exactly as
// NewDetector does, and their time base, on which it tracks the total mass
// in a level of one cell (unsampled only: the sampled rule changed by
// design and has no per-packet equivalent).
type refDetector struct {
	cfg     Config
	filters []*tdbf.Filter
	total   *tdbf.Filter // one cell, key 0
	active  map[addr.Prefix]int64
	anc     []addr.Prefix
	started bool
	warmEnd int64
	pkts    int64
	// lastExit is the packet count at which each prefix last exited.
	lastExit map[addr.Prefix]int64
}

func newRefDetector(t *testing.T, cfg Config) *refDetector {
	d, err := NewDetector(cfg) // for the defaults and the per-level seeds
	if err != nil {
		t.Fatal(err)
	}
	return &refDetector{
		cfg:     d.cfg,
		filters: d.filters,
		total:   d.base.NewLevel(d.cfg.Filter, 0, 0),
		active:  make(map[addr.Prefix]int64),

		lastExit: make(map[addr.Prefix]int64),
	}
}

func (d *refDetector) estimate(p addr.Prefix, now int64) float64 {
	l := d.cfg.Hierarchy.Level(p.Bits)
	return d.filters[l].Estimate(d.cfg.Hierarchy.KeyOfPrefix(p), now)
}

func (d *refDetector) claimedUnder(p addr.Prefix, now int64) float64 {
	var claimed float64
	for h := range d.active {
		if h == p || !p.Covers(h) {
			continue
		}
		maximal := true
		for m := range d.active {
			if m != h && m != p && p.Covers(m) && m.Covers(h) {
				maximal = false
				break
			}
		}
		if maximal {
			claimed += d.estimate(h, now)
		}
	}
	return claimed
}

func (d *refDetector) Observe(src addr.Addr, bytes int64, now int64) {
	if !d.cfg.Hierarchy.Match(src) {
		return
	}
	d.anc = d.cfg.Hierarchy.Ancestors(src, d.anc[:0])
	if !d.started {
		d.started = true
		d.warmEnd = now + int64(d.cfg.Warmup)
	}
	d.pkts++
	w := float64(bytes)
	d.total.Add(0, w, now)
	for l, pre := range d.anc {
		d.filters[l].Add(d.cfg.Hierarchy.KeyOfPrefix(pre), w, now)
	}
	if now < d.warmEnd {
		return
	}
	enterT := d.cfg.Phi * d.total.Estimate(0, now)
	exitT := enterT * d.cfg.ExitRatio
	for _, p := range d.anc {
		raw := d.estimate(p, now)
		if _, isActive := d.active[p]; isActive {
			if raw < exitT || raw-d.claimedUnder(p, now) < exitT {
				d.deactivate(p, now)
			}
			continue
		}
		if raw < enterT {
			continue
		}
		if raw-d.claimedUnder(p, now) >= enterT {
			d.active[p] = now
			if d.cfg.OnEnter != nil {
				d.cfg.OnEnter(p, now)
			}
		}
	}
}

func (d *refDetector) deactivate(p addr.Prefix, now int64) {
	delete(d.active, p)
	d.lastExit[p] = d.pkts
	if d.cfg.OnExit != nil {
		d.cfg.OnExit(p, now)
	}
}

func (d *refDetector) Query(now int64) hhh.Set {
	out := hhh.Set{}
	exitT := d.cfg.Phi * d.total.Estimate(0, now) * d.cfg.ExitRatio
	prefixes := make([]addr.Prefix, 0, len(d.active))
	for p := range d.active {
		prefixes = append(prefixes, p)
	}
	for i := 1; i < len(prefixes); i++ {
		for j := i; j > 0 && refLess(prefixes[j], prefixes[j-1]); j-- {
			prefixes[j], prefixes[j-1] = prefixes[j-1], prefixes[j]
		}
	}
	type verdict struct {
		est, claim, cond, claimed float64
		keep                      bool
	}
	verdicts := make(map[addr.Prefix]*verdict, len(prefixes))
	for _, p := range prefixes {
		verdicts[p] = &verdict{est: d.estimate(p, now)}
	}
	for _, p := range prefixes {
		v := verdicts[p]
		v.cond = v.est - v.claimed
		if v.cond >= exitT {
			v.keep = true
			v.claim = v.est
		} else {
			v.claim = v.claimed
		}
		if v.claim > 0 {
			var best *verdict
			bestBits := -1
			for _, q := range prefixes {
				if q == p || !q.Covers(p) {
					continue
				}
				if int(q.Bits) > bestBits {
					bestBits = int(q.Bits)
					best = verdicts[q]
				}
			}
			if best != nil {
				best.claimed += v.claim
			}
		}
	}
	for _, p := range prefixes {
		v := verdicts[p]
		if !v.keep {
			d.deactivate(p, now)
			continue
		}
		out.Add(hhh.Item{Prefix: p, Count: int64(v.est), Conditioned: int64(v.cond)})
	}
	return out
}

func refLess(a, b addr.Prefix) bool {
	if a.Bits != b.Bits {
		return a.Bits > b.Bits
	}
	return a.Addr.Less(b.Addr)
}

// TestSweepMatchesPerPacketReference pins what moving exits to a sweep
// changes, over the seven evaluation scenarios, against the per-packet
// rule: refDetector with its whole-set re-validation (Query) run after
// every packet, so that every active prefix — not only those on the
// packet's chain — exits on the first packet at which it is under the
// exit threshold. (Left to itself refDetector keeps an off-chain prefix
// until the next Query, however stale, and that prefix's claim keeps its
// ancestors out: on port-sweep the twelve per-second Query sets of the old
// body and of this detector differ in four prefixes for that reason
// alone, each an ancestor well above the threshold that the old body
// misses.)
//
// The two active sets are compared after every packet. Hysteresis makes
// membership a matter of history, so once they differ the difference may
// travel (an ancestor's conditioned mass moves with what is active below
// it) before it closes; what is pinned is how a difference may begin, how
// its cause must end, and how rare and short-lived differences are:
//
//   - Onset. From equal sets, the detector never admits what the
//     reference does not, and the reference admits nothing more — except
//     above a prefix it has just dropped and the detector still holds,
//     whose claim the entry has to wait out. A difference only ever
//     begins with a late exit.
//   - Offset. That late exit is taken at the next sweep, at most one
//     cadence on — unless the sweep finds the prefix back inside the
//     hysteresis band [ExitRatio·φ·total, φ·total), where the per-packet
//     rule would not re-admit it and this one has no reason to drop it.
//   - The sets are equal after at least 90 % of the packets, and at every
//     second of trace time the two Query sets hold the same prefixes,
//     except prefixes inside the band.
func TestSweepMatchesPerPacketReference(t *testing.T) {
	if testing.Short() {
		t.Skip("replays seven scenarios through the quadratic reference")
	}
	const (
		duration = 12 * time.Second
		tau      = 2 * time.Second
		phi      = 0.05
	)
	for _, sc := range gen.Scenarios(duration, 41) {
		t.Run(sc.Name, func(t *testing.T) {
			pkts, err := gen.Packets(sc.Config)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				Hierarchy: sc.Hierarchy,
				Phi:       phi,
				Filter:    tdbf.Config{Cells: 1 << 14, Hashes: 4, Decay: tdbf.Exponential{Tau: tau}},
				Seed:      3,
			}
			var active [2]map[addr.Prefix]bool // reference, detector
			var enters, exits [2]int
			changed := false
			hooked := func(who int) Config {
				active[who] = map[addr.Prefix]bool{}
				c := cfg
				c.OnEnter = func(p addr.Prefix, _ int64) { active[who][p], changed = true, true; enters[who]++ }
				c.OnExit = func(p addr.Prefix, _ int64) { delete(active[who], p); changed = true; exits[who]++ }
				return c
			}
			ref := newRefDetector(t, hooked(0))
			det, err := NewDetector(hooked(1))
			if err != nil {
				t.Fatal(err)
			}

			synced := true                  // the sets were equal after the previous packet
			fresh := map[addr.Prefix]bool{} // late exits that began a difference, until the next sweep
			apart, begun, inBand := 0, 0, 0
			compare := func(now int64) {
				var extra, missing []addr.Prefix // detector only, reference only
				for p := range active[1] {
					if !active[0][p] {
						extra = append(extra, p)
					}
				}
				for p := range active[0] {
					if !active[1][p] {
						missing = append(missing, p)
					}
				}
				if synced && len(extra)+len(missing) > 0 {
					begun++
					for _, p := range extra {
						fresh[p] = true
						if ref.lastExit[p] != det.pkts {
							t.Errorf("packet %d: detector admits %v, reference does not", det.pkts, p)
						}
					}
					for _, p := range missing {
						waits := false
						for _, q := range extra {
							waits = waits || (q != p && p.Covers(q))
						}
						if !waits {
							t.Errorf("packet %d: reference admits %v, detector does not, holding nothing stale below it", det.pkts, p)
						}
					}
				}
				for p := range fresh {
					if !active[1][p] || active[0][p] {
						delete(fresh, p) // closed before a sweep saw it
					}
				}
				if det.pkts%sweepEvery == 0 {
					for p := range fresh {
						inBand++
						v := det.sweep[det.act.find(sc.Hierarchy.Level(p.Bits), sc.Hierarchy.KeyOfPrefix(p))]
						enterT := phi * det.TotalMass(now)
						if c := v.est - v.claimed; c < enterT*det.cfg.ExitRatio || c >= enterT {
							t.Errorf("packet %d: sweep kept %v, which the reference dropped, at conditioned %.0f, outside [%.0f, %.0f)",
								det.pkts, p, c, enterT*det.cfg.ExitRatio, enterT)
						}
					}
					clear(fresh)
				}
				synced = len(extra)+len(missing) == 0
				if !synced {
					apart++
				}
			}

			nextQuery := pkts[0].Ts + int64(time.Second)
			for i := range pkts {
				p := &pkts[i]
				for p.Ts >= nextQuery {
					compareQueries(t, det, ref.Query(nextQuery), det.Query(nextQuery), nextQuery)
					compare(nextQuery)
					nextQuery += int64(time.Second)
				}
				if !sc.Hierarchy.Match(p.Src) {
					continue
				}
				ref.Observe(p.Src, int64(p.Size), p.Ts)
				ref.Query(p.Ts)
				ingest(det, p.Src, int64(p.Size), p.Ts)
				if changed || !synced {
					changed = false
					compare(p.Ts)
				}
			}
			if det.pkts < 10*sweepEvery || enters[0] == 0 || exits[0] == 0 {
				t.Fatalf("scenario exercises nothing: %d packets, %d enters, %d exits", det.pkts, enters[0], exits[0])
			}
			if apart*10 > int(det.pkts) {
				t.Errorf("active sets differ after %d of %d packets", apart, det.pkts)
			}
			t.Logf("%d packets; %d enters, %d exits (reference %d, %d); %d differences begun, %d late exits found in the band, sets apart after %d packets (%.2f %%)",
				det.pkts, enters[1], exits[1], enters[0], exits[0], begun, inBand, apart, 100*float64(apart)/float64(det.pkts))
		})
	}
}

// compareQueries checks two Query sets taken at now for equal membership
// outside the hysteresis band.
func compareQueries(t *testing.T, det *Detector, ref, got hhh.Set, now int64) {
	t.Helper()
	enterT := det.cfg.Phi * det.TotalMass(now)
	exitT := enterT * det.cfg.ExitRatio
	for _, pair := range [2][2]hhh.Set{{ref, got}, {got, ref}} {
		for p, it := range pair[0] {
			if pair[1].Contains(p) {
				continue
			}
			if c := float64(it.Conditioned); c < exitT-1 || c >= enterT {
				t.Errorf("at %v: %v (conditioned %d) in one set only, outside the band [%.0f, %.0f)\n ref %v\n new %v",
					time.Duration(now), p, it.Conditioned, exitT, enterT, ref, got)
			}
		}
	}
}
