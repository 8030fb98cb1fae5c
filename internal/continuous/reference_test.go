package continuous

import (
	"maps"
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

// TestSweepMatchesPerPacketReference pins what moving exits to a sweep,
// and entry to the coalescing block's settle point, changes, over the
// seven evaluation scenarios, against the per-packet rule: refDetector
// with its whole-set re-validation (Query) run after every packet, so that
// every active prefix — not only those on the packet's chain — exits on
// the first packet at which it is under the exit threshold. (Left to
// itself refDetector keeps an off-chain prefix until the next Query,
// however stale, and that prefix's claim keeps its ancestors out: on
// port-sweep the twelve per-second Query sets of the old body and of this
// detector differ in four prefixes for that reason alone, each an ancestor
// well above the threshold that the old body misses.)
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
//     whose claim the entry has to wait out, and inside the current block,
//     whose settle point is where the detector checks entry. The detector
//     may admit first only above a prefix its sweep has just dropped: a
//     sweep that drops one checks the settled block's chains again. A
//     difference only ever begins with a late exit, an admission inside a
//     block, or one after a sweep.
//   - Offset. A late exit is taken at the next sweep, at most one cadence
//     on — unless the sweep finds the prefix back inside the hysteresis
//     band [ExitRatio·φ·total, φ·total), where the per-packet rule would
//     not re-admit it and this one has no reason to drop it, or the
//     reference dropped it for the claim of an admission inside the block
//     that the settle did not make, and with that claim it is under
//     ExitRatio·φ·total. An admission inside a block is made at the
//     block's settle point — unless the prefix's conditioned mass is under
//     φ·total there, against what the settle checked it against: the
//     active set before the sweep. An admission after a sweep is over
//     φ·total against the detector's active set, was under it against
//     what the settle checked, and the reference makes it within one
//     cadence — unless the detector drops it again first, or the reference
//     still finds it over φ·total then, waiting for a packet of its chain.
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
			fed := int64(0)                       // packets fed to the reference
			refEntered := map[addr.Prefix]int64{} // the reference's last admission of each prefix, as fed
			dropped := map[addr.Prefix]bool{}     // the detector's exits since the last comparison
			resumed := map[addr.Prefix]bool{}     // and its admissions above one of them
			hooked := func(who int) Config {
				active[who] = map[addr.Prefix]bool{}
				c := cfg
				c.OnEnter = func(p addr.Prefix, _ int64) {
					active[who][p], changed = true, true
					enters[who]++
					if who == 0 {
						refEntered[p] = fed
					}
					for q := range dropped {
						if who == 1 && q != p && p.Covers(q) {
							resumed[p] = true
						}
					}
				}
				c.OnExit = func(p addr.Prefix, _ int64) {
					delete(active[who], p)
					changed = true
					exits[who]++
					if who == 1 {
						dropped[p] = true
					}
				}
				return c
			}
			ref := newRefDetector(t, hooked(0))
			det, err := NewDetector(hooked(1))
			if err != nil {
				t.Fatal(err)
			}

			synced := true                   // the sets were equal after the previous packet
			fresh := map[addr.Prefix]bool{}  // late exits that began a difference, until the next sweep
			early := map[addr.Prefix]bool{}  // admissions inside a block that began a difference, until it settles
			ahead := map[addr.Prefix]int64{} // admissions after a sweep the reference has not made, and when
			settled, lastTs := int64(0), int64(0)
			apart, begun, inBand, unsettled, resumes := 0, 0, 0, 0, 0
			// conditioned is p's conditioned mass at at, against the
			// prefixes held.
			h := sc.Hierarchy
			conditioned := func(p addr.Prefix, at int64, held map[addr.Prefix]bool) float64 {
				est := func(q addr.Prefix) float64 { return det.filters[h.Level(q.Bits)].Estimate(h.KeyOfPrefix(q), at) }
				c := est(p)
				for q := range held {
					if q == p || !p.Covers(q) {
						continue
					}
					maximal := true
					for m := range held {
						maximal = maximal && (m == q || m == p || !p.Covers(m) || !m.Covers(q))
					}
					if maximal {
						c -= est(q)
					}
				}
				return c
			}
			// compare runs after every packet that changed either set or found
			// them apart, and after every Query; settle says the detector's
			// block settled since the previous comparison.
			compare := func(now int64, settle bool) {
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
						switch {
						case ref.lastExit[p] == det.Packets():
							fresh[p] = true
						case !resumed[p]:
							t.Errorf("packet %d: detector admits %v, reference does not", det.Packets(), p)
						}
					}
					for _, p := range missing {
						waits := false
						for _, q := range extra {
							waits = waits || (q != p && p.Covers(q))
						}
						switch {
						case refEntered[p] > settled:
							early[p] = true
						case !waits:
							t.Errorf("packet %d: reference admits %v, detector does not, holding nothing stale below it", det.Packets(), p)
						}
					}
				}
				// The sweep kept p against what the detector holds now but what
				// it admitted after the sweep; the settle checked entry against
				// that and what the sweep dropped.
				kept := maps.Clone(active[1])
				maps.DeleteFunc(kept, func(p addr.Prefix, _ bool) bool { return resumed[p] })
				checked := maps.Clone(kept)
				maps.Copy(checked, dropped)
				enterT := phi * det.TotalMass(lastTs)
				unsettledNow := map[addr.Prefix]bool{}
				if settle {
					for p := range early {
						if !active[0][p] || active[1][p] {
							continue // closed at the settle point, or dropped by the reference
						}
						unsettled++
						unsettledNow[p] = true
						if c := conditioned(p, lastTs, checked); c >= enterT*(1-1e-9) {
							t.Errorf("packet %d: settle did not admit %v, which the reference admitted in the block, at conditioned %.0f over %.0f",
								det.Packets(), p, c, enterT)
						}
					}
					clear(early)
					settled = det.Packets()
				}
				// An admission after a sweep is one the drop alone let in: over
				// φ·total against what the detector holds, under it against what
				// the settle checked. Where the reference has not made it, it
				// must within a cadence, or the detector drop it again, or the
				// reference still find it over φ·total: it checks entry on the
				// packets of a prefix's chain only.
				for p := range resumed {
					resumes++
					if c := conditioned(p, lastTs, active[1]); c < enterT*(1-1e-9) {
						t.Errorf("packet %d: sweep admitted %v at conditioned %.0f, under %.0f", det.Packets(), p, c, enterT)
					}
					if c := conditioned(p, lastTs, checked); c >= enterT*(1+1e-9) {
						t.Errorf("packet %d: settle did not admit %v at conditioned %.0f, over %.0f", det.Packets(), p, c, enterT)
					}
					if !active[0][p] {
						ahead[p] = det.Packets()
					}
				}
				for p, at := range ahead {
					switch {
					case active[0][p] || !active[1][p]:
						delete(ahead, p)
					case det.Packets()-at >= sweepEvery:
						if c, refT := ref.estimate(p, lastTs)-ref.claimedUnder(p, lastTs), phi*ref.total.Estimate(0, lastTs); c < refT {
							t.Errorf("packet %d: the reference has not admitted %v, which the sweep at packet %d did, and holds it at conditioned %.0f, under %.0f",
								det.Packets(), p, at, c, refT)
						}
						delete(ahead, p)
					}
				}
				for p := range fresh {
					if !active[1][p] || active[0][p] {
						delete(fresh, p) // closed before a sweep saw it
					}
				}
				if det.pkts%sweepEvery == 0 {
					enterT := phi * det.TotalMass(now)
					for p := range fresh {
						// The reference may have dropped p for the claim of an
						// admission the settle did not make: p is under the exit
						// threshold with it.
						claimed := maps.Clone(kept)
						for q := range unsettledNow {
							if p.Covers(q) {
								claimed[q] = true
							}
						}
						if len(claimed) > len(kept) && conditioned(p, now, claimed) < enterT*det.cfg.ExitRatio*(1+1e-9) {
							continue
						}
						inBand++
						if c := conditioned(p, now, kept); c < enterT*det.cfg.ExitRatio*(1-1e-9) || c >= enterT*(1+1e-9) {
							t.Errorf("packet %d: sweep kept %v, which the reference dropped, at conditioned %.0f, outside [%.0f, %.0f)",
								det.pkts, p, c, enterT*det.cfg.ExitRatio, enterT)
						}
					}
					clear(fresh)
				}
				clear(dropped)
				clear(resumed)
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
					compare(nextQuery, true)
					nextQuery += int64(time.Second)
				}
				if !sc.Hierarchy.Match(p.Src) {
					continue
				}
				fed++
				ref.Observe(p.Src, int64(p.Size), p.Ts)
				ref.Query(p.Ts)
				ingest(det, p.Src, int64(p.Size), p.Ts)
				lastTs = p.Ts
				if sweep := det.pkts%sweepEvery == 0; changed || !synced || sweep {
					changed = false
					compare(p.Ts, sweep)
				}
			}
			if det.pkts < 10*sweepEvery || enters[0] == 0 || exits[0] == 0 {
				t.Fatalf("scenario exercises nothing: %d packets, %d enters, %d exits", det.pkts, enters[0], exits[0])
			}
			if apart*10 > int(det.pkts) {
				t.Errorf("active sets differ after %d of %d packets", apart, det.pkts)
			}
			t.Logf("%d packets; %d enters, %d exits (reference %d, %d); %d differences begun, %d late exits found in the band, %d admissions inside a block under φ·total at its settle point, %d admissions after a sweep, sets apart after %d packets (%.2f %%)",
				det.pkts, enters[1], exits[1], enters[0], exits[0], begun, inBand, unsettled, resumes, apart, 100*float64(apart)/float64(det.pkts))
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
