package continuous

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/gen"
	"hiddenhhh/internal/hashx"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/tdbf"
	"hiddenhhh/internal/trace"
)

// settleRef is the settle-point rule the detector implements, transliterated
// onto addr.Prefix and maps: a block of distinct leaves in first-arrival
// order, settled every `every` packets before the sweep, and whenever a read
// or a landmark roll-over needs it. It takes from a throwaway Detector its
// filters, their tdbf.Base, the mass tracker, scale and sampler seed, and
// nothing else — no activeSet, no block, no skip bound. At every = sweepEvery
// the detector must match it exactly. At every = 1 each packet settles and
// sweeps: the per-packet rule, save that an exit caused by the same packet's
// admission below it waits for the next packet's sweep.
type settleRef struct {
	cfg     Config
	h       addr.Hierarchy
	every   uint64
	base    *tdbf.Base
	filters []*tdbf.Filter
	total   *tdbf.MassTracker
	scale   float64
	rng     uint64
	active  map[addr.Prefix]bool
	started bool
	warmEnd int64
	pkts    uint64
	// The block: its leaves in first-arrival order and their mass sums, and
	// the last packet's stamp and up factor.
	leaves []addr.Prefix
	sums   map[addr.Prefix]float64
	now    int64
	up     float64
}

func newSettleRef(t *testing.T, cfg Config, every uint64) *settleRef {
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &settleRef{
		cfg: d.cfg, h: d.cfg.Hierarchy, every: every,
		base: d.base, filters: d.filters, total: d.total, scale: d.scale, rng: d.rng,
		active: map[addr.Prefix]bool{}, sums: map[addr.Prefix]float64{},
	}
}

func (r *settleRef) estimate(p addr.Prefix, now int64) float64 {
	return r.filters[r.h.Level(p.Bits)].Estimate(r.h.KeyOfPrefix(p), now) * r.scale
}

// sorted returns the active set in ascending (level, key) order, the order
// the detector's active set keeps and sums its claims in.
func (r *settleRef) sorted() []addr.Prefix {
	out := make([]addr.Prefix, 0, len(r.active))
	for p := range r.active {
		out = append(out, p)
	}
	slices.SortFunc(out, func(a, b addr.Prefix) int {
		return cmp.Or(cmp.Compare(r.h.Level(a.Bits), r.h.Level(b.Bits)), cmp.Compare(r.h.KeyOfPrefix(a), r.h.KeyOfPrefix(b)))
	})
	return out
}

// parent returns p's nearest active strict ancestor.
func (r *settleRef) parent(p addr.Prefix) (addr.Prefix, bool) {
	for l := r.h.Level(p.Bits) + 1; l < r.h.Levels(); l++ {
		if a := r.h.At(p.Addr, l); r.active[a] {
			return a, true
		}
	}
	return addr.Prefix{}, false
}

func (r *settleRef) observe(src addr.Addr, bytes int64, now int64) {
	if !r.h.Match(src) {
		return
	}
	if len(r.leaves) > 0 && r.base.Rolls(now) {
		r.settle(false)
	}
	up := r.base.Ahead([]int64{now})[0]
	if !r.started {
		r.started, r.warmEnd = true, min(clock(now)+clock(int64(r.cfg.Filter.Decay.Tau)), endOfTime)
	}
	r.pkts++
	w := float64(bytes) * up
	if r.cfg.Sampled {
		r.sample(src, w, now, up)
		return
	}
	r.total.AddScaled(w)
	leaf := r.h.At(src, 0)
	if _, ok := r.sums[leaf]; !ok {
		r.leaves = append(r.leaves, leaf)
	}
	r.sums[leaf] += w
	r.now, r.up = now, up
	if r.pkts%r.every == 0 {
		r.settle(true)
	}
}

// sample writes one level drawn from the detector's sampler stream, checks
// it on the spot and sweeps every `every` packets.
func (r *settleRef) sample(src addr.Addr, w float64, now int64, up float64) {
	down := r.base.Enter(now, up)
	total := r.total.AddScaled(w) * down
	var l int
	r.rng, l = hashx.Level(r.rng, uint64(len(r.filters)))
	p := r.h.At(src, l)
	est := r.filters[l].AddScaled(r.h.KeyOfPrefix(p), w) * down * r.scale
	if clock(now) < r.warmEnd {
		return
	}
	if !r.active[p] {
		r.check(p, est, now, r.cfg.Phi*total)
	}
	if r.pkts%r.every == 0 {
		r.sweep(now)
	}
}

// settle writes the block level by level bottom-up, each level's inactive
// prefixes checked once after its writes, in first-arrival order; with
// sweep, the sweep follows, and a drop runs the checks again.
func (r *settleRef) settle(sweep bool) {
	if len(r.leaves) == 0 {
		return
	}
	r.base.Enter(r.now, r.up)
	warm := clock(r.now) >= r.warmEnd
	enterT := math.Inf(1)
	if warm {
		enterT = r.cfg.Phi * r.total.Value(r.now)
	}
	for l, f := range r.filters {
		for _, leaf := range r.leaves {
			f.AddScaled(r.h.KeyOfPrefix(r.h.At(leaf.Addr, l)), r.sums[leaf])
		}
		r.checkLevel(l, enterT)
	}
	if sweep && warm {
		if _, dropped := r.sweep(r.now); dropped {
			for l := range r.filters {
				r.checkLevel(l, enterT)
			}
		}
	}
	r.leaves = r.leaves[:0]
	clear(r.sums)
}

func (r *settleRef) checkLevel(l int, enterT float64) {
	seen := map[addr.Prefix]bool{}
	for _, leaf := range r.leaves {
		if p := r.h.At(leaf.Addr, l); !seen[p] && !r.active[p] {
			seen[p] = true
			r.check(p, r.estimate(p, r.now), r.now, enterT)
		}
	}
}

// check is the entry check of the inactive p at estimate est. Its claim is
// the sum over its maximal active strict descendants — those whose nearest
// active ancestor is above p — in ascending (level, key) order.
func (r *settleRef) check(p addr.Prefix, est float64, now int64, enterT float64) {
	if est < enterT {
		return
	}
	var claimed float64
	for _, q := range r.sorted() {
		if a, ok := r.parent(q); q != p && p.Covers(q) && (!ok || !p.Covers(a)) {
			claimed += r.estimate(q, now)
		}
	}
	if est-claimed >= enterT {
		r.active[p] = true
		r.cfg.OnEnter(p, now)
	}
}

type refVerdict struct{ est, claimed float64 }

// sweep re-validates the whole active set at now, leaf to root: a prefix is
// kept while its estimate less its claim is at least 0.9·φ·total, and
// passes its estimate, or if dropped its claim, to its nearest active
// ancestor. It returns the verdicts and whether a prefix exited.
func (r *settleRef) sweep(now int64) (map[addr.Prefix]*refVerdict, bool) {
	act := r.sorted()
	exitT := r.cfg.Phi * r.total.Value(now) * 0.9
	v := map[addr.Prefix]*refVerdict{}
	for _, p := range act {
		v[p] = &refVerdict{est: r.estimate(p, now)}
	}
	var drop []addr.Prefix
	for _, p := range act {
		pass := v[p].est
		if v[p].est-v[p].claimed < exitT {
			pass, drop = v[p].claimed, append(drop, p)
		}
		if a, ok := r.parent(p); ok {
			v[a].claimed += pass
		}
	}
	for _, p := range drop {
		delete(r.active, p)
		r.cfg.OnExit(p, now)
	}
	return v, len(drop) > 0
}

// Query settles, sweeps and reports the kept prefixes with the sweep's
// verdicts.
func (r *settleRef) Query(now int64) hhh.Set {
	r.settle(false)
	v, _ := r.sweep(now)
	out := hhh.Set{}
	for p := range r.active {
		out.Add(hhh.Item{Prefix: p, Count: tdbf.SatInt64(v[p].est), Conditioned: tdbf.SatInt64(v[p].est - v[p].claimed)})
	}
	return out
}

// refEvent is one OnEnter or OnExit call.
type refEvent struct {
	p     addr.Prefix
	at    int64
	enter bool
}

// TestDetectorMatchesSettleReference holds the detector to settleRef at its
// own cadence with zero tolerance: the same OnEnter/OnExit calls in the same
// order at the same instants, and the same Query items at every second, on
// the seven scenarios, unsampled and sampled, at τ = 2 s and at τ = 50 ms
// (which rolls the landmark over). The detector is fed in the runs
// trace.Cutter cuts at each second.
func TestDetectorMatchesSettleReference(t *testing.T) {
	for _, tau := range []time.Duration{2 * time.Second, 50 * time.Millisecond} {
		for _, sampled := range []bool{false, true} {
			for _, sc := range gen.Scenarios(12*time.Second, 41) {
				t.Run(fmt.Sprintf("%s/tau=%v/sampled=%v", sc.Name, tau, sampled), func(t *testing.T) {
					pkts, err := gen.Packets(sc.Config)
					if err != nil {
						t.Fatal(err)
					}
					var events [2][]refEvent // reference, detector
					hooked := func(who int) Config {
						return Config{
							Hierarchy: sc.Hierarchy,
							Phi:       0.05,
							Filter:    tdbf.Config{Cells: 1 << 14, Hashes: 4, Decay: tdbf.Exponential{Tau: tau}},
							Sampled:   sampled,
							Seed:      3,
							OnEnter:   func(p addr.Prefix, at int64) { events[who] = append(events[who], refEvent{p, at, true}) },
							OnExit:    func(p addr.Prefix, at int64) { events[who] = append(events[who], refEvent{p, at, false}) },
						}
					}
					ref := newSettleRef(t, hooked(0), sweepEvery)
					det, err := NewDetector(hooked(1))
					if err != nil {
						t.Fatal(err)
					}
					compared, queries := 0, 0
					same := func(where string) {
						want, got := events[0], events[1]
						for i := range max(len(want), len(got)) {
							if i >= len(want) || i >= len(got) || want[i] != got[i] {
								t.Fatalf("%s: event %d differs:\n ref %v\n det %v", where, compared+i,
									want[i:min(i+1, len(want))], got[i:min(i+1, len(got))])
							}
						}
						compared += len(want)
						events[0], events[1] = want[:0], got[:0]
					}
					var b trace.KeyBatch
					cut := trace.Cutter{Step: int64(time.Second)}
					cut.Feed(pkts, func(run []trace.Packet) {
						b.Reset()
						b.AppendPackets(sc.Hierarchy, run)
						det.ObserveKeys(&b)
						for _, p := range run {
							ref.observe(p.Src, int64(p.Size), p.Ts)
						}
						same(fmt.Sprintf("after the run to %v", time.Duration(run[len(run)-1].Ts)))
					}, func(at int64) {
						want, got := ref.Query(at), det.Query(at)
						same(fmt.Sprintf("Query(%v)", time.Duration(at)))
						if queries++; !maps.Equal(want, got) {
							t.Fatalf("Query(%v) differs:\n ref %v\n det %v", time.Duration(at), want, got)
						}
					})
					if compared == 0 {
						t.Fatalf("%d packets and %d queries fired no event", det.Packets(), queries)
					}
					t.Logf("%d packets, %d events and %d queries identical", det.Packets(), compared, queries)
				})
			}
		}
	}
}

// TestSweepMatchesPerPacketReference states how far the detector lies from
// the per-packet rule, settleRef(1), over the seven scenarios: the two active
// sets are equal after at least 90 % of the packets, and at every second the
// two Query sets hold the same prefixes, except prefixes inside the
// hysteresis band. Hysteresis makes membership a matter of history, so a
// difference may travel before it closes, and no bound per difference is
// stated; TestDetectorMatchesSettleReference pins every settle and sweep.
func TestSweepMatchesPerPacketReference(t *testing.T) {
	if testing.Short() {
		t.Skip("replays seven scenarios through the per-packet rule")
	}
	for _, sc := range gen.Scenarios(12*time.Second, 41) {
		t.Run(sc.Name, func(t *testing.T) {
			pkts, err := gen.Packets(sc.Config)
			if err != nil {
				t.Fatal(err)
			}
			var active [2]map[addr.Prefix]bool // reference, detector
			var enters, exits [2]int
			hooked := func(who int) Config {
				active[who] = map[addr.Prefix]bool{}
				return Config{
					Hierarchy: sc.Hierarchy,
					Phi:       0.05,
					Filter:    tdbf.Config{Cells: 1 << 14, Hashes: 4, Decay: tdbf.Exponential{Tau: 2 * time.Second}},
					Seed:      3,
					OnEnter:   func(p addr.Prefix, _ int64) { active[who][p] = true; enters[who]++ },
					OnExit:    func(p addr.Prefix, _ int64) { delete(active[who], p); exits[who]++ },
				}
			}
			ref := newSettleRef(t, hooked(0), 1)
			det, err := NewDetector(hooked(1))
			if err != nil {
				t.Fatal(err)
			}
			apart := 0
			nextQuery := pkts[0].Ts + int64(time.Second)
			for _, p := range pkts {
				for p.Ts >= nextQuery {
					compareQueries(t, det, ref.Query(nextQuery), det.Query(nextQuery), nextQuery)
					if !maps.Equal(active[0], active[1]) {
						apart++
					}
					nextQuery += int64(time.Second)
				}
				if !sc.Hierarchy.Match(p.Src) {
					continue
				}
				ref.observe(p.Src, int64(p.Size), p.Ts)
				ingest(det, p.Src, int64(p.Size), p.Ts)
				if !maps.Equal(active[0], active[1]) {
					apart++
				}
			}
			if det.pkts < 10*sweepEvery || enters[0] == 0 || exits[0] == 0 {
				t.Fatalf("scenario exercises nothing: %d packets, %d enters, %d exits", det.pkts, enters[0], exits[0])
			}
			if apart*10 > int(det.pkts) {
				t.Errorf("active sets differ after %d of %d packets", apart, det.pkts)
			}
			t.Logf("%d packets; %d enters, %d exits (reference %d, %d); sets apart after %d packets (%.2f %%)",
				det.pkts, enters[1], exits[1], enters[0], exits[0], apart, 100*float64(apart)/float64(det.pkts))
		})
	}
}

// compareQueries checks two Query sets taken at now for equal membership
// outside the hysteresis band.
func compareQueries(t *testing.T, det *Detector, ref, got hhh.Set, now int64) {
	t.Helper()
	enterT := det.cfg.Phi * det.TotalMass(now)
	exitT := enterT * ExitRatio
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
