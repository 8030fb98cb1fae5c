package swhh

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/trace"
)

func TestMementoConfigValidation(t *testing.T) {
	if _, err := NewMemento(Config{Window: 0}); err == nil {
		t.Error("zero window should fail")
	}
	m, err := NewMemento(Config{Window: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if m.cfg.Frames != 8 || m.cfg.Counters != 512 {
		t.Errorf("defaults not applied: %+v", m.cfg)
	}
	if len(m.idx) < 4*512 || len(m.idx)&(len(m.idx)-1) != 0 {
		t.Errorf("index size %d not a power of two >= 4x capacity", len(m.idx))
	}
}

// TestMementoEpochTimestampFirstPacket mirrors the WCSS frame-advance
// spin regression: the first packet of an epoch-nanosecond trace must
// land via one wholesale jump, for the flat table and for both ingest
// paths of the level-sampled wrapper.
func TestMementoEpochTimestampFirstPacket(t *testing.T) {
	m, err := NewMemento(Config{Window: time.Second, Frames: 8, Counters: 64})
	if err != nil {
		t.Fatal(err)
	}
	epoch := int64(1_700_000_000_000_000_000)
	start := time.Now()
	m.Update(7, 100, epoch)
	if el := time.Since(start); el > time.Second {
		t.Fatalf("first epoch-timestamp update took %v", el)
	}
	if got := m.Estimate(7, epoch); got != 100 {
		t.Errorf("estimate = %d, want 100", got)
	}
	if got := m.WindowTotal(epoch); got != 100 {
		t.Errorf("total = %d, want 100", got)
	}
	h := addr.NewIPv4Hierarchy(addr.Byte)
	d, err := NewMementoHHH(h, Config{Window: time.Second, Frames: 8, Counters: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	ingest(d, addr.MustParseAddr("10.1.2.3"), 100, epoch)
	d.UpdateKeys(pack(h, []trace.Packet{{Ts: epoch + 1, Src: addr.MustParseAddr("10.1.2.4"), Size: 50}}))
	if el := time.Since(start); el > time.Second {
		t.Fatalf("MementoHHH epoch ingest took %v", el)
	}
	if got := d.WindowTotal(epoch + 1); got != 150 {
		t.Errorf("MementoHHH total = %d, want 150", got)
	}
}

func TestMementoIdleGapAdvances(t *testing.T) {
	m, err := NewMemento(Config{Window: 8 * time.Millisecond, Frames: 8, Counters: 64})
	if err != nil {
		t.Fatal(err)
	}
	m.Update(7, 100, 0)
	start := time.Now()
	m.Update(9, 50, int64(time.Hour))
	if el := time.Since(start); el > time.Second {
		t.Fatalf("1h-gap update took %v", el)
	}
	if got := m.Estimate(7, int64(time.Hour)); got != 0 {
		t.Errorf("pre-gap key not expired: %d", got)
	}
	if got := m.WindowTotal(int64(time.Hour)); got != 50 {
		t.Errorf("post-gap total = %d, want 50", got)
	}
}

func TestMementoWindowMechanics(t *testing.T) {
	m, err := NewMemento(Config{Window: time.Second, Frames: 4, Counters: 64})
	if err != nil {
		t.Fatal(err)
	}
	m.Update(7, 100, 0)
	m.Update(7, 50, sec/2)
	if got := m.Estimate(7, sec/2); got != 150 {
		t.Errorf("estimate = %d, want 150", got)
	}
	// After W(1+1/k) = 1.25 s the frame-0 mass must be fully expired.
	if got := m.Estimate(7, sec+sec/4+1); got != 50 {
		t.Errorf("estimate after partial expiry = %d, want 50", got)
	}
	if got := m.Estimate(7, 2*sec); got != 0 {
		t.Errorf("estimate after full expiry = %d, want 0", got)
	}
	if got := m.WindowTotal(2 * sec); got != 0 {
		t.Errorf("stale total = %d", got)
	}
	if m.n != 0 {
		t.Errorf("expired entries not compacted: n = %d", m.n)
	}
}

func TestMementoCoverageBounds(t *testing.T) {
	// A steady 1-unit-per-ms flow: the windowed total must land between W
	// and W(1+1/k) worth of traffic — identical geometry to the WCSS ring.
	m, err := NewMemento(Config{Window: time.Second, Frames: 8, Counters: 64})
	if err != nil {
		t.Fatal(err)
	}
	now := int64(0)
	for i := 0; i < 5000; i++ {
		now += int64(time.Millisecond)
		m.Update(1, 1, now)
	}
	got := m.WindowTotal(now)
	if got < 1000 || got > 1125+1 {
		t.Errorf("window total %d outside [1000, 1126]", got)
	}
	if est := m.Estimate(1, now); est != got {
		t.Errorf("single-key estimate %d != total %d", est, got)
	}
}

// HeavyKeys returns the keys whose windowed estimate reaches the fraction
// phi of the covered total at time now. One pass over the live entries —
// no per-frame candidate collection or dedup.
func (m *Memento) HeavyKeys(phi float64, now int64) []sketch.KV {
	m.advance(now)
	var total int64
	for _, t := range m.totals {
		total += t
	}
	if total == 0 {
		return nil
	}
	threshold := hhh.Threshold(total, phi)
	var out []sketch.KV
	for e := 0; e < m.n; e++ {
		if m.counts[e] >= threshold {
			out = append(out, sketch.KV{Key: m.keys[e], Count: m.counts[e]})
		}
	}
	return out
}

func TestMementoHeavyKeysFindsHeavy(t *testing.T) {
	m, err := NewMemento(Config{Window: time.Second, Frames: 8, Counters: 128})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	now := int64(0)
	for i := 0; i < 20000; i++ {
		now += int64(50 * time.Microsecond)
		if i%4 == 0 {
			m.Update(42, 1000, now)
		} else {
			m.Update(uint64(rng.Intn(5000))+100, 100, now)
		}
	}
	found := false
	for _, kv := range m.HeavyKeys(0.2, now) {
		if kv.Key == 42 {
			found = true
		}
	}
	if !found {
		t.Fatal("heavy key missing")
	}
	if hk := m.HeavyKeys(0.2, now+10*sec); len(hk) != 0 {
		t.Errorf("stale heavy keys: %v", hk)
	}
}

func TestMementoHeavyKeysEmptyWindow(t *testing.T) {
	m, err := NewMemento(Config{Window: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if hk := m.HeavyKeys(0.01, 0); hk != nil {
		t.Errorf("empty window returned %v", hk)
	}
}

// TestMementoEvictionOverflow drives far more distinct keys than the
// table holds: the persistent heavy key must survive eviction pressure
// with an estimate that upper-bounds its true mass, and the tracked error
// slop must never exceed the count.
func TestMementoEvictionOverflow(t *testing.T) {
	m, err := NewMemento(Config{Window: time.Second, Frames: 4, Counters: 32})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	now := int64(0)
	var heavyTrue int64
	for i := 0; i < 50000; i++ {
		now += int64(10 * time.Microsecond)
		if i%5 == 0 {
			m.Update(42, 500, now)
			heavyTrue += 500
		} else {
			m.Update(uint64(rng.Intn(100000))+100, 100, now)
		}
	}
	// The whole run fits inside one window (0.5 s span), so nothing has
	// expired: the heavy key's estimate must be an upper bound on its
	// true mass.
	if est := m.Estimate(42, now); est < heavyTrue {
		t.Errorf("estimate %d undercuts true mass %d", est, heavyTrue)
	}
	for e := 0; e < m.n; e++ {
		if m.errs[e] > m.counts[e] || m.errs[e] < 0 {
			t.Fatalf("entry %d: err %d outside [0, count %d]", e, m.errs[e], m.counts[e])
		}
		var sum int64
		for s := int64(0); s < m.ring; s++ {
			sum += m.cells[int64(e)*m.ring+s]
		}
		if sum != m.counts[e] {
			t.Fatalf("entry %d: cells sum %d != count %d", e, sum, m.counts[e])
		}
	}
}

// TestMementoMatchesSlidingExactRegime: with ample capacity (no
// evictions) and no level sampling, the flat Memento and the WCSS
// Sliding are both exact and must agree key for key, frame for frame.
func TestMementoMatchesSlidingExactRegime(t *testing.T) {
	cfg := Config{Window: time.Second, Frames: 4, Counters: 256}
	m, err := NewMemento(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSliding(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	now := int64(0)
	for i := 0; i < 30000; i++ {
		now += int64(100 * time.Microsecond)
		key, w := uint64(rng.Intn(100)), int64(rng.Intn(1500)+40)
		m.Update(key, w, now)
		s.Update(key, w, now)
	}
	if mt, st := m.WindowTotal(now), s.WindowTotal(now); mt != st {
		t.Fatalf("totals diverge: memento %d, wcss %d", mt, st)
	}
	for key := uint64(0); key < 100; key++ {
		if me, se := m.Estimate(key, now), s.Estimate(key, now); me != se {
			t.Errorf("key %d: memento %d != wcss %d", key, me, se)
		}
	}
}

func TestMementoMergeDisjointExact(t *testing.T) {
	cfg := Config{Window: time.Second, Frames: 4, Counters: 64}
	mk := func() *Memento {
		m, err := NewMemento(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b, whole := mk(), mk(), mk()
	now := int64(0)
	for i := 0; i < 2000; i++ {
		now += int64(time.Millisecond)
		keyA, keyB := uint64(i%7), uint64(100+i%5)
		a.Update(keyA, 10, now)
		whole.Update(keyA, 10, now)
		b.Update(keyB, 3, now)
		whole.Update(keyB, 3, now)
	}
	a.Advance(now)
	b.Advance(now)
	merged := mk()
	merged.Merge(a)
	merged.Merge(b)
	if got, want := merged.WindowTotal(now), whole.WindowTotal(now); got != want {
		t.Errorf("merged total %d != whole %d", got, want)
	}
	for _, key := range []uint64{0, 3, 6, 100, 104} {
		if got, want := merged.Estimate(key, now), whole.Estimate(key, now); got != want {
			t.Errorf("key %d: merged %d != whole %d", key, got, want)
		}
	}
}

func TestMementoMergeAlignsFrames(t *testing.T) {
	cfg := Config{Window: time.Second, Frames: 4, Counters: 64}
	old, err := NewMemento(cfg)
	if err != nil {
		t.Fatal(err)
	}
	old.Update(7, 100, 0)
	fresh, err := NewMemento(cfg)
	if err != nil {
		t.Fatal(err)
	}
	later := 3 * int64(time.Second)
	fresh.Update(9, 50, later)
	fresh.Merge(old)
	if got := fresh.Estimate(7, later); got != 0 {
		t.Errorf("expired key resurfaced with %d", got)
	}
	if got := fresh.WindowTotal(later); got != 50 {
		t.Errorf("total = %d, want 50", got)
	}
	old2, err := NewMemento(cfg)
	if err != nil {
		t.Fatal(err)
	}
	old2.Update(7, 100, 0)
	old2.Merge(fresh)
	if got := old2.Estimate(7, later); got != 0 {
		t.Errorf("receiver kept expired mass: %d", got)
	}
	if got := old2.Estimate(9, later); got != 50 {
		t.Errorf("merged-in key = %d, want 50", got)
	}
}

func TestMementoMergeConfigMismatch(t *testing.T) {
	a, _ := NewMemento(Config{Window: time.Second, Frames: 4})
	b, _ := NewMemento(Config{Window: time.Second, Frames: 8})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on frame-count mismatch")
		}
	}()
	a.Merge(b)
}

// TestMementoHHHMergeIdentity: merging one detector into an empty one
// reproduces the original's HHH set exactly (the K=1 sharded case).
func TestMementoHHHMergeIdentity(t *testing.T) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	cfg := Config{Window: time.Second, Frames: 4, Counters: 128}
	src, err := NewMementoHHH(h, cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	now := int64(0)
	for i := 0; i < 20000; i++ {
		now += int64(50 * time.Microsecond)
		if i%3 == 0 {
			ingest(src, addr.MustParseAddr("10.1.2.3"), 900, now)
		} else {
			ingest(src, addr.From4Uint32(rng.Uint32()), 400, now)
		}
	}
	src.Advance(now)
	dst, err := NewMementoHHH(h, cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	dst.Merge(src)
	want, got := src.Query(0.05, now), dst.Query(0.05, now)
	if !got.Equal(want) {
		t.Fatalf("merged copy differs:\n got %v\nwant %v", got, want)
	}
	for p, it := range want {
		if got[p].Count != it.Count || got[p].Conditioned != it.Conditioned {
			t.Errorf("%v: merged %+v != original %+v", p, got[p], it)
		}
	}
	if got, want := dst.WindowTotal(now), src.WindowTotal(now); got != want {
		t.Errorf("merged total %d != original %d", got, want)
	}
}

// TestMementoHHHDetectsBoundaryBurst mirrors the motivating WCSS
// scenario on the sampled engine: a burst split across a would-be
// disjoint window boundary stays visible, and expires afterwards.
// TestMementoTotalsSaturate: restored with 2⁶² bytes in each of two
// frames — in the detector's totals ring, and just under that in one leaf
// entry — a Memento HHH detector sums past int64. WindowTotal, Query and
// Merge saturate at MaxInt64 instead of wrapping: the window total to
// MinInt64, and to 0 once merged with a copy of itself.
func TestMementoTotalsSaturate(t *testing.T) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	cfg := Config{Window: time.Second, Frames: 4, Counters: 8}
	leaf := addr.MustParsePrefix("10.0.0.1/32")
	restore := func() *MementoHHH {
		t.Helper()
		d, err := NewMementoHHH(h, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		cells := []int64{1 << 62, 1<<62 - 1, 0, 0, 0}
		lv, err := RestoreMemento(d.Config(), MementoState{CurFrame: 1,
			Keys: []uint64{h.KeyOfPrefix(leaf)}, Counts: []int64{math.MaxInt64}, Errs: []int64{0},
			Cells: cells, Totals: cells})
		if err != nil {
			t.Fatal(err)
		}
		st := d.State()
		st.CurFrame, st.Totals, st.Levels[0] = 1, []int64{1 << 62, 1 << 62, 0, 0, 0}, lv
		if d, err = RestoreMementoHHH(h, cfg, st); err != nil {
			t.Fatal(err)
		}
		return d
	}
	d := restore()
	now := d.frameNs // inside frame 1
	check := func(when string) {
		t.Helper()
		if got := d.WindowTotal(now); got != math.MaxInt64 {
			t.Fatalf("%s: window total %d, want MaxInt64", when, got)
		}
		if it, ok := d.Query(0.5, now)[leaf]; !ok || it.Count != math.MaxInt64 {
			t.Fatalf("%s: leaf reported %v (%v), want a saturated count", when, it, ok)
		}
	}
	check("restored")
	d.Merge(restore())
	check("merged")
}

func TestMementoHHHDetectsBoundaryBurst(t *testing.T) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	d, err := NewMementoHHH(h, Config{Window: 2 * time.Second, Frames: 8, Counters: 128}, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	attacker := addr.MustParseAddr("203.0.113.7")
	now := int64(0)
	var atBoundary hhh.Set
	for i := 0; i < 40000; i++ {
		now += sec / 2000
		ingest(d, addr.From4Uint32(rng.Uint32()), 500, now)
		if now > 9500*int64(time.Millisecond) && now < 10500*int64(time.Millisecond) {
			ingest(d, attacker, 1000, now)
		}
		if atBoundary == nil && now >= 10*sec {
			atBoundary = d.Query(0.05, now)
		}
	}
	if !atBoundary.Contains(addr.Host(attacker)) {
		t.Fatalf("memento HHH missed mid-burst attacker: %v", atBoundary)
	}
	if final := d.Query(0.05, now); final.Contains(addr.Host(attacker)) {
		t.Fatalf("attacker still reported 10 s after burst: %v", final)
	}
	if d.SizeBytes() <= 0 {
		t.Error("SizeBytes")
	}
}

// TestMementoKeyBatchMatchesUpdate pins that how a stream is cut into
// batches leaves no trace in the level-sampled engine: the sampling
// sequence advances once per packet in stream order and every table ages
// at every frame change, so one packet at a time or in chunks of any size
// the sampler, the totals ring and every level's table end up identical.
func TestMementoKeyBatchMatchesUpdate(t *testing.T) {
	pkts := dualStackStream(11, 24000)
	last := pkts[len(pkts)-1].Ts
	cfg := Config{Window: 4 * time.Second, Frames: 8, Counters: 64}
	for name, h := range map[string]addr.Hierarchy{
		"ipv4-byte":   addr.NewIPv4Hierarchy(addr.Byte),
		"ipv6-hextet": addr.NewIPv6Hierarchy(addr.Hextet),
	} {
		t.Run(name, func(t *testing.T) {
			var ref *MementoHHH
			for _, bs := range chunkSizes(len(pkts)) {
				got, err := NewMementoHHH(h, cfg, 21)
				if err != nil {
					t.Fatal(err)
				}
				for off := 0; off < len(pkts); off += bs {
					end := min(off+bs, len(pkts))
					got.UpdateKeys(pack(h, pkts[off:end]))
				}
				if ref == nil {
					ref = got
					if ref.Query(0.02, last).Len() == 0 {
						t.Fatal("empty reference query: the run proves nothing")
					}
					continue
				}
				g, w := got.State(), ref.State()
				if g.Sampler != w.Sampler || g.CurFrame != w.CurFrame || !slices.Equal(g.Totals, w.Totals) {
					t.Fatalf("chunk %d: sampler %#x clock %d totals %v != per-packet %#x %d %v",
						bs, g.Sampler, g.CurFrame, g.Totals, w.Sampler, w.CurFrame, w.Totals)
				}
				for l := range w.Levels {
					if !reflect.DeepEqual(g.Levels[l].State(), w.Levels[l].State()) {
						t.Fatalf("chunk %d: level %d table differs from per-packet ingest", bs, l)
					}
				}
				if gs, want := got.Query(0.02, last), ref.Query(0.02, last); !gs.Equal(want) {
					t.Fatalf("chunk %d: query diverged:\nbatch: %v\nref:   %v", bs, gs, want)
				}
			}
		})
	}
}

// TestResetPreservesFrameClock is the Reset regression test for both
// sliding engines: Reset must keep the frame clock so a summary that is
// cleared and reused (the barrier accumulator, a quarantine replacement)
// keeps addressing the same global frames. Pre-epoch timestamps expose
// the old rewind-to-0 behaviour observably: with the clock rewound to
// frame 0, post-reset updates at negative timestamps would land
// "in the future" and never expire.
func TestResetPreservesFrameClock(t *testing.T) {
	cfg := Config{Window: time.Second, Frames: 4, Counters: 64}
	t0 := -100 * sec // pre-epoch stream
	check := func(t *testing.T, est func(key uint64, now int64) int64,
		update func(key uint64, w, now int64), reset func()) {
		update(1, 10, t0)
		reset()
		update(7, 50, t0+sec/4)
		if got := est(7, t0+sec/4); got != 50 {
			t.Fatalf("post-reset estimate = %d, want 50", got)
		}
		// Two windows later — still pre-epoch — the post-reset mass must
		// have expired. A rewound clock would have filed it under frame 0
		// (the epoch), where no pre-epoch advance could ever expire it.
		if got := est(7, t0+2*sec); got != 0 {
			t.Fatalf("post-reset mass never expired: %d", got)
		}
	}
	t.Run("wcss", func(t *testing.T) {
		s, err := NewSliding(cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(t, s.Estimate, func(k uint64, w, now int64) { s.Update(k, w, now) }, s.Reset)
	})
	t.Run("memento", func(t *testing.T) {
		m, err := NewMemento(cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(t, m.Estimate, func(k uint64, w, now int64) { m.Update(k, w, now) }, m.Reset)
	})
}

// TestNegativeTimestamps pins floored frame assignment for pre-epoch
// streams on both engines: coverage, expiry and merge behave exactly as
// they do for positive timestamps, and CoveredSince agrees with the
// frame the mass actually lands in.
func TestNegativeTimestamps(t *testing.T) {
	cfg := Config{Window: time.Second, Frames: 4, Counters: 64}
	type engine interface {
		Estimate(key uint64, now int64) int64
		WindowTotal(now int64) int64
	}
	run := func(t *testing.T, e engine, update func(key uint64, w, now int64)) {
		t0 := -10 * sec
		update(7, 100, t0)
		update(7, 50, t0+sec/2)
		if got := e.Estimate(7, t0+sec/2); got != 150 {
			t.Errorf("estimate = %d, want 150", got)
		}
		if got := e.WindowTotal(t0 + sec/2); got != 150 {
			t.Errorf("total = %d, want 150", got)
		}
		// W(1+1/k) past t0: the first update's frame has expired.
		if got := e.Estimate(7, t0+sec+sec/4+1); got != 50 {
			t.Errorf("estimate after partial expiry = %d, want 50", got)
		}
		if got := e.Estimate(7, t0+2*sec); got != 0 {
			t.Errorf("estimate after full expiry = %d, want 0", got)
		}
		// CoveredSince stays below the times whose mass is still counted.
		if cs := cfg.CoveredSince(t0 + sec/2); cs > t0 {
			t.Errorf("CoveredSince(%d) = %d, after first update %d", t0+sec/2, cs, t0)
		}
	}
	t.Run("wcss", func(t *testing.T) {
		s, err := NewSliding(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run(t, s, func(k uint64, w, now int64) { s.Update(k, w, now) })
	})
	t.Run("memento", func(t *testing.T) {
		m, err := NewMemento(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run(t, m, func(k uint64, w, now int64) { m.Update(k, w, now) })
	})
	t.Run("merge-across-epoch", func(t *testing.T) {
		// A pre-epoch summary merged into one that has crossed the epoch:
		// global frame indexing must line the negative frames up.
		a, err := NewSliding(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewSliding(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a.Update(7, 100, -sec/4) // frame -1
		b.Update(9, 50, sec/8)   // frame 0
		b.Merge(a)
		if got := b.Estimate(7, sec/8); got != 100 {
			t.Errorf("pre-epoch mass lost in merge: %d, want 100", got)
		}
		if got := b.WindowTotal(sec / 8); got != 150 {
			t.Errorf("total = %d, want 150", got)
		}
	})
}

func BenchmarkMementoUpdate(b *testing.B) {
	m, err := NewMemento(Config{Window: time.Second, Frames: 8, Counters: 512})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Update(uint64(i)&1023, 1000, int64(i)*1000)
	}
}

func BenchmarkMementoHHHUpdate(b *testing.B) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	d, err := NewMementoHHH(h, Config{Window: time.Second, Frames: 8, Counters: 512}, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchUpdateKeys(b, h, d.UpdateKeys)
}
