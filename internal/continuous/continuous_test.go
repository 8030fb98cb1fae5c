package continuous

import (
	"math"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/tdbf"
	"hiddenhhh/internal/trace"
)

const sec = int64(time.Second)

func byteH() addr.Hierarchy { return addr.NewIPv4Hierarchy(addr.Byte) }

func defaultCfg(phi float64, tau time.Duration) Config {
	return Config{
		Hierarchy: byteH(),
		Phi:       phi,
		Filter: tdbf.Config{
			Cells:  1 << 14,
			Hashes: 4,
			Decay:  tdbf.Exponential{Tau: tau},
		},
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewDetector(Config{Hierarchy: byteH(), Phi: 0}); err == nil {
		t.Error("zero phi should fail")
	}
	if _, err := NewDetector(Config{Hierarchy: byteH(), Phi: 2}); err == nil {
		t.Error("phi > 1 should fail")
	}
	if _, err := NewDetector(Config{Hierarchy: byteH(), Phi: 0.1}); err == nil {
		t.Error("missing decay should fail")
	}
	if _, err := NewDetector(defaultCfg(0.1, time.Second)); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// drive sends a steady background plus an optional heavy host.
func drive(d *Detector, seconds int, heavy addr.Addr, heavyShare float64, seed int64) int64 {
	rng := rand.New(rand.NewSource(seed))
	now := int64(0)
	const pps = 1000
	step := sec / pps
	for i := 0; i < seconds*pps; i++ {
		now += step
		if heavyShare > 0 && rng.Float64() < heavyShare {
			ingest(d, heavy, 1000, now)
		} else {
			// Diffuse background across the whole space.
			ingest(d, addr.From4Uint32(rng.Uint32()), 1000, now)
		}
	}
	return now
}

func TestDetectsSteadyHeavyHitter(t *testing.T) {
	d, err := NewDetector(defaultCfg(0.1, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	heavy := addr.MustParseAddr("10.1.2.3")
	now := drive(d, 10, heavy, 0.4, 1) // 40% of bytes from one host
	set := d.Query(now)
	if !set.Contains(addr.Host(heavy)) {
		t.Fatalf("steady 40%% host not detected: %v", set)
	}
	it := set[addr.Host(heavy)]
	// Steady state mass ~ 0.4 * totalRate * tau = 0.4 * 1e6 B/s * 1s.
	want := 0.4 * 1000 * 1000.0
	rel := math.Abs(float64(it.Count)-want) / want
	if rel > 0.25 {
		t.Errorf("estimate %d vs expected ~%.0f (rel %.2f)", it.Count, want, rel)
	}
}

func TestNoDetectionsOnDiffuseTraffic(t *testing.T) {
	// All sources tiny: only the root aggregates enough mass.
	d, err := NewDetector(defaultCfg(0.1, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	now := drive(d, 5, addr.Addr{}, 0, 2)
	set := d.Query(now)
	for p := range set {
		if p != addr.V4Root {
			t.Fatalf("unexpected non-root detection %v in diffuse traffic", p)
		}
	}
}

func TestDetectionExpiresAfterFlowStops(t *testing.T) {
	d, err := NewDetector(defaultCfg(0.1, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	heavy := addr.MustParseAddr("10.1.2.3")
	now := drive(d, 10, heavy, 0.5, 3)
	if !d.Query(now).Contains(addr.Host(heavy)) {
		t.Fatal("precondition: heavy host detected")
	}
	// Flow stops; background continues for 10 tau.
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10000; i++ {
		now += sec / 1000
		ingest(d, addr.From4Uint32(rng.Uint32()), 1000, now)
	}
	if d.Query(now).Contains(addr.Host(heavy)) {
		t.Fatal("stopped flow still reported after 10 tau")
	}
}

func TestBoundaryStraddlingBurstIsSeen(t *testing.T) {
	// The paper's motivating case: a burst centred on what would be a
	// disjoint-window boundary. The continuous detector must report it.
	cfg := defaultCfg(0.05, 2*time.Second)
	var entered []addr.Prefix
	cfg.OnEnter = func(p addr.Prefix, at int64) { entered = append(entered, p) }
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	attacker := addr.MustParseAddr("203.0.113.66")
	rng := rand.New(rand.NewSource(5))
	now := int64(0)
	for i := 0; i < 20000; i++ { // 20 s of 1000 pps background
		now += sec / 1000
		ingest(d, addr.From4Uint32(rng.Uint32()), 1000, now)
		// Burst: 9.5 s - 10.5 s, attacker sends hard (10 extra pkts/ms).
		if now > 9500*int64(time.Millisecond) && now < 10500*int64(time.Millisecond) {
			for j := 0; j < 10; j++ {
				ingest(d, attacker, 1000, now)
			}
		}
	}
	seen := false
	for _, p := range entered {
		if p == addr.Host(attacker) {
			seen = true
		}
	}
	if !seen {
		t.Fatalf("boundary burst never entered the active set; events: %v", entered)
	}
	// And after the burst has decayed away it must not linger.
	if d.Query(now).Contains(addr.Host(attacker)) {
		t.Error("burst still active 10 s after it ended")
	}
}

// TestWarmupSuppressesEarlyDetections: nothing is admitted for one decay
// constant after the first packet.
func TestWarmupSuppressesEarlyDetections(t *testing.T) {
	cfg := defaultCfg(0.1, 5*time.Second)
	var enterTimes []int64
	cfg.OnEnter = func(_ addr.Prefix, at int64) { enterTimes = append(enterTimes, at) }
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(d, 10, addr.MustParseAddr("10.0.0.1"), 0.5, 6)
	for _, at := range enterTimes {
		if at < int64(5*time.Second) {
			t.Fatalf("detection at %v during warmup", time.Duration(at))
		}
	}
	if len(enterTimes) == 0 {
		t.Fatal("no detections after warmup")
	}
}

func TestConditioningSuppressesParent(t *testing.T) {
	// One heavy host inside an otherwise quiet /24: the host is an HHH;
	// the /24 (whose mass is entirely the host's) must be conditioned
	// away, not double-reported.
	d, err := NewDetector(defaultCfg(0.1, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	heavy := addr.MustParseAddr("10.1.2.3")
	now := drive(d, 10, heavy, 0.4, 7)
	set := d.Query(now)
	if !set.Contains(addr.Host(heavy)) {
		t.Fatalf("host missing: %v", set)
	}
	if set.Contains(addr.MustParsePrefix("10.1.2.0/24")) {
		t.Fatalf("parent /24 reported despite conditioning: %v", set)
	}
}

func TestHierarchicalAggregationDetectsSubnet(t *testing.T) {
	// Many sources inside one /24, each individually light: only the /24
	// (and possibly coarser) should fire — the hierarchical case.
	d, err := NewDetector(defaultCfg(0.1, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	subnet := addr.MustParseAddr("192.0.2.0")
	rng := rand.New(rand.NewSource(8))
	now := int64(0)
	for i := 0; i < 20000; i++ {
		now += sec / 2000
		if i%2 == 0 {
			ingest(d, addr.From4Uint32(subnet.V4()|uint32(rng.Intn(256))), 1000, now) // 50% share spread over /24
		} else {
			ingest(d, addr.From4Uint32(rng.Uint32()), 1000, now)
		}
	}
	set := d.Query(now)
	block := addr.MustParsePrefix("192.0.2.0/24")
	if !set.Contains(block) {
		t.Fatalf("aggregated /24 not detected: %v", set)
	}
	for p := range set {
		if p.Bits == 128 && block.Contains(p.Addr) { // a host: Bits counts the unified 128-bit space
			t.Fatalf("individual host %v wrongly detected", p)
		}
	}
}

func TestSampledVariantDetects(t *testing.T) {
	cfg := defaultCfg(0.1, time.Second)
	cfg.Sampled = true
	cfg.Seed = 42
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	heavy := addr.MustParseAddr("10.9.8.7")
	now := drive(d, 15, heavy, 0.5, 9)
	if set := d.Query(now); !set.Contains(addr.Host(heavy)) {
		t.Fatalf("sampled detector missed 50%% host: %v", set)
	}
}

func TestExitEventsFire(t *testing.T) {
	cfg := defaultCfg(0.1, time.Second)
	exits := 0
	cfg.OnExit = func(addr.Prefix, int64) { exits++ }
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	heavy := addr.MustParseAddr("10.0.0.1")
	now := drive(d, 5, heavy, 0.5, 10)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 10000; i++ {
		now += sec / 1000
		ingest(d, addr.From4Uint32(rng.Uint32()), 1000, now)
	}
	d.Query(now)
	if exits == 0 {
		t.Error("no exit events after flow stopped")
	}
}

func TestAccessors(t *testing.T) {
	d, err := NewDetector(defaultCfg(0.1, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ingest(d, addr.From4Uint32(1), 100, 1)
	if d.Packets() != 1 {
		t.Error("Packets")
	}
	if d.TotalMass(1) != 100 {
		t.Errorf("TotalMass = %v", d.TotalMass(1))
	}
	if d.SizeBytes() <= 0 {
		t.Error("SizeBytes")
	}
	// Only an unsampled detector uses, and so counts, the coalescing block.
	cfg := defaultCfg(0.1, time.Second)
	cfg.Sampled = true
	if s, err := NewDetector(cfg); err != nil {
		t.Fatal(err)
	} else if got, want := d.SizeBytes()-s.SizeBytes(), int(unsafe.Sizeof(block{})); got != want {
		t.Errorf("SizeBytes unsampled - sampled = %d, want the block's %d", got, want)
	}
	if d.ActiveLen() != 0 {
		t.Error("ActiveLen")
	}
	d.Reset()
	if d.Packets() != 0 || d.TotalMass(2) != 0 {
		t.Error("Reset incomplete")
	}
}

func TestQueryEmptyDetector(t *testing.T) {
	d, err := NewDetector(defaultCfg(0.1, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if set := d.Query(0); set.Len() != 0 {
		t.Errorf("fresh detector reported %v", set)
	}
}

// benchObserveKeys times ingest the way it ships: b.N packets from
// distinct sources, one per microsecond, in 256-packet key batches.
func benchObserveKeys(b *testing.B, d *Detector) {
	kb := trace.NewKeyBatch(256)
	b.ReportAllocs()
	for i := 0; i < b.N; {
		kb.Reset()
		for ; i < b.N && kb.Len() < 256; i++ {
			kb.Append(d.cfg.Hierarchy.Key(addr.From4Uint32(uint32(i)*2654435761), 0), 1000, int64(i)*1000)
		}
		d.ObserveKeys(kb)
	}
}

func BenchmarkObserve(b *testing.B) {
	d, err := NewDetector(defaultCfg(0.05, time.Second))
	if err != nil {
		b.Fatal(err)
	}
	benchObserveKeys(b, d)
}

func BenchmarkObserveSampled(b *testing.B) {
	cfg := defaultCfg(0.05, time.Second)
	cfg.Sampled = true
	d, err := NewDetector(cfg)
	if err != nil {
		b.Fatal(err)
	}
	benchObserveKeys(b, d)
}

// TestMergeIdentity: merging one detector into a fresh one of the same
// config and querying reproduces the original's report exactly (the K=1
// sharded case).
func TestMergeIdentity(t *testing.T) {
	cfg := defaultCfg(0.05, time.Second)
	src, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	now := int64(0)
	for i := 0; i < 30000; i++ {
		now += int64(100 * time.Microsecond)
		if i%3 == 0 {
			ingest(src, addr.MustParseAddr("10.1.2.3"), 1000, now)
		} else {
			ingest(src, addr.From4Uint32(rng.Uint32()), 400, now)
		}
	}
	dst, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dst.Merge(src)
	if got, want := dst.TotalMass(now), src.TotalMass(now); got != want {
		t.Errorf("merged mass %g != %g", got, want)
	}
	want, got := src.Query(now), dst.Query(now)
	if !got.Equal(want) {
		t.Fatalf("merged copy differs:\n got %v\nwant %v", got, want)
	}
	if !want.Contains(addr.MustParsePrefix("10.1.2.3/32")) {
		t.Fatalf("heavy host missing from %v", want)
	}
}

// TestMergePartitionedShards: splitting a stream by source hash across
// two detectors and merging approximates the single-detector view — the
// heavy host (whose packets all land in one shard) must be reported with
// its full mass, and the merged total must equal the union's.
func TestMergePartitionedShards(t *testing.T) {
	cfg := defaultCfg(0.05, time.Second)
	mk := func() *Detector {
		d, err := NewDetector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	shards := []*Detector{mk(), mk()}
	whole := mk()
	rng := rand.New(rand.NewSource(12))
	heavy := addr.MustParseAddr("10.1.2.3")
	now := int64(0)
	for i := 0; i < 30000; i++ {
		now += int64(100 * time.Microsecond)
		src, w := addr.From4Uint32(rng.Uint32()), int64(400)
		if i%3 == 0 {
			src, w = heavy, 1000
		}
		ingest(shards[src.V4()&1], src, w, now)
		ingest(whole, src, w, now)
	}
	merged := mk()
	merged.Merge(shards[0])
	merged.Merge(shards[1])
	gotMass, wantMass := merged.TotalMass(now), whole.TotalMass(now)
	if diff := gotMass - wantMass; diff > 1e-6*wantMass || diff < -1e-6*wantMass {
		t.Errorf("merged mass %g != union %g", gotMass, wantMass)
	}
	set := merged.Query(now)
	if !set.Contains(addr.MustParsePrefix("10.1.2.3/32")) {
		t.Fatalf("heavy host missing from merged report %v", set)
	}
	// Shard-local admission uses shard-local mass, so candidates are a
	// superset; after re-validation nothing below the global threshold
	// may survive.
	exitT := cfg.Phi * merged.TotalMass(now) * 0.9
	for p, it := range set {
		if float64(it.Conditioned) < exitT-1 {
			t.Errorf("%v survived with conditioned %d below exit threshold %g", p, it.Conditioned, exitT)
		}
	}
}

// TestMergeHierarchyMismatchPanics pins the guard: a detector of another
// hierarchy does not merge, and neither does one of the same hierarchy,
// shape and seed that samples levels (Merge asks Fits).
func TestMergeHierarchyMismatchPanics(t *testing.T) {
	a, err := NewDetector(defaultCfg(0.1, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	other, sampled := defaultCfg(0.1, time.Second), defaultCfg(0.1, time.Second)
	other.Hierarchy = addr.NewIPv4Hierarchy(addr.Nibble)
	sampled.Sampled = true
	for _, cfg := range []Config{other, sampled} {
		b, err := NewDetector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected a panic merging a detector of config %+v", cfg)
				}
			}()
			a.Merge(b)
		}()
	}
}

// TestWarmupAnchorsAtFirstPacket: warmup is measured from the first
// observed packet, not from timestamp zero, so an epoch-stamped trace
// warms up identically to a zero-based one.
func TestWarmupAnchorsAtFirstPacket(t *testing.T) {
	epoch := int64(1_700_000_000_000_000_000)
	cfg := defaultCfg(0.1, 5*time.Second)
	var enterTimes []int64
	cfg.OnEnter = func(_ addr.Prefix, at int64) { enterTimes = append(enterTimes, at) }
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := epoch
	for i := 0; i < 12000; i++ { // 12 s at 1000 pps, heavy throughout
		now += int64(time.Millisecond)
		ingest(d, addr.MustParseAddr("10.0.0.1"), 1000, now)
	}
	if len(enterTimes) == 0 {
		t.Fatal("no detections after warmup")
	}
	for _, at := range enterTimes {
		if at < epoch+int64(5*time.Second) {
			t.Fatalf("detection %v into the trace, during warmup", time.Duration(at-epoch))
		}
	}
}

// TestRestoredHugeMassSaturates: Restore takes any finite mass, so a
// restored total and root cell of 1e30 are a state Query must answer. The
// counts it reports saturate at MaxInt64; a bare conversion of a float
// past the int64 range is left to the implementation (and gives MinInt64
// on amd64).
func TestRestoredHugeMassSaturates(t *testing.T) {
	d, err := NewDetector(defaultCfg(0.05, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	root := d.levels - 1
	rootKey := d.cfg.Hierarchy.Key(addr.V4Root.Addr, root)
	st := State{
		Started: true,
		Packets: 1,
		Total:   tdbf.MassState{V: 1e30, Touch: 0},
		Active:  []ActiveEntry{{Level: root, Key: rootKey}},
	}
	err = d.Restore(0, st, func(l int, f *tdbf.Filter) error {
		w, err := f.Restore(tdbf.FilterState{Seed: f.Seed(), Landmark: 0})
		if err != nil || l != root {
			return err
		}
		if err := w.Set(0, 1e30); err != nil {
			return err
		}
		return w.Close(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	set := d.Query(0)
	it, ok := set[addr.V4Root]
	if !ok || set.Len() != 1 {
		t.Fatalf("Query = %v, want the root alone", set)
	}
	if it.Count != math.MaxInt64 || it.Conditioned != math.MaxInt64 {
		t.Fatalf("root Count %d, Conditioned %d; want both MaxInt64", it.Count, it.Conditioned)
	}
}

// TestBurstEntersAtItsSettlePoint: a subnet whose decayed mass crosses
// phi·total at packet j of a block, and stays over it, is admitted at that
// block's settle point — the stamp of its last packet — and never later;
// nothing of it enters before. The crossing is found from the closed form,
// exact at the subnet's level (a /16 under Cells 2¹⁶ is held exactly), and
// falls strictly inside a block.
func TestBurstEntersAtItsSettlePoint(t *testing.T) {
	cfg := defaultCfg(0.1, time.Second)
	cfg.Filter.Cells = 1 << 16
	burst := addr.MustParsePrefix("10.1.0.0/16")
	var entered []int64
	cfg.OnEnter = func(p addr.Prefix, at int64) {
		if p == burst {
			entered = append(entered, at)
		}
	}
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	tau := float64(time.Second)
	var mass, total float64 // the closed form, decayed to the last packet
	crossed, settle := -1, int64(-1)
	for i := 0; settle < 0 || i < crossed+200; i++ {
		now := int64(i+1) * int64(time.Millisecond)
		// Diffuse traffic, a fifth of it spread over 10/8; after three
		// seconds half of it comes from all over 10.1/16.
		src := addr.From4(byte(11+rng.Intn(200)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		switch {
		case now > 3*sec && rng.Intn(2) == 0:
			src = addr.From4(10, 1, byte(rng.Intn(256)), byte(rng.Intn(256)))
		case rng.Intn(5) == 0:
			src = addr.From4(10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		k := math.Exp(-float64(time.Millisecond) / tau)
		mass, total = mass*k, total*k+1000
		if burst.Contains(src) {
			mass += 1000
		}
		ingest(d, src, 1000, now)
		over := mass >= cfg.Phi*total
		if crossed < 0 && over {
			crossed = i
			if d.Packets()%sweepEvery == 0 {
				t.Fatal("the crossing falls on a block's last packet: it pins nothing")
			}
			if now <= 2*sec || len(entered) > 0 {
				t.Fatalf("crossing at packet %d (%v), %v admitted before", i, time.Duration(now), entered)
			}
		}
		if crossed >= 0 && settle < 0 && d.Packets()%sweepEvery == 0 {
			if !over {
				t.Fatal("the burst fell back under the threshold inside its block")
			}
			settle = now
		}
	}
	if len(entered) == 0 || entered[0] != settle {
		t.Fatalf("crossing at packet %d: admitted at %v, want the settle stamp %v", crossed, entered, time.Duration(settle))
	}
	t.Logf("crossed at packet %d, %d of its block; admitted at %v", crossed, crossed%sweepEvery, time.Duration(settle))
}

// TestSettleChecksEveryChain: after each settle every inactive prefix on
// the chain of a leaf of the block is under the entry threshold at the
// settle instant — none was skipped. Hashed levels of a few cells make
// keys share cells, so a write's estimate is not its key's final one within
// the block: what the check may skip is bounded by the block's mass, not by
// the key's own writes.
func TestSettleChecksEveryChain(t *testing.T) {
	cfg := defaultCfg(0.12, 200*time.Millisecond)
	cfg.Filter.Cells, cfg.Filter.Hashes = 16, 2
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var block []uint64
	checked := 0
	for i := 1; i <= 20000; i++ {
		now := int64(i) * int64(50*time.Microsecond)
		src := addr.From4(10, byte(rng.Intn(3)), byte(rng.Intn(4)), byte(rng.Intn(64)))
		ingest(d, src, int64(40+rng.Intn(1460)), now)
		block = append(block, byteH().Key(src, 0))
		if d.Packets()%sweepEvery != 0 {
			continue
		}
		if clock(now) >= d.warmEnd {
			enterT := cfg.Phi * d.TotalMass(now)
			for _, leaf := range block {
				for l := range d.filters {
					if d.act.find(l, leaf&d.masks[l]) >= 0 {
						continue
					}
					checked++
					if c := d.filters[l].Estimate(leaf&d.masks[l], now) - d.claimedUnder(leaf, l, now); c >= enterT {
						t.Fatalf("packet %d: level-%d prefix of leaf %#x inactive at conditioned %v over %v", i, l, leaf, c, enterT)
					}
				}
			}
		}
		block = block[:0]
	}
	if checked == 0 || d.ActiveLen() == 0 {
		t.Fatalf("%d chain prefixes checked, %d active: the stream exercises nothing", checked, d.ActiveLen())
	}
}
